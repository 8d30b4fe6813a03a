/**
 * @file
 * The benchmark's own in-memory span list (traced runs only).
 *
 * Each span records name, layer, start, end, parent span and request
 * id. The benchmark opens one around every call it makes into `core`
 * or `svc` and around its calls into lower-layer public functions;
 * program spans the `obs::Tracer` already emits (`recover.*`,
 * `query.*`, `checkpoint.*`) are adopted as children of the benchmark
 * span that caused them. A layer's self time is a span's duration
 * minus the part its children cover, summed over the layer's spans.
 * obs::Tracer is not used as the store: it has no parent or request id
 * and overwrites events after its ring fills.
 */
#ifndef MITHRIL_PERFBENCH_SPANS_H
#define MITHRIL_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/trace.h"

namespace mithril::perfbench {

/** One closed (or still open: end_ns == 0) span. */
struct SpanRecord {
    uint64_t id = 0;
    uint64_t parent = 0;   ///< 0 = root
    uint64_t request = 0;  ///< spans of one request share it
    std::string name;
    std::string layer;
    uint64_t start_ns = 0;  ///< since the log's epoch
    uint64_t end_ns = 0;
};

class SpanLog
{
  public:
    /** A disabled log records nothing and costs one branch per call. */
    explicit SpanLog(bool enabled);

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    bool enabled() const { return enabled_; }

    /** Opens a span named `<layer>.<what>`; returns its id, 0 when
     *  disabled. */
    uint64_t open(std::string_view name, uint64_t parent,
                  uint64_t request);

    /** Closes span @p id (no-op for 0). */
    void close(uint64_t id);

    /**
     * Adopts the program's own spans: @p events from an obs::Tracer
     * constructed at @p tracer_epoch become descendants of @p parent,
     * nested by time containment.
     */
    void adopt(const std::vector<obs::TraceEvent> &events,
               std::chrono::steady_clock::time_point tracer_epoch,
               uint64_t parent, uint64_t request);

    /** Durations in ms of every closed span called @p name. */
    std::vector<double> durationsMs(std::string_view name) const;

    /** Self time per layer, in ms. */
    std::map<std::string, double> selfMsByLayer() const;

    /** Summed duration of root spans, in ms. */
    double rootMs() const;

    /** Writes every span plus the per-layer self times as JSON. */
    [[nodiscard]] Status writeJson(const std::string &path) const;

  private:
    uint64_t nowNs() const;

    const bool enabled_;
    const std::chrono::steady_clock::time_point epoch_;
    mutable Mutex mu_;
    std::vector<SpanRecord> spans_ MITHRIL_GUARDED_BY(mu_);
};

/** RAII span on a SpanLog (null or disabled log: no-op). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, std::string_view name, uint64_t parent = 0,
               uint64_t request = 0)
        : log_(log),
          id_(log != nullptr ? log->open(name, parent, request) : 0)
    {
    }
    ~ScopedSpan() { end(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return id_; }

    void
    end()
    {
        if (id_ != 0) {
            log_->close(id_);
            id_ = 0;
        }
    }

  private:
    SpanLog *log_;
    uint64_t id_;
};

} // namespace mithril::perfbench

#endif // MITHRIL_PERFBENCH_SPANS_H
