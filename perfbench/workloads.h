/**
 * @file
 * The four workloads of the end-to-end benchmark (README.md says why
 * each exists). Each fills one Report from one seed, in its own
 * process, and reports the same end-to-end metrics: what a request is,
 * and so what each metric times, is the workload's own.
 */
#ifndef MITHRIL_PERFBENCH_WORKLOADS_H
#define MITHRIL_PERFBENCH_WORKLOADS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/wall_timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"

namespace mithril::perfbench {

struct Options {
    std::string workload;
    uint64_t seed = 1;
    /** Length of the measured phase. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Small inputs for the self-test. */
    bool smoke = false;
    /** Corrupt one expected answer, to prove the oracle gate fires. */
    bool break_oracle = false;
    /** Directory for device images and the span file. */
    std::string out_dir = ".";
};

/**
 * Set-up timing. `setup_s` is the median of kSamples timed set-ups: the
 * first builds what the run uses, the others rebuild and discard it,
 * spread evenly over the measured phase, so one noisy stretch of host
 * time cannot move them all.
 */
class SetupClock
{
  public:
    static constexpr size_t kSamples = 5;

    /** Times the first set-up and keeps @p make for the re-timings. */
    template <typename Make>
    auto
    first(Make make)
    {
        redo_ = [make]() mutable { (void)make(); };
        WallTimer t;
        auto kept = make();
        samples_.push_back(t.seconds());
        return kept;
    }

    /** Call through the measured phase with the share @p done of it
     *  elapsed (1 at its end): re-times a set-up at each k/kSamples. */
    void
    during(double done)
    {
        while (samples_.size() < kSamples &&
               done * kSamples >= static_cast<double>(samples_.size())) {
            WallTimer t;
            redo_();
            samples_.push_back(t.seconds());
        }
    }

    const std::vector<double> &samples() const { return samples_; }

  private:
    std::function<void()> redo_;
    std::vector<double> samples_;
};

/**
 * The end-to-end record of an untraced run (README.md defines each
 * field per workload). Wall samples exclude the warm-up.
 */
struct EndToEnd {
    /** SetupClock samples. */
    std::vector<double> setup_s;
    /** Wall time of each request, in ms. */
    std::vector<double> request_ms;
    /** The percentile `tail_ms` reports, fixed per workload: the highest
     *  with at least ten requests beyond it in a full-length run. */
    double tail_quantile = 0.99;
    /** Raw log megabytes per wall second, one sample per timed stretch
     *  of the workload's data flow. */
    std::vector<double> raw_mb_s;
    /** Modeled device time per request, in µs (deterministic for a
     *  seed). */
    double modeled_us = 0.0;
    /** bench.host_ref_ms samples taken through the measured phase. */
    std::vector<double> host_ref_ms;
};

/** Adds every end-to-end metric of @p e (plus peak RSS and ok_frac) to
 *  @p report, with their within-run spreads as diagnostics. */
void reportEndToEnd(const EndToEnd &e, Report *report);

/**
 * Runs @p fn (a call into `core` or `svc`) inside span @p name and
 * adopts the program spans it left in @p tracer, which was constructed
 * at @p epoch. With a disabled log it only calls @p fn.
 */
template <typename Fn>
Status
tracedCall(SpanLog *log, obs::Tracer *tracer,
           std::chrono::steady_clock::time_point epoch,
           std::string_view name, uint64_t request, Fn &&fn)
{
    if (!log->enabled()) {
        return fn();
    }
    tracer->clear();
    ScopedSpan span(log, name, 0, request);
    Status st = fn();
    uint64_t id = span.id();
    span.end();
    log->adopt(tracer->events(), epoch, id, request);
    return st;
}

/** Records `self_frac.<layer>` diagnostics: each layer's self time as a
 *  share of the root spans' time in @p spans. */
void reportSelfTimes(const SpanLog &spans, Report *report);

struct LayerInputs;

/**
 * Ends a traced run: self times (diagnostics), every per-layer metric
 * measured on @p in, the svc metrics from @p svc_metrics (or from a svc
 * pass over @p in when null), bench.host_ref_ms, and
 * bench.trace_overhead_frac from the request medians of the untraced
 * and traced halves. Writes the span file.
 */
void finishTraced(const Options &opt, const LayerInputs &in,
                  obs::MetricsRegistry *svc_metrics,
                  const EndToEnd &untraced, const EndToEnd &traced,
                  SpanLog *spans, Report *report);

void runIngest(const Options &opt, Report *report);
void runMount(const Options &opt, Report *report);
void runSearch(const Options &opt, Report *report);
void runLive(const Options &opt, Report *report);

} // namespace mithril::perfbench

#endif // MITHRIL_PERFBENCH_WORKLOADS_H
