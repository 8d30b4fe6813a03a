/**
 * @file
 * mithril::obs — machine-readable snapshots.
 *
 * Serializes a MetricsRegistry to JSON (`--metrics-out`) and provides
 * the one-line bench record format: every table/figure bench emits
 * `BENCH_JSON {...}` lines alongside its human-readable output, so
 * runs are comparable and the repo's BENCH_*.json perf trajectory can
 * accumulate without scraping free-form text.
 */
#ifndef MITHRIL_OBS_REPORT_H
#define MITHRIL_OBS_REPORT_H

#include <cstdio>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mithril::obs {

/**
 * Snapshot JSON:
 * {
 *   "counters":   {"ssd.pages_read": 123, ...},
 *   "gauges":     {"lzah.ratio": 2.1, ...},
 *   "quantiles":  {"svc.queue_wait.sim_ps":
 *                    {"count": n, "sum": s, "min": m, "max": M,
 *                     "p50": ..., "p90": ..., "p99": ..., "p999": ...,
 *                     "buckets": [{"lo": 1, "count": 4}, ...]}, ...}
 * }
 */
std::string metricsToJson(const MetricsSnapshot &snapshot);
std::string metricsToJson(const MetricsRegistry &registry);

/** Writes metricsToJson(registry) to @p path. */
Status writeMetricsJson(const MetricsRegistry &registry,
                        const std::string &path);

/**
 * One-line machine-readable record: `BENCH_JSON {"bench": ..., ...}`.
 *
 * Chained field() calls build the object; emit() prints the line (and
 * optionally appends it to a file). Keys appear in call order.
 */
class JsonRecord
{
  public:
    explicit JsonRecord(std::string_view bench);

    JsonRecord &field(std::string_view key, std::string_view v);
    JsonRecord &field(std::string_view key, const char *v)
    {
        return field(key, std::string_view(v));
    }
    JsonRecord &field(std::string_view key, double v);
    JsonRecord &field(std::string_view key, uint64_t v);
    JsonRecord &field(std::string_view key, int v)
    {
        return field(key, static_cast<uint64_t>(v));
    }
    JsonRecord &field(std::string_view key, bool v);

    /** Prints `BENCH_JSON {...}` to @p out and appends the bare JSON
     *  line to @p file_path when non-empty. */
    void emit(std::FILE *out = stdout,
              const std::string &file_path = std::string());

    /** The JSON object built so far (closed). */
    std::string json() const;

  private:
    std::string body_;  // open object, without the closing brace
    JsonWriter writer_;
};

} // namespace mithril::obs

#endif // MITHRIL_OBS_REPORT_H
