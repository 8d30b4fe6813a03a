/**
 * @file
 * The per-layer metrics of the traced runs. Every workload reports all
 * of them, measured on its own inputs: the benchmark calls the public
 * functions of each layer directly on the workload's corpus, sealed
 * store and query library, one span per call (or per segment for
 * per-line functions), and reads the counters, stage histograms and
 * `QueryBreakdown` fields the program publishes (README.md has the
 * table).
 */
#ifndef MITHRIL_PERFBENCH_LAYERS_H
#define MITHRIL_PERFBENCH_LAYERS_H

#include <string>
#include <string_view>
#include <vector>

#include "core/mithrilog.h"
#include "obs/metrics.h"
#include "perfbench/corpus.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "svc/log_service.h"

namespace mithril::perfbench {

/** What the layer passes run on: one workload's own inputs. */
struct LayerInputs {
    /** The corpus, as line-aligned segments. */
    std::vector<std::string_view> segments;
    /** A sealed store that ingested exactly the corpus. */
    core::MithriLog *store = nullptr;
    const std::vector<LibQuery> *library = nullptr;
    /** Share of each library query in the workload's mix; empty means
     *  every query counts once. */
    std::vector<double> weights;
    /** Where the mount pass writes its device image (one file per
     *  workload, overwritten by each run). */
    std::string image;
};

/**
 * Every `common`, `compress`, `typed`, `index`, `storage`, `accel`,
 * `query` and `core` metric of the per-layer table: the write-path and
 * read-path passes, the store's counters, one run of each library query
 * (modeled breakdown), and a mount pass that saves the store's device
 * image and recovers it into fresh stores (adopting the program's
 * `recover.*` spans).
 */
void reportLayers(const LayerInputs &in, SpanLog *spans, Report *report);

/** The service configuration of `live` and of the svc pass: 2 shards,
 *  2 workers, 256-line batches, 2 queued batches per shard. */
svc::LogServiceConfig serviceConfig(obs::MetricsRegistry *metrics);

/** Appends one line; a refusal by backpressure is drained and retried,
 *  so it counts as one operation. */
Status appendLine(svc::LogService &service, std::string_view line);

/** Spans every this many appends are timed (`svc.append`). */
inline constexpr uint64_t kAppendSpanEvery = 16;

/**
 * The svc pass of the workloads without a service: a fresh service
 * appends the corpus, flushes and runs each library query once. Its
 * registry goes to @p metrics, its sampled append spans to @p spans.
 */
Status svcPass(const LayerInputs &in, obs::MetricsRegistry *metrics,
               SpanLog *spans);

/** The `svc.*` metrics from a service's @p metrics and the sampled
 *  `svc.append` spans in @p spans. */
void reportSvc(obs::MetricsRegistry &metrics, const SpanLog &spans,
               Report *report);

} // namespace mithril::perfbench

#endif // MITHRIL_PERFBENCH_LAYERS_H
