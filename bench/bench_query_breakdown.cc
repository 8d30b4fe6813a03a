/**
 * @file
 * Per-query breakdown telemetry: runs a handful of indexed template
 * queries over one small dataset and emits each query's structured
 * QueryBreakdown (the Table 7 index/storage/compute split plus the
 * index's candidate/false-positive page account) as BENCH_JSON
 * records. The fastest end-to-end exercise of the whole observability
 * surface — CTest runs it with --metrics-out and validates the output
 * with json_check.
 */
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/mithrilog.h"

using namespace mithril;
using namespace mithril::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    banner("Per-query breakdown telemetry", "Table 7 methodology");

    BenchDataset ds = makeDataset(loggen::hpc4Datasets()[0], 2 << 20);
    core::MithriLog system(obsConfig());
    if (!system.ingestText(ds.text).isOk()) {
        std::fprintf(stderr, "ingest failed\n");
        return 1;
    }
    if (!system.flush().isOk()) {
        std::fprintf(stderr, "flush failed\n");
        return 1;
    }

    std::printf("dataset %s: %llu lines, %llu pages\n",
                ds.spec.name.c_str(),
                static_cast<unsigned long long>(system.lineCount()),
                static_cast<unsigned long long>(
                    system.dataPageCount()));

    size_t n = std::min<size_t>(8, ds.singles.size());
    for (size_t i = 0; i < n; ++i) {
        core::QueryResult r;
        if (!system.run(ds.singles[i], &r).isOk()) {
            continue;
        }
        std::printf("query %zu: %s\n", i, r.breakdown.toJson().c_str());
        obs::JsonRecord rec("query_breakdown");
        rec.field("query", i)
            .field("total_ps",
                   static_cast<uint64_t>(r.total_time.ps()))
            .field("candidate_pages", r.breakdown.candidate_pages)
            .field("pages_scanned", r.breakdown.pages_scanned)
            .field("false_positive_pages",
                   r.breakdown.false_positive_pages)
            .field("matched_lines", r.breakdown.matched_lines);
        emitRecord(&rec);
    }

    obs::MetricsSnapshot snap = benchMetrics().snapshot();
    std::printf("\n%zu counters, %zu gauges, %zu histograms in the "
                "registry; %zu spans traced\n",
                snap.counters.size(), snap.gauges.size(),
                snap.quantile_histograms.size(),
                benchTracer().events().size());
    finishBench();
    return 0;
}
