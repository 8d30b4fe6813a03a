/**
 * @file
 * Figure 16: per-query elapsed-time scatter, MithriLog (modeled,
 * indexed) versus SplunkLite (measured single-thread time divided by
 * 12, as the paper does). Emits one line per query — a CSV-ready
 * scatter — plus the cluster summary the paper narrates: indexed
 * queries finish sub-second on both; negative-heavy queries blow up
 * the software side but not MithriLog.
 */
#include <cstdio>
#include <vector>

#include "baseline/splunk_lite.h"
#include "bench_util.h"
#include "core/mithrilog.h"

using namespace mithril;
using namespace mithril::bench;

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    banner("Per-query time scatter: MithriLog vs Splunk-like",
           "Figure 16");
    constexpr double kThreads = 12.0;

    // Two datasets bound runtime; the full sweep is bench_table7.
    for (size_t which : {1u, 3u}) {
        BenchDataset ds = makeDataset(loggen::hpc4Datasets()[which],
                                      24 << 20);
        baseline::SplunkLite splunk;
        splunk.ingest(ds.text);
        core::MithriLog system(obsConfig());
        expectOk(system.ingestText(ds.text), "ingest");
        expectOk(system.flush(), "flush");

        std::printf("\ndataset %s  (columns: splunk_s mithrilog_s "
                    "splunk_buckets_scanned matched)\n",
                    ds.spec.name.c_str());

        std::vector<query::Query> queries;
        for (size_t i = 0; i < ds.singles.size() && i < 16; ++i) {
            queries.push_back(ds.singles[i]);
        }
        for (size_t i = 0; i < ds.pairs.size() && i < 8; ++i) {
            queries.push_back(ds.pairs[i]);
        }

        double worst_ratio = 0, sum_ratio = 0;
        size_t n = 0;
        for (const query::Query &q : queries) {
            core::QueryResult mr;
            if (!system.run(q, &mr).isOk() || mr.breakdown.used_fallback) {
                continue;
            }
            baseline::IndexedResult sr = splunk.runQuery(q);
            double splunk_s = sr.elapsed_seconds / kThreads;
            double mithril_s = mr.breakdown.total_time.toSeconds();
            std::printf("  %.6f %.6f %llu %llu\n", splunk_s, mithril_s,
                        static_cast<unsigned long long>(
                            sr.buckets_scanned),
                        static_cast<unsigned long long>(
                            sr.matched_lines));
            double ratio = splunk_s / std::max(mithril_s, 1e-9);
            worst_ratio = std::max(worst_ratio, ratio);
            sum_ratio += ratio;
            ++n;
        }
        if (n > 0) {
            std::printf("  -> mean speedup %.1fx, max %.1fx over %zu "
                        "queries\n", sum_ratio / n, worst_ratio, n);
        }
        obs::JsonRecord rec("fig16_scatter");
        rec.field("dataset", ds.spec.name)
            .field("queries", n)
            .field("mean_speedup", n ? sum_ratio / n : 0.0)
            .field("max_speedup", worst_ratio);
        emitRecord(&rec);
    }
    std::printf("\nShape target: points lie above the diagonal "
                "(MithriLog faster), with the\nlargest gaps on queries "
                "whose index pruning fails (scan-heavy cluster at\nthe "
                "left edge of the paper's plots).\n");
    finishBench();
    return 0;
}
