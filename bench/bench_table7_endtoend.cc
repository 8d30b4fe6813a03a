/**
 * @file
 * Table 7: average end-to-end improvement over the Splunk-like indexed
 * engine. SplunkLite runs every query single-threaded (measured); as
 * the paper does, its time is divided by 12 (the comparison host's
 * hyper-thread count) to credit it with perfect parallel scaling.
 * MithriLog times are modeled end-to-end: index traversal + page
 * streaming + accelerator compute.
 */
#include <cstdio>
#include <vector>

#include "baseline/splunk_lite.h"
#include "bench_util.h"
#include "core/mithrilog.h"

using namespace mithril;
using namespace mithril::bench;

namespace {
constexpr double kSplunkThreads = 12.0;  // paper's generous division
} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    banner("Average end-to-end improvement over Splunk-like engine",
           "Table 7");
    std::printf("%-12s %10s %14s %14s %12s\n", "dataset", "queries",
                "Splunk total", "MithriLog tot", "improvement");

    double paper[] = {9.93, 352.26, 201.20, 86.32};
    size_t d = 0;
    for (const auto &spec : loggen::hpc4Datasets()) {
        // End-to-end comparisons need enough data that scan costs
        // dominate fixed latencies on both sides.
        BenchDataset ds = makeDataset(spec, 24 << 20);

        baseline::SplunkLite splunk;
        splunk.ingest(ds.text);

        core::MithriLog system(obsConfig());
        expectOk(system.ingestText(ds.text), "ingest");
        expectOk(system.flush(), "flush");

        // All singles (capped) + all combinations, same set for both.
        std::vector<query::Query> queries;
        for (size_t i = 0; i < ds.singles.size() && i < 24; ++i) {
            queries.push_back(ds.singles[i]);
        }
        for (const auto &q : ds.pairs) {
            queries.push_back(q);
        }
        for (const auto &q : ds.eights) {
            queries.push_back(q);
        }

        double splunk_total = 0, mithril_total = 0;
        size_t ran = 0;
        for (const query::Query &q : queries) {
            core::QueryResult mr;
            if (!system.run(q, &mr).isOk() || mr.breakdown.used_fallback) {
                continue;  // keep the comparison on offloaded queries
            }
            baseline::IndexedResult sr = splunk.runQuery(q);
            splunk_total += sr.elapsed_seconds / kSplunkThreads;
            mithril_total += mr.breakdown.total_time.toSeconds();
            ++ran;
        }
        double improvement = mithril_total > 0
                                 ? splunk_total / mithril_total
                                 : 0.0;
        std::printf("%-12s %10zu %12.4fs %12.4fs %11.1fx "
                    "(paper %.1fx)\n",
                    spec.name.c_str(), ran, splunk_total,
                    mithril_total, improvement, paper[d]);
        obs::JsonRecord rec("table7_endtoend");
        rec.field("dataset", spec.name)
            .field("queries", ran)
            .field("splunk_seconds", splunk_total)
            .field("mithrilog_seconds", mithril_total)
            .field("improvement", improvement)
            .field("paper_improvement", paper[d]);
        emitRecord(&rec);
        ++d;
    }
    std::printf("\nSplunk times are divided by %g; MithriLog times are "
                "modeled at the\npaper's platform parameters. Absolute "
                "factors depend on this host's CPU;\nthe target is "
                "order-of-magnitude improvement, largest on "
                "scan-heavy queries.\n", kSplunkThreads);
    finishBench();
    return 0;
}
