/**
 * @file
 * Figure 15: per-query effective-throughput histograms, ScanDb
 * (MonetDB-like, measured) versus MithriLog (modeled), for 1-, 2- and
 * 8-query combinations. The paper's x-axis is non-linear; the same
 * bucket edges are used here.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/scan_db.h"
#include "bench_util.h"
#include "core/mithrilog.h"

using namespace mithril;
using namespace mithril::bench;

namespace {

// Non-linear buckets in GB/s, mirroring the paper's axis: bucket i
// holds [kEdges[i-1], kEdges[i]), with open-ended first and last ones.
const std::vector<double> kEdges = {0.05, 0.1, 0.25, 0.5, 1.0, 2.0,
                                    4.0, 8.0, 12.0};

/** Per-bucket sample counts over kEdges. */
struct EdgeHistogram {
    std::vector<uint64_t> counts = std::vector<uint64_t>(kEdges.size() + 1);

    void
    record(double value)
    {
        ++counts[std::upper_bound(kEdges.begin(), kEdges.end(), value) -
                 kEdges.begin()];
    }

    /** ASCII bar chart, one line per bucket. */
    std::string
    render(size_t bar_width) const
    {
        uint64_t peak = std::max<uint64_t>(
            1, *std::max_element(counts.begin(), counts.end()));
        std::string out;
        for (size_t i = 0; i < counts.size(); ++i) {
            char label[64];
            if (i == 0) {
                std::snprintf(label, sizeof label, "< %.3g", kEdges[0]);
            } else if (i == kEdges.size()) {
                std::snprintf(label, sizeof label, ">= %.3g",
                              kEdges.back());
            } else {
                std::snprintf(label, sizeof label, "[%.3g, %.3g)",
                              kEdges[i - 1], kEdges[i]);
            }
            char line[160];
            size_t bar = counts[i] * bar_width / peak;
            std::snprintf(line, sizeof line, "%16s |%-*s| %llu\n", label,
                          static_cast<int>(bar_width),
                          std::string(bar, '#').c_str(),
                          static_cast<unsigned long long>(counts[i]));
            out += line;
        }
        return out;
    }
};

void
runSet(const baseline::ScanDb &db, core::MithriLog *system,
       const std::vector<query::Query> &queries, size_t limit,
       const char *label)
{
    EdgeHistogram scan_h, accel_h;
    size_t n = std::min(limit, queries.size());
    double scan_sum = 0, accel_sum = 0;
    size_t accel_n = 0;
    for (size_t i = 0; i < n; ++i) {
        baseline::ScanResult sr = db.runQuery(queries[i]);
        double scan_gbps = db.rawBytes() /
                           std::max(sr.elapsed_seconds, 1e-9) / 1e9;
        scan_h.record(scan_gbps);
        scan_sum += scan_gbps;
        std::vector<query::Query> one{queries[i]};
        core::QueryResult mr;
        if (system->runFullScan(one, &mr).isOk()) {
            double accel_gbps =
                mr.effectiveThroughput(system->rawBytes()) / 1e9;
            accel_h.record(accel_gbps);
            accel_sum += accel_gbps;
            ++accel_n;
        }
    }
    std::printf("--- %s: ScanDb (measured GB/s) ---\n%s", label,
                scan_h.render(30).c_str());
    std::printf("--- %s: MithriLog (modeled GB/s) ---\n%s\n", label,
                accel_h.render(30).c_str());
    obs::JsonRecord rec("fig15_histogram");
    rec.field("set", label)
        .field("queries", n)
        .field("scandb_mean_gbps", n ? scan_sum / n : 0.0)
        .field("mithrilog_mean_gbps",
               accel_n ? accel_sum / accel_n : 0.0);
    emitRecord(&rec);
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv);
    banner("Per-query effective throughput histograms", "Figure 15");
    // One representative dataset keeps runtime bounded; the remaining
    // datasets show the same separation (see bench_table6).
    BenchDataset ds = makeDataset(loggen::hpc4Datasets()[2], 8 << 20);
    baseline::ScanDb db;
    db.ingest(ds.text);
    core::MithriLog system(obsConfig());
    expectOk(system.ingestText(ds.text), "ingest");
    expectOk(system.flush(), "flush");

    std::printf("dataset %s, %zu template queries\n\n",
                ds.spec.name.c_str(), ds.singles.size());
    runSet(db, &system, ds.singles, 12, "single queries");
    runSet(db, &system, ds.pairs, 8, "2-query combinations");
    runSet(db, &system, ds.eights, 4, "8-query combinations");

    std::printf("Shape target: ScanDb mass shifts left (slower) as "
                "combinations grow;\nMithriLog mass stays pinned in "
                "the top bucket regardless of complexity.\n");
    finishBench();
    return 0;
}
