/**
 * @file
 * mlbench — one workload of the end-to-end benchmark per process.
 *
 *   mlbench --workload ingest|mount|search|live --seed N --seconds S
 *           [--trace 0|1] [--out-dir DIR] [--smoke] [--break-oracle]
 *
 * Prints a diagnostics line (within-run quartiles of every wall metric,
 * the host reference kernel) and, last, the result line
 * {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
 * operation failed or any answer differed from its oracle.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "perfbench/layers.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"

namespace mithril::perfbench {

void
reportEndToEnd(const EndToEnd &e, Report *report)
{
    report->wall("setup_s", e.setup_s, "s");
    report->wall("p50_ms", e.request_ms, "ms");
    double tail = quantile(e.request_ms, e.tail_quantile);
    size_t beyond = 0;
    for (double v : e.request_ms) {
        beyond += v > tail;
    }
    report->metric("tail_ms", tail, "ms");
    report->diag("tail_quantile", e.tail_quantile);
    report->diag("tail_samples_beyond", static_cast<double>(beyond));
    report->diag("requests", static_cast<double>(e.request_ms.size()));
    report->wall("raw_mb_s", e.raw_mb_s, "MB/s");
    report->metric("modeled_us", e.modeled_us, "us");
    report->metric("peak_rss_mb", peakRssMb(), "MB");
    report->metric("ok_frac", report->okFrac(), "fraction");
    report->diag("bench.host_ref_ms", median(e.host_ref_ms));
}

void
reportSelfTimes(const SpanLog &spans, Report *report)
{
    double root = spans.rootMs();
    for (const auto &[layer, ms] : spans.selfMsByLayer()) {
        report->diag("self_frac." + layer, root > 0.0 ? ms / root : 0.0);
    }
}

void
finishTraced(const Options &opt, const LayerInputs &in,
             obs::MetricsRegistry *svc_metrics, const EndToEnd &untraced,
             const EndToEnd &traced, SpanLog *spans, Report *report)
{
    reportSelfTimes(*spans, report);
    reportLayers(in, spans, report);
    obs::MetricsRegistry pass_metrics;
    if (svc_metrics == nullptr) {
        Status st = svcPass(in, &pass_metrics, spans);
        if (!st.isOk()) {
            report->fail("svc pass: " + st.toString());
        }
        svc_metrics = &pass_metrics;
    }
    reportSvc(*svc_metrics, *spans, report);

    std::vector<double> host_ref = untraced.host_ref_ms;
    host_ref.insert(host_ref.end(), traced.host_ref_ms.begin(),
                    traced.host_ref_ms.end());
    report->metric("bench.host_ref_ms", median(host_ref), "ms");
    const double base = median(untraced.request_ms);
    report->metric("bench.trace_overhead_frac",
                   base > 0.0 ? (median(traced.request_ms) - base) / base
                              : 0.0,
                   "fraction");

    std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                       std::to_string(opt.seed) + ".json";
    Status st = spans->writeJson(path);
    if (!st.isOk()) {
        report->fail("span file: " + st.toString());
        return;
    }
    std::printf("spans written to %s\n", path.c_str());
}

} // namespace mithril::perfbench

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: mlbench --workload ingest|mount|search|live "
                 "--seed N --seconds S [--trace 0|1] [--out-dir DIR] "
                 "[--smoke] [--break-oracle]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mithril::perfbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string_view a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
            }
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            opt.seed = std::stoull(value());
        } else if (a == "--seconds") {
            opt.seconds = std::stod(value());
        } else if (a == "--trace") {
            opt.trace = value() == "1";
        } else if (a == "--out-dir") {
            opt.out_dir = value();
        } else if (a == "--smoke") {
            opt.smoke = true;
        } else if (a == "--break-oracle") {
            opt.break_oracle = true;
        } else {
            usage();
        }
    }

    Report report;
    if (opt.workload == "ingest") {
        runIngest(opt, &report);
    } else if (opt.workload == "mount") {
        runMount(opt, &report);
    } else if (opt.workload == "search") {
        runSearch(opt, &report);
    } else if (opt.workload == "live") {
        runLive(opt, &report);
    } else {
        usage();
    }
    std::printf("%s\n%s\n", report.diagJson().c_str(),
                report.resultJson().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
