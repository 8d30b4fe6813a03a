/**
 * @file
 * mithril_cli — a small command-line front end over the full API.
 *
 * Subcommands:
 *   generate <dataset> <MB> <out.log>    synthesize a dataset to a file
 *   ingest   <in.log> <out.img>          ingest, seal, and write the
 *                                        device image
 *   query    <in.img> "<query>"          mount an image (recover()) and
 *                                        run one query
 *   svc      <in.log> "<query>"          sharded service: concurrent
 *                                        ingest into N shards, query
 *                                        fan-out, deterministic merge
 *   templates <in.log> [N]               FT-tree library (top N shown)
 *   stat     <in.img>                    mount an image and print its
 *                                        statistics
 *   soak                                 open-loop soak: seeded mixed
 *                                        ingest+query traffic against
 *                                        the service, SLO quantiles
 *
 * Global flags (any subcommand; most useful with `query`):
 *   --shards=<N>           (svc/soak) independent MithriLog partitions
 *   --threads=<M>          (svc/soak) worker threads in the pool
 *   --shape=<s>            (soak) arrival shape:
 *                          steady|bursty|diurnal
 *   --duration=<sec>       (soak) virtual seconds of offered traffic
 *   --seed=<n>             (soak) arrival-schedule seed
 *   --qps=<n>              (soak) offered query rate (virtual)
 *   --metrics-out=<path>   write a JSON metrics snapshot on exit
 *   --trace-out=<path>     write a Chrome-trace (Perfetto) span file
 *   --fault-plan=<spec>    (query/svc) attach a deterministic fault-
 *                          injection plan to the device before the
 *                          query runs; spec example:
 *                          "seed=3,ber=1e-6,timeout=0.01"
 *                          (keys: seed ber ecc timeout garble torn
 *                          drop cut_after retries backoff_us)
 *   --ip=<addr|cidr>       (query/svc) AND a typed address predicate
 *                          onto the query (incident-response tier,
 *                          DESIGN.md §15); e.g. --ip=10.0.0.0/8
 *   --id=<hex>             (query/svc) AND a typed hex-id predicate
 *                          (8..64 nibbles, prefix match allowed)
 *   --window=<t0>,<t1>     (query/svc) AND a typed time window;
 *                          epoch seconds or RFC 3339 timestamps
 *   --no-typed-index       (ingest/query) skip typed posting lists:
 *                          typed predicates fall back to the exact
 *                          full-scan baseline
 *
 * Example session:
 *   mithril_cli generate Spirit2 8 /tmp/spirit.log
 *   mithril_cli ingest /tmp/spirit.log /tmp/spirit.img
 *   mithril_cli query /tmp/spirit.img "error & !timeout" \
 *       --metrics-out=/tmp/m.json --trace-out=/tmp/t.json
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/text.h"
#include "common/wall_timer.h"
#include "core/mithrilog.h"
#include "fault/fault_plan.h"
#include "loggen/log_generator.h"
#include "obs/report.h"
#include "soak/soak_driver.h"
#include "svc/log_service.h"
#include "templates/ft_tree.h"

using namespace mithril;

namespace {

/** Destinations of the --metrics-out / --trace-out flags. */
struct ObsOut {
    std::string metrics_path;
    std::string trace_path;

    /** Writes whatever the user asked for; reports but does not fail
     *  the command on write errors. */
    int
    write(const core::MithriLog &system) const
    {
        return write(system.metrics(), system.tracer());
    }

    int
    write(const obs::MetricsRegistry &metrics,
          const obs::Tracer &tracer) const
    {
        int rc = 0;
        if (!metrics_path.empty()) {
            Status st = obs::writeMetricsJson(metrics, metrics_path);
            if (!st.isOk()) {
                std::fprintf(stderr, "metrics-out: %s\n",
                             st.toString().c_str());
                rc = 1;
            } else {
                std::printf("metrics written to %s\n",
                            metrics_path.c_str());
            }
        }
        if (!trace_path.empty()) {
            Status st = tracer.writeChromeTrace(trace_path);
            if (!st.isOk()) {
                std::fprintf(stderr, "trace-out: %s\n",
                             st.toString().c_str());
                rc = 1;
            } else {
                std::printf("trace written to %s (open in "
                            "ui.perfetto.dev)\n",
                            trace_path.c_str());
            }
        }
        return rc;
    }
};

ObsOut g_obs;
std::string g_fault_spec;
std::string g_flag_ip;
std::string g_flag_id;
std::string g_flag_window;
bool g_no_typed_index = false;
uint64_t g_checkpoint_every = 0;
size_t g_shards = 4;
size_t g_threads = 4;
std::string g_soak_shape = "steady";
double g_soak_duration = 0.1;
uint64_t g_soak_seed = 1;
double g_soak_qps = 40.0;

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  mithril_cli generate <dataset> <MB> <out.log>\n"
                 "  mithril_cli ingest <in.log> <out.img>\n"
                 "  mithril_cli query <in.img> \"<query>\"\n"
                 "  mithril_cli svc <in.log> \"<query>\"\n"
                 "  mithril_cli templates <in.log> [N]\n"
                 "  mithril_cli stat <in.img>\n"
                 "  mithril_cli soak\n"
                 "flags: --metrics-out=<path>  --trace-out=<path>\n"
                 "       --shards=<N> --threads=<M>  (svc/soak) "
                 "service shape, default 4x4\n"
                 "       --shape=steady|bursty|diurnal --duration=<s>\n"
                 "       --seed=<n> --qps=<n>  (soak) arrival "
                 "schedule\n"
                 "       --fault-plan=<spec>   (query/svc) e.g. "
                 "\"seed=3,ber=1e-6,timeout=0.01\"\n"
                 "       --checkpoint-every=<N> (ingest/svc/soak) "
                 "checkpoint per N data pages\n"
                 "       --ip=<addr|cidr> --id=<hex> "
                 "--window=<t0>,<t1>\n"
                 "                             (query/svc) AND typed "
                 "predicates onto the query\n"
                 "       --no-typed-index      (ingest/query) disable "
                 "typed posting lists\n"
                 "datasets: BGL2 Liberty2 Spirit2 Thunderbird\n");
    return 2;
}

/** ANDs the --ip/--id/--window typed predicates onto the positional
 *  query; an empty positional query with typed flags is a pure typed
 *  lookup. */
std::string
withTypedFlags(const std::string &query_text)
{
    std::string q = query_text;
    auto conjoin = [&q](const std::string &pred) {
        if (!q.empty()) {
            q += " & ";
        }
        q += pred;
    };
    if (!g_flag_ip.empty()) {
        conjoin("ip:" + g_flag_ip);
    }
    if (!g_flag_id.empty()) {
        conjoin("id:" + g_flag_id);
    }
    if (!g_flag_window.empty()) {
        conjoin("time:[" + g_flag_window + "]");
    }
    return q;
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

int
cmdGenerate(const std::string &dataset, const std::string &mb,
            const std::string &path)
{
    loggen::LogGenerator gen(loggen::datasetByName(dataset));
    uint64_t bytes = std::stoull(mb) << 20;
    std::string text = gen.generate(bytes);
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    out << text;
    std::printf("wrote %s of %s-like logs to %s (%llu lines)\n",
                humanBytes(static_cast<double>(text.size())).c_str(),
                dataset.c_str(), path.c_str(),
                static_cast<unsigned long long>(gen.linesEmitted()));
    return 0;
}

int
cmdIngest(const std::string &log_path, const std::string &img_path)
{
    std::string text;
    if (!readFile(log_path, &text)) {
        return 1;
    }
    core::MithriLogConfig mc;
    mc.checkpoint_every_pages = g_checkpoint_every;
    mc.use_typed_index = !g_no_typed_index;
    core::MithriLog system(mc);
    WallTimer timer;
    Status st = system.ingestText(text);
    if (st.isOk()) {
        st = system.seal();
    }
    if (!st.isOk()) {
        std::fprintf(stderr, "ingest: %s\n", st.toString().c_str());
        return 1;
    }
    st = system.saveDeviceImage(img_path);
    if (!st.isOk()) {
        std::fprintf(stderr, "save: %s\n", st.toString().c_str());
        return 1;
    }
    uint64_t flushes = system.metrics().counter("ssd.flushes").value();
    uint64_t journal_writes =
        system.metrics().counter("journal.page_writes").value();
    // Journaling overhead: the durability barriers plus the journal's
    // own page programs, in modeled device time.
    uint64_t overhead_ps =
        flushes * system.ssd().config().flush_latency.ps() +
        journal_writes *
            SimTime::transfer(storage::kPageSize,
                              system.ssd().config().internal_bw_bps)
                .ps();
    std::printf("ingested %llu lines -> %llu pages (LZAH %.2fx) in "
                "%.2fs; image at %s\n",
                static_cast<unsigned long long>(system.lineCount()),
                static_cast<unsigned long long>(system.dataPageCount()),
                system.compressionRatio(), timer.seconds(),
                img_path.c_str());
    obs::JsonRecord("cli_ingest")
        .field("lines", system.lineCount())
        .field("data_pages", system.dataPageCount())
        .field("device_writes",
               system.metrics().counter("ssd.pages_written").value())
        .field("journal_records",
               system.metrics().counter("journal.records").value())
        .field("barriers", flushes)
        .field("journal_overhead_ps", overhead_ps)
        .field("checkpoints", system.checkpoints())
        .field("chain_records", system.journalChainRecords())
        .field("snapshot_records", system.journalSnapshotRecords())
        .field("segments_freed",
               system.ssd().store().segmentsFreed())
        .field("wall_seconds", timer.seconds())
        .emit();
    return g_obs.write(system);
}

int
cmdQuery(const std::string &img_path, const std::string &query_text)
{
    core::MithriLogConfig mc;
    mc.use_typed_index = !g_no_typed_index;
    core::MithriLog system(mc);
    std::string effective = withTypedFlags(query_text);
    Status st = system.recover(img_path);
    if (!st.isOk()) {
        std::fprintf(stderr, "mount: %s\n", st.toString().c_str());
        return 1;
    }
    // The plan attaches after the mount so injection hits only the
    // query path, not the recovery reads.
    std::unique_ptr<fault::FaultPlan> plan;
    if (!g_fault_spec.empty()) {
        fault::FaultPlanConfig fc;
        st = fault::FaultPlan::parse(g_fault_spec, &fc);
        if (!st.isOk()) {
            std::fprintf(stderr, "fault-plan: %s\n",
                         st.toString().c_str());
            return 2;
        }
        plan = std::make_unique<fault::FaultPlan>(fc, &system.metrics());
        system.ssd().attachFaultPlan(plan.get());
    }
    core::QueryResult r;
    st = system.run(effective, &r);
    if (!st.isOk()) {
        std::fprintf(stderr, "query: %s\n", st.toString().c_str());
        return 1;
    }
    const core::QueryBreakdown &b = r.breakdown;
    std::printf("%llu matches (%llu/%llu pages%s%s%s%s%s); modeled "
                "%.3f ms, effective %s\n",
                static_cast<unsigned long long>(r.matched_lines),
                static_cast<unsigned long long>(b.pages_scanned),
                static_cast<unsigned long long>(b.pages_total),
                b.planned_full_scan ? ", planner: full scan" : "",
                b.used_fallback ? ", software fallback" : "",
                b.degraded_index_scan ? ", degraded: index" : "",
                b.degraded_software_scan ? ", degraded: software" : "",
                b.degraded_typed_scan ? ", degraded: typed scan" : "",
                b.total_time.toSeconds() * 1e3,
                humanBandwidth(r.effectiveThroughput(system.rawBytes()))
                    .c_str());
    std::printf("breakdown: %s\n", b.toJson().c_str());
    for (size_t i = 0; i < r.lines.size() && i < 10; ++i) {
        std::printf("%s\n", r.lines[i].text.c_str());
    }
    if (r.lines.size() > 10) {
        std::printf("... and %zu more\n", r.lines.size() - 10);
    }
    return g_obs.write(system);
}

/** End-to-end pass through the service layer: concurrent ingest of
 *  the log file into --shards partitions, one query fanned out over
 *  all of them, deterministic merge. */
int
cmdSvc(const std::string &log_path, const std::string &query_text)
{
    std::string text;
    if (!readFile(log_path, &text)) {
        return 1;
    }
    svc::LogServiceConfig cfg;
    cfg.shards = g_shards;
    cfg.threads = g_threads;
    cfg.fault_spec = g_fault_spec;
    cfg.checkpoint_every_pages = g_checkpoint_every;
    if (!g_fault_spec.empty()) {
        // Validate up front: LogService asserts on a malformed spec.
        fault::FaultPlanConfig fc;
        Status ps = fault::FaultPlan::parse(g_fault_spec, &fc);
        if (!ps.isOk()) {
            std::fprintf(stderr, "fault-plan: %s\n",
                         ps.toString().c_str());
            return 2;
        }
    }
    svc::LogService service(cfg);

    WallTimer timer;
    size_t start = 0;
    uint64_t backpressure_waits = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            end = text.size();
        }
        std::string_view line(text.data() + start, end - start);
        Status st = service.append(line);
        if (st.code() == StatusCode::kResourceExhausted) {
            ++backpressure_waits;
            service.drain(); // admission reopens once applied
            continue;        // retry the same line
        }
        if (!st.isOk()) {
            std::fprintf(stderr, "append: %s\n", st.toString().c_str());
            return 1;
        }
        start = end + 1;
    }
    Status st = service.flush();
    if (!st.isOk()) {
        std::fprintf(stderr, "flush: %s\n", st.toString().c_str());
        return 1;
    }
    double ingest_seconds = timer.seconds();

    svc::ServiceQueryResult r;
    st = service.query(withTypedFlags(query_text), &r);
    if (!st.isOk()) {
        std::fprintf(stderr, "query: %s\n", st.toString().c_str());
        return 1;
    }
    std::printf("service %zu shards x %zu threads: ingested %llu "
                "lines in %.2fs (%llu backpressure waits)\n",
                service.shardCount(), service.threadCount(),
                static_cast<unsigned long long>(service.lineCount()),
                ingest_seconds,
                static_cast<unsigned long long>(backpressure_waits));
    std::printf("%llu matches (%llu/%llu pages over all shards); "
                "modeled fan-out %.3f ms, imbalance %.1f%%\n",
                static_cast<unsigned long long>(r.matched_lines),
                static_cast<unsigned long long>(r.breakdown.pages_scanned),
                static_cast<unsigned long long>(r.breakdown.pages_total),
                r.total_time.toSeconds() * 1e3, r.shardImbalancePct());
    for (size_t i = 0; i < r.lines.size() && i < 10; ++i) {
        std::printf("%s\n", r.lines[i].text.c_str());
    }
    if (r.lines.size() > 10) {
        std::printf("... and %zu more\n", r.lines.size() - 10);
    }
    obs::JsonRecord("cli_svc")
        .field("shards", static_cast<uint64_t>(service.shardCount()))
        .field("threads", static_cast<uint64_t>(service.threadCount()))
        .field("lines", service.lineCount())
        .field("ingest_wall_seconds", ingest_seconds)
        .field("backpressure_waits", backpressure_waits)
        .field("matched_lines", r.matched_lines)
        .field("fanout_modeled_ps", r.total_time.ps())
        .field("shard_imbalance_pct", r.shardImbalancePct())
        .field("readonly_shards",
               static_cast<uint64_t>(service.readonlyShards()))
        .field("checkpoints",
               service.metrics().counter("svc.checkpoints").value())
        .emit();
    return g_obs.write(service.metrics(), service.tracer());
}

/** Open-loop soak run: a seeded arrival schedule of mixed ingest and
 *  query traffic against the service layer, reported as modeled
 *  (SimTime-domain) tail quantiles — deterministic for a given seed,
 *  shape, and service shape. */
int
cmdSoak()
{
    soak::SoakConfig cfg;
    Status st = soak::parseShape(g_soak_shape, &cfg.shape);
    if (!st.isOk()) {
        std::fprintf(stderr, "shape: %s\n", st.toString().c_str());
        return 2;
    }
    cfg.seed = g_soak_seed;
    cfg.duration_s = g_soak_duration;
    cfg.query_qps = g_soak_qps;
    cfg.shards = g_shards;
    cfg.threads = g_threads;
    cfg.checkpoint_every_pages = g_checkpoint_every;

    // Calibrate the offered rate to the measured closed-loop capacity
    // so the run is loaded but stable on any model parameters.
    double capacity = 0.0;
    st = soak::estimateIngestCapacity(cfg, &capacity);
    if (!st.isOk()) {
        std::fprintf(stderr, "capacity: %s\n", st.toString().c_str());
        return 1;
    }
    cfg.ingest_lps = capacity * 0.7;

    soak::SoakDriver driver(cfg);
    soak::SoakReport report;
    st = driver.run(&report);
    if (!st.isOk()) {
        std::fprintf(stderr, "soak: %s\n", st.toString().c_str());
        return 1;
    }

    std::printf("soak %s %.2fs seed %llu, %zu shards x %zu threads, "
                "offered %.0f lines/s + %.0f q/s\n",
                g_soak_shape.c_str(), cfg.duration_s,
                static_cast<unsigned long long>(cfg.seed), cfg.shards,
                cfg.threads, cfg.ingest_lps, cfg.query_qps);
    std::printf("offered %llu accepted %llu dropped %llu (drop rate "
                "%.2f%%), %llu queries, %llu matches\n",
                static_cast<unsigned long long>(report.offered_lines),
                static_cast<unsigned long long>(report.accepted_lines),
                static_cast<unsigned long long>(report.dropped_lines),
                report.drop_rate * 100.0,
                static_cast<unsigned long long>(
                    report.completed_queries),
                static_cast<unsigned long long>(report.matched_lines));
    std::printf("ingest e2e p50/p99/p999: %.1f / %.1f / %.1f us "
                "(modeled)\n",
                static_cast<double>(report.ingest_e2e_ps.p50) / 1e6,
                static_cast<double>(report.ingest_e2e_ps.p99) / 1e6,
                static_cast<double>(report.ingest_e2e_ps.p999) / 1e6);
    std::printf("query  e2e p50/p99/p999: %.1f / %.1f / %.1f us "
                "(modeled)\n",
                static_cast<double>(report.query_e2e_ps.p50) / 1e6,
                static_cast<double>(report.query_e2e_ps.p99) / 1e6,
                static_cast<double>(report.query_e2e_ps.p999) / 1e6);

    obs::JsonRecord("cli_soak")
        .field("shape", g_soak_shape)
        .field("duration_s", cfg.duration_s)
        .field("seed", cfg.seed)
        .field("shards", static_cast<uint64_t>(cfg.shards))
        .field("threads", static_cast<uint64_t>(cfg.threads))
        .field("capacity_lps", capacity)
        .field("offered_lps", cfg.ingest_lps)
        .field("query_qps", cfg.query_qps)
        .field("offered_lines", report.offered_lines)
        .field("accepted_lines", report.accepted_lines)
        .field("dropped_lines", report.dropped_lines)
        .field("drop_rate", report.drop_rate)
        .field("completed_queries", report.completed_queries)
        .field("matched_lines", report.matched_lines)
        .field("ingest_e2e_p50_ps", report.ingest_e2e_ps.p50)
        .field("ingest_e2e_p99_ps", report.ingest_e2e_ps.p99)
        .field("ingest_e2e_p999_ps", report.ingest_e2e_ps.p999)
        .field("query_e2e_p50_ps", report.query_e2e_ps.p50)
        .field("query_e2e_p99_ps", report.query_e2e_ps.p99)
        .field("query_e2e_p999_ps", report.query_e2e_ps.p999)
        .emit();
    return g_obs.write(driver.metrics(), driver.service().tracer());
}

int
cmdTemplates(const std::string &log_path, size_t show)
{
    std::string text;
    if (!readFile(log_path, &text)) {
        return 1;
    }
    templates::FtTree tree = templates::FtTree::build(text, {});
    auto tpls = tree.extractTemplates();
    std::printf("%zu templates (showing %zu):\n", tpls.size(),
                std::min(show, tpls.size()));
    for (size_t i = 0; i < tpls.size() && i < show; ++i) {
        std::string joined;
        for (const std::string &tok : tpls[i].tokens) {
            joined += tok + " ";
        }
        std::printf("  %6llu  %s\n",
                    static_cast<unsigned long long>(tpls[i].support),
                    joined.c_str());
    }
    return 0;
}

int
cmdStat(const std::string &img_path)
{
    core::MithriLog system;
    Status st = system.recover(img_path);
    if (!st.isOk()) {
        std::fprintf(stderr, "mount: %s\n", st.toString().c_str());
        return 1;
    }
    std::printf("lines:            %llu\n",
                static_cast<unsigned long long>(system.lineCount()));
    std::printf("raw bytes:        %s\n",
                humanBytes(static_cast<double>(system.rawBytes()))
                    .c_str());
    std::printf("data pages:       %llu\n",
                static_cast<unsigned long long>(system.dataPageCount()));
    std::printf("compression:      %.2fx\n", system.compressionRatio());
    // Logical ids include every id ever burned (freed ids are never
    // reused); live pages are the physical slots the device holds.
    const storage::PageStore &store = system.ssd().store();
    std::printf("logical ids:      %llu\n",
                static_cast<unsigned long long>(store.pageCount()));
    std::printf("live pages:       %llu\n",
                static_cast<unsigned long long>(
                    store.physicalSlotCount() - store.freeSlotCount()));
    std::printf("index pages:      %llu\n",
                static_cast<unsigned long long>(
                    system.metrics().counterValue(
                        "index.leaf_pages_allocated") +
                    system.metrics().counterValue(
                        "index.index_pages_allocated")));
    std::printf("index memory:     %s\n",
                humanBytes(static_cast<double>(
                    system.index().memoryFootprint())).c_str());
    std::printf("index snapshots:  %zu\n",
                system.index().snapshots().size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the observability flags anywhere on the line; the
    // subcommands then see only their positional arguments.
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        std::string_view a = argv[i];
        if (a.rfind("--metrics-out=", 0) == 0) {
            g_obs.metrics_path = a.substr(strlen("--metrics-out="));
        } else if (a.rfind("--trace-out=", 0) == 0) {
            g_obs.trace_path = a.substr(strlen("--trace-out="));
        } else if (a.rfind("--fault-plan=", 0) == 0) {
            g_fault_spec = a.substr(strlen("--fault-plan="));
        } else if (a.rfind("--checkpoint-every=", 0) == 0) {
            g_checkpoint_every = std::stoull(
                std::string(a.substr(strlen("--checkpoint-every="))));
        } else if (a.rfind("--shards=", 0) == 0) {
            g_shards = std::stoull(
                std::string(a.substr(strlen("--shards="))));
        } else if (a.rfind("--threads=", 0) == 0) {
            g_threads = std::stoull(
                std::string(a.substr(strlen("--threads="))));
        } else if (a.rfind("--shape=", 0) == 0) {
            g_soak_shape = a.substr(strlen("--shape="));
        } else if (a.rfind("--duration=", 0) == 0) {
            g_soak_duration = std::stod(
                std::string(a.substr(strlen("--duration="))));
        } else if (a.rfind("--seed=", 0) == 0) {
            g_soak_seed = std::stoull(
                std::string(a.substr(strlen("--seed="))));
        } else if (a.rfind("--qps=", 0) == 0) {
            g_soak_qps = std::stod(
                std::string(a.substr(strlen("--qps="))));
        } else if (a.rfind("--ip=", 0) == 0) {
            g_flag_ip = a.substr(strlen("--ip="));
        } else if (a.rfind("--id=", 0) == 0) {
            g_flag_id = a.substr(strlen("--id="));
        } else if (a.rfind("--window=", 0) == 0) {
            g_flag_window = a.substr(strlen("--window="));
        } else if (a == "--no-typed-index") {
            g_no_typed_index = true;
        } else {
            args.push_back(argv[i]);
        }
    }
    argc = static_cast<int>(args.size());
    argv = args.data();

    if (argc < 2) {
        return usage();
    }
    std::string cmd = argv[1];
    if (cmd == "generate" && argc == 5) {
        return cmdGenerate(argv[2], argv[3], argv[4]);
    }
    if (cmd == "ingest" && argc == 4) {
        return cmdIngest(argv[2], argv[3]);
    }
    if (cmd == "query" && (argc == 3 || argc == 4)) {
        // With only typed flags the positional query may be omitted:
        //   mithril_cli query in.img --ip=10.0.0.0/8
        if (argc == 3 && g_flag_ip.empty() && g_flag_id.empty() &&
            g_flag_window.empty()) {
            return usage();
        }
        return cmdQuery(argv[2], argc == 4 ? argv[3] : "");
    }
    if (cmd == "svc" && argc == 4) {
        return cmdSvc(argv[2], argv[3]);
    }
    if (cmd == "templates" && (argc == 3 || argc == 4)) {
        return cmdTemplates(argv[2],
                            argc == 4 ? std::stoull(argv[3]) : 10);
    }
    if (cmd == "stat" && argc == 3) {
        return cmdStat(argv[2]);
    }
    if (cmd == "soak" && argc == 2) {
        return cmdSoak();
    }
    return usage();
}
