/**
 * @file
 * End-to-end fault determinism: two systems built from the same corpus
 * with the same FaultPlan seed must produce byte-identical query
 * outcomes — Status, matches, degradation flags, fault counters, and
 * modeled SimTime — across the whole query sequence. This is the
 * property that makes fault-injection results debuggable and CI-able.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mithrilog.h"
#include "fault/fault_plan.h"
#include "loggen/log_generator.h"
#include "query/parser.h"

namespace mithril::core {
namespace {

std::string
corpus()
{
    std::string text;
    for (int i = 0; i < 4000; ++i) {
        text += "svc" + std::to_string(i % 7) + " request " +
                std::to_string(i) +
                (i % 9 == 0 ? " error timeout\n" : " ok fast\n");
    }
    return text;
}

fault::FaultPlanConfig
aggressivePlan()
{
    fault::FaultPlanConfig cfg;
    cfg.seed = 1234;
    cfg.bit_error_rate = 1e-5;
    cfg.uncorrectable_rate = 0.01;
    cfg.timeout_rate = 0.05;
    cfg.block_garble_rate = 0.005;
    return cfg;
}

struct RunOutcome {
    std::vector<Status> statuses;
    std::vector<uint64_t> matches;
    std::vector<uint64_t> pages_dropped;
    std::vector<uint64_t> retries;
    std::vector<bool> degraded_index;
    std::vector<bool> degraded_software;
    std::vector<uint64_t> total_ps;
    fault::FaultCounters fault_counters;
};

RunOutcome
runSequence(const fault::FaultPlanConfig &plan_cfg)
{
    MithriLog system;
    EXPECT_TRUE(system.ingestText(corpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());

    fault::FaultPlan plan(plan_cfg);
    system.ssd().attachFaultPlan(&plan);

    RunOutcome run;
    const char *queries[] = {"error", "timeout & error", "svc3 & ok",
                             "request", "error | fast"};
    for (const char *text : queries) {
        query::Query q;
        EXPECT_TRUE(query::parseQuery(text, &q).isOk());
        QueryResult r;
        Status st = system.run(q, &r);
        run.statuses.push_back(st);
        run.matches.push_back(r.matched_lines);
        run.pages_dropped.push_back(r.breakdown.pages_dropped);
        run.retries.push_back(r.breakdown.read_retries);
        run.degraded_index.push_back(r.breakdown.degraded_index_scan);
        run.degraded_software.push_back(r.breakdown.degraded_software_scan);
        run.total_ps.push_back(r.breakdown.total_time.ps());
    }
    run.fault_counters = plan.counters();
    system.ssd().attachFaultPlan(nullptr);
    return run;
}

TEST(FaultDeterminismTest, SamePlanSeedReproducesEverything)
{
    RunOutcome a = runSequence(aggressivePlan());
    RunOutcome b = runSequence(aggressivePlan());

    ASSERT_EQ(a.statuses.size(), b.statuses.size());
    for (size_t i = 0; i < a.statuses.size(); ++i) {
        EXPECT_EQ(a.statuses[i].code(), b.statuses[i].code()) << i;
        EXPECT_EQ(a.statuses[i].toString(), b.statuses[i].toString())
            << i;
    }
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.pages_dropped, b.pages_dropped);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.degraded_index, b.degraded_index);
    EXPECT_EQ(a.degraded_software, b.degraded_software);
    EXPECT_EQ(a.total_ps, b.total_ps);

    EXPECT_EQ(a.fault_counters.draws, b.fault_counters.draws);
    EXPECT_EQ(a.fault_counters.timeouts, b.fault_counters.timeouts);
    EXPECT_EQ(a.fault_counters.uncorrectable,
              b.fault_counters.uncorrectable);
    EXPECT_EQ(a.fault_counters.bits_flipped,
              b.fault_counters.bits_flipped);
    EXPECT_EQ(a.fault_counters.blocks_garbled,
              b.fault_counters.blocks_garbled);

    // The plan must have actually injected something, or this test
    // proves nothing.
    EXPECT_GT(a.fault_counters.draws, 0u);
    EXPECT_GT(a.fault_counters.timeouts + a.fault_counters.uncorrectable +
                  a.fault_counters.bits_flipped +
                  a.fault_counters.blocks_garbled,
              0u);
}

TEST(FaultDeterminismTest, DifferentSeedsDiverge)
{
    fault::FaultPlanConfig other = aggressivePlan();
    other.seed = 99;
    RunOutcome a = runSequence(aggressivePlan());
    RunOutcome b = runSequence(other);
    // Same rates, different seed: the fault tallies should differ
    // somewhere (draws match — same read sequence feeds both plans —
    // but outcomes should not all coincide).
    EXPECT_TRUE(a.fault_counters.timeouts != b.fault_counters.timeouts ||
                a.fault_counters.bits_flipped !=
                    b.fault_counters.bits_flipped ||
                a.fault_counters.uncorrectable !=
                    b.fault_counters.uncorrectable ||
                a.fault_counters.blocks_garbled !=
                    b.fault_counters.blocks_garbled);
}

TEST(FaultDeterminismTest, QueriesStayCorrectUnderAcceptanceRates)
{
    // The ISSUE acceptance condition: 1e-6 BER plus 1% timeouts must
    // leave every query answer exactly correct (recovered by retries /
    // CRC re-reads, or answered via a documented degraded path).
    MithriLog clean_system;
    ASSERT_TRUE(clean_system.ingestText(corpus()).isOk());
    EXPECT_TRUE(clean_system.flush().isOk());

    MithriLog faulted_system;
    ASSERT_TRUE(faulted_system.ingestText(corpus()).isOk());
    EXPECT_TRUE(faulted_system.flush().isOk());
    fault::FaultPlanConfig cfg;
    cfg.seed = 42;
    cfg.bit_error_rate = 1e-6;
    cfg.timeout_rate = 0.01;
    fault::FaultPlan plan(cfg);
    faulted_system.ssd().attachFaultPlan(&plan);

    const char *queries[] = {"error", "timeout & error", "svc3 & ok",
                             "error | fast"};
    for (const char *text : queries) {
        query::Query q;
        ASSERT_TRUE(query::parseQuery(text, &q).isOk());
        QueryResult clean_r, faulted_r;
        ASSERT_TRUE(clean_system.run(q, &clean_r).isOk());
        Status st = faulted_system.run(q, &faulted_r);
        ASSERT_TRUE(st.isOk()) << text << ": " << st.toString();
        EXPECT_EQ(faulted_r.matched_lines, clean_r.matched_lines)
            << text;
    }
    faulted_system.ssd().attachFaultPlan(nullptr);

    // The fault table: silent corruption, command timeouts and a mixed
    // plan over a sealed 2 MB Spirit2 store, for a keyword query and a
    // typed one (DESIGN.md §15). Every row answers exactly what the
    // clean run answers, by retries, CRC re-reads or a degraded path.
    MithriLog store;
    loggen::LogGenerator gen(loggen::datasetByName("Spirit2"));
    ASSERT_TRUE(store.ingestText(gen.generate(2 << 20)).isOk());
    ASSERT_TRUE(store.seal().isOk());
    const char *corruption = "seed=3,ber=1e-6,garble=0.002";
    const char *timeout = "seed=5,timeout=0.01";
    const char *mixed =
        "seed=7,ber=1e-6,ecc=0.002,timeout=0.01,garble=0.001";
    const char *typed = "ip:10.0.0.0/8 & error";
    const std::pair<const char *, const char *> table[] = {
        {"error", corruption}, {"error", timeout}, {"error", mixed},
        {typed, corruption},   {typed, mixed},
    };
    auto texts = [](const QueryResult &r) {
        std::vector<std::string> out;
        for (const accel::KeptLine &line : r.lines) {
            out.push_back(line.text);
        }
        return out;
    };
    const obs::MetricsRegistry &metrics = store.metrics();
    uint64_t injected = 0;
    for (const auto &[text, spec] : table) {
        const uint64_t draws = metrics.counterValue("fault.draws");
        QueryResult clean_r;
        Status st = store.run(text, &clean_r);
        ASSERT_TRUE(st.isOk()) << text << ": " << st.toString();
        EXPECT_GT(clean_r.matched_lines, 0u) << text;
        // A run with no plan draws nothing.
        EXPECT_EQ(metrics.counterValue("fault.draws"), draws) << text;

        fault::FaultPlanConfig cfg;
        ASSERT_TRUE(fault::FaultPlan::parse(spec, &cfg).isOk()) << spec;
        fault::FaultPlan plan(cfg, &store.metrics());
        store.ssd().attachFaultPlan(&plan);
        QueryResult faulted_r;
        st = store.run(text, &faulted_r);
        store.ssd().attachFaultPlan(nullptr);
        ASSERT_TRUE(st.isOk()) << text << " under " << spec << ": "
                               << st.toString();
        EXPECT_EQ(faulted_r.matched_lines, clean_r.matched_lines)
            << text << " under " << spec;
        EXPECT_EQ(texts(faulted_r), texts(clean_r))
            << text << " under " << spec;
        EXPECT_GT(plan.counters().draws, 0u) << text << " under " << spec;
        injected += plan.counters().timeouts +
                    plan.counters().uncorrectable +
                    plan.counters().bits_flipped +
                    plan.counters().blocks_garbled;
    }
    EXPECT_GT(injected, 0u) << "the table injected no fault";
    EXPECT_GT(metrics.counterValue("core.typed_queries"), 0u)
        << "the typed query bypassed the typed tier";
    const obs::MetricsSnapshot snap = metrics.snapshot();
    for (const char *key :
         {"fault.timeouts", "fault.uncorrectable", "fault.bits_flipped",
          "fault.blocks_garbled", "ssd.read_retries",
          "core.degraded_index_scans", "core.degraded_software_scans",
          "core.pages_dropped"}) {
        EXPECT_EQ(snap.counters.count(key), 1u) << key;
    }
}

} // namespace
} // namespace mithril::core
