/**
 * @file
 * End-to-end oracle for the typed query tier (DESIGN.md §15): on the
 * seeded incident scenario, the typed-index path must return results
 * byte-identical to a host-side full-scan oracle (the extractor
 * registry run over the raw text) under three mounts — clean, with a
 * deterministic fault plan attached, and after a power-cut crash plus
 * journal-replay recovery.
 */
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/mithrilog.h"
#include "fault/fault_plan.h"
#include "loggen/incident.h"
#include "typed/predicate.h"

namespace mithril::core {
namespace {

typed::Predicate
mustParse(std::string_view word)
{
    typed::Predicate p;
    Status st = typed::parsePredicate(word, &p);
    EXPECT_TRUE(st.isOk()) << st.toString();
    return p;
}

/** Host-side oracle: the extractor registry over the raw text — line
 *  numbers (0-based, ascending) whose bytes satisfy @p pred. */
std::vector<uint64_t>
oracleLines(const std::string &text, const typed::Predicate &pred)
{
    std::vector<uint64_t> lines;
    uint64_t line_no = 0;
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            end = text.size();
        }
        std::string_view line(text.data() + start, end - start);
        if (typed::lineMatches(line, pred)) {
            lines.push_back(line_no);
        }
        ++line_no;
        start = end + 1;
    }
    return lines;
}

/** The queries the oracle cross-checks on every mount. */
const char *const kPredicates[] = {
    "ip:192.0.2.77",     // exact attacker address
    "ip:192.0.2.64/26",  // subnet: attacker + decoy
    "id:f00dfeed8badc0de",
};

class TypedE2eTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        loggen::IncidentSpec spec;
        spec.background_bytes = 256 << 10;  // keep the suite quick
        text_ = loggen::generateIncident(spec, &truth_);
        // One file per test and per process: ctest runs the tests of
        // this suite concurrently, and each TearDown removes its path.
        path_ = ::testing::TempDir() + "typed_e2e_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + std::to_string(::getpid()) + ".img";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Runs every oracle predicate against @p system and asserts the
     *  result set is byte-identical to the host-side scan of
     *  @p corpus (which must be what the store holds). */
    void
    expectOracleEqual(MithriLog *system, const std::string &corpus,
                      const char *mount)
    {
        for (const char *word : kPredicates) {
            typed::Predicate pred = mustParse(word);
            std::vector<uint64_t> expected =
                oracleLines(corpus, pred);
            QueryResult r;
            Status st = system->run(word, &r);
            ASSERT_TRUE(st.isOk())
                << mount << " " << word << ": " << st.toString();
            EXPECT_EQ(r.line_numbers, expected)
                << mount << " " << word
                << ": typed result diverges from the host oracle";
            EXPECT_EQ(r.matched_lines, expected.size());
        }
    }

    std::string text_;
    loggen::IncidentGroundTruth truth_;
    std::string path_;
};

TEST_F(TypedE2eTest, CleanMountMatchesOracle)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(text_).isOk());
    ASSERT_TRUE(system.flush().isOk());
    expectOracleEqual(&system, text_, "clean");

    // The scenario's ground truth is itself oracle-consistent.
    typed::Predicate exact = mustParse(kPredicates[0]);
    EXPECT_EQ(oracleLines(text_, exact), truth_.attacker_lines);
}

TEST_F(TypedE2eTest, FaultPlanMountMatchesOracle)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(text_).isOk());
    ASSERT_TRUE(system.flush().isOk());

    // The fault-matrix corruption plan: silent bit flips and garbled
    // blocks on the read path. Retries (or degradation to the exact
    // typed scan) must keep results byte-identical — never short.
    fault::FaultPlanConfig fc;
    fc.seed = 3;
    fc.bit_error_rate = 1e-6;
    fc.block_garble_rate = 0.002;
    fault::FaultPlan plan(fc);
    system.ssd().attachFaultPlan(&plan);
    expectOracleEqual(&system, text_, "faulted");
}

TEST_F(TypedE2eTest, PostCrashRecoveryMatchesOracle)
{
    // Power-cut the device mid-ingest, dump the NAND, recover, and
    // check the typed tier over the surviving durable prefix.
    {
        MithriLog system;
        fault::FaultPlanConfig fc;
        fc.power_cut_after_writes = 12;
        fault::FaultPlan plan(fc);
        system.ssd().attachFaultPlan(&plan);
        Status st = system.ingestText(text_);
        ASSERT_EQ(st.code(), StatusCode::kUnavailable)
            << "cut ordinal never reached; corpus too small?";
        ASSERT_TRUE(system.saveDeviceImage(path_).isOk());
    }
    MithriLog mounted;
    ASSERT_TRUE(mounted.recover(path_).isOk());
    ASSERT_GT(mounted.lineCount(), 0u);

    // Recovery keeps the longest clean prefix of the corpus: the
    // oracle is the same host-side scan, truncated to the lines that
    // survived.
    std::string prefix;
    uint64_t keep = mounted.lineCount();
    size_t start = 0;
    while (keep > 0 && start < text_.size()) {
        size_t end = text_.find('\n', start);
        prefix.append(text_, start, end - start + 1);
        start = end + 1;
        --keep;
    }
    expectOracleEqual(&mounted, prefix, "recovered");

    // And the recovered typed path still agrees with the recovered
    // degraded baseline (use_typed_index off), the in-system dual of
    // the host oracle.
    MithriLogConfig scan_cfg;
    scan_cfg.use_typed_index = false;
    MithriLog baseline(scan_cfg);
    ASSERT_TRUE(baseline.recover(path_).isOk());
    for (const char *word : kPredicates) {
        QueryResult rt, rs;
        ASSERT_TRUE(mounted.run(word, &rt).isOk());
        ASSERT_TRUE(baseline.run(word, &rs).isOk());
        EXPECT_EQ(rt.line_numbers, rs.line_numbers) << word;
        ASSERT_EQ(rt.lines.size(), rs.lines.size()) << word;
        for (size_t i = 0; i < rt.lines.size(); ++i) {
            EXPECT_EQ(rt.lines[i].text, rs.lines[i].text)
                << word << " line " << i;
        }
    }
}

} // namespace
} // namespace mithril::core
