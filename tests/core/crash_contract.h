/**
 * @file
 * The crash-consistency contract (DESIGN.md §10) as one check, and the
 * cut harness that CrashRecoveryTest and CheckpointTest sweep with. A
 * deterministic power cut kills the device; the dumped NAND recovers
 * on a fresh system, and contractViolations() reports every way the
 * outcome breaks the contract:
 *
 *   durability:  recovered lines R >= acknowledged (durable) lines A;
 *   prefix:      R <= the lines fed, and every contract query keeps
 *                exactly the lines query::SoftwareMatcher keeps over
 *                the first R lines of the ingest stream — no phantom
 *                and no missing match;
 *   determinism: a replay of the cut dumps a byte-identical device
 *                image and recovers to the same outcome.
 */
#ifndef MITHRIL_TESTS_CORE_CRASH_CONTRACT_H
#define MITHRIL_TESTS_CORE_CRASH_CONTRACT_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/mithrilog.h"
#include "fault/fault_plan.h"
#include "loggen/log_generator.h"
#include "query/matcher.h"
#include "query/parser.h"

namespace mithril::core::crash {

using Lines = std::span<const std::string>;

/** Life 1 of the sweeps ingests the first 600 Spirit2 lines, life 2
 *  the next 300. */
constexpr size_t kLife1Lines = 600;
constexpr size_t kLife2Lines = 300;

inline const std::vector<std::string> &
spirit2()
{
    static const std::vector<std::string> lines = [] {
        loggen::LogGenerator gen(loggen::datasetByName("Spirit2"));
        std::vector<std::string> out;
        for (size_t i = 0; i < kLife1Lines + kLife2Lines; ++i) {
            out.push_back(gen.line());
        }
        return out;
    }();
    return lines;
}

inline Lines
life1Corpus()
{
    return Lines(spirit2()).first(kLife1Lines);
}

inline Lines
life2Corpus()
{
    return Lines(spirit2()).subspan(kLife1Lines);
}

/** The contract queries: a mid-frequency token, whose answer changes
 *  as the prefix grows, and one on every Spirit2 line, whose answer is
 *  the prefix itself. */
inline constexpr std::string_view kContractQueries[] = {"packet", "Dec"};

using Kept = std::vector<std::vector<std::string>>;

/** Line texts each contract query keeps over @p store. */
inline Kept
keptLines(MithriLog *store)
{
    Kept kept;
    for (std::string_view text : kContractQueries) {
        QueryResult r;
        Status st = store->run(text, &r);
        EXPECT_TRUE(st.isOk()) << text << ": " << st.toString();
        std::vector<std::string> &out = kept.emplace_back();
        for (const accel::KeptLine &line : r.lines) {
            out.push_back(line.text);
        }
    }
    return kept;
}

/** Line texts each contract query keeps over @p prefix, by the
 *  software matcher. */
inline Kept
oracle(Lines prefix)
{
    Kept kept;
    for (std::string_view text : kContractQueries) {
        query::Query q;
        Status st = query::parseQuery(text, &q);
        EXPECT_TRUE(st.isOk()) << text << ": " << st.toString();
        query::SoftwareMatcher matcher(q);
        std::vector<std::string> &out = kept.emplace_back();
        for (const std::string &line : prefix) {
            if (matcher.matches(line)) {
                out.push_back(line);
            }
        }
    }
    return kept;
}

/**
 * @p kept with each query's lines sorted. The accelerator returns a
 * query's kept lines pipeline by pipeline, not in ingest order (see
 * QueryResult::line_numbers), so the oracle compares them as multisets.
 */
inline Kept
sorted(Kept kept)
{
    for (std::vector<std::string> &lines : kept) {
        std::sort(lines.begin(), lines.end());
    }
    return kept;
}

/** Device-image bytes of @p path. */
inline std::string
readImage(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Feeds @p lines to @p log, then seals it. */
inline Status
ingestAndSeal(MithriLog *log, Lines lines)
{
    for (const std::string &line : lines) {
        MITHRIL_RETURN_IF_ERROR(log->ingestLine(line));
    }
    return log->seal();
}

/** What one run left behind, as the contract sees it. A run whose cut
 *  never fired reports its live store in the same fields. */
struct CutOutcome {
    bool fired = false;          ///< the cut point was reached
    uint64_t writes = 0;         ///< device programs the run issued
    uint64_t checkpoints = 0;    ///< checkpoints the run completed
    uint64_t acknowledged = 0;   ///< durable lines when the run stopped
    std::string dump;            ///< the dead device's image
    uint64_t recovered = 0;      ///< lines in the recovered store
    Kept kept;                   ///< its answer to each contract query
    uint64_t snapshot_records = 0;  ///< the mount's replayed snapshot
    uint64_t chain_records = 0;     ///< the mount's replayed chain tail
};

/**
 * Every way @p o breaks the contract over the ingest stream @p stream,
 * one message per violation. @p replay, when given, is the same cut
 * run (or mounted) again, which must match @p o exactly.
 */
inline std::vector<std::string>
contractViolations(const CutOutcome &o, Lines stream,
                   const CutOutcome *replay = nullptr)
{
    std::vector<std::string> v;
    const std::string at = " (A=" + std::to_string(o.acknowledged) +
                           " R=" + std::to_string(o.recovered) + ")";
    if (o.recovered < o.acknowledged) {
        v.push_back("lost acknowledged lines" + at);
    }
    if (o.recovered > stream.size()) {
        v.push_back("recovered more than the " +
                    std::to_string(stream.size()) + " lines fed" + at);
    } else if (sorted(o.kept) != sorted(oracle(stream.first(o.recovered)))) {
        v.push_back("kept lines differ from the prefix oracle" + at);
    }
    if (replay != nullptr &&
        (replay->fired != o.fired || replay->dump != o.dump ||
         replay->acknowledged != o.acknowledged ||
         replay->recovered != o.recovered || replay->kept != o.kept)) {
        v.push_back("replay diverged" + at);
    }
    return v;
}

inline const std::vector<std::string> kNone;

/** Test fixture that runs cuts. Its two image paths are per test and
 *  per process, so two runs of one test never share a file. */
class CutHarness : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const ::testing::TestInfo *test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string stem = ::testing::TempDir() + "mithrilog_" +
                           test->test_suite_name() + "_" + test->name() +
                           "_" + std::to_string(::getpid());
        path_ = stem + ".img";
        path2_ = stem + "_g2.img";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
        std::remove(path2_.c_str());
    }

    /** Recovers the device image at @p path on a fresh system into the
     *  mount fields of @p out. */
    static void
    mount(const std::string &path, CutOutcome *out)
    {
        MithriLog mounted;
        EXPECT_TRUE(mounted.recover(path).isOk()) << path;
        EXPECT_TRUE(mounted.recovered());
        out->recovered = mounted.lineCount();
        out->kept = keptLines(&mounted);
        out->snapshot_records = mounted.recoveredSnapshotRecords();
        out->chain_records = mounted.recoveredChainRecords();
    }

    /** The outcome of @p log stopping with @p st under @p plan (whose
     *  write ordinals start at @p base): a dead device is dumped to
     *  @p path and mounted; a live store reports itself. */
    static CutOutcome
    outcome(MithriLog *log, const Status &st,
            const fault::FaultPlan &plan, uint64_t base,
            const std::string &path)
    {
        CutOutcome out;
        out.writes = plan.counters().write_draws - base;
        out.checkpoints = log->checkpoints();
        out.acknowledged = log->durableLineCount();
        if (st.code() != StatusCode::kUnavailable) {
            out.recovered = log->lineCount();
            out.kept = keptLines(log);
            return out;
        }
        out.fired = true;
        EXPECT_TRUE(log->saveDeviceImage(path).isOk());
        out.dump = readImage(path);
        mount(path, &out);
        return out;
    }

    /** Ingests @p lines into a store built with @p config and seals
     *  it, under a power cut at write @p cut_after (0: a no-op plan);
     *  a fired cut leaves its dump at path_. */
    CutOutcome
    runCut(const MithriLogConfig &config, Lines lines, uint64_t cut_after)
    {
        fault::FaultPlanConfig fc;
        fc.seed = 1;
        fc.power_cut_after_writes = cut_after;
        fault::FaultPlan plan(fc);

        MithriLog log(config);
        log.ssd().attachFaultPlan(&plan);
        Status st = ingestAndSeal(&log, lines);
        EXPECT_TRUE(st.isOk() || st.code() == StatusCode::kUnavailable)
            << st.toString();
        return outcome(&log, st, plan, 0, path_);
    }

    /**
     * Cuts life 1 under @p config at every write of its clean run, and
     * checks the contract for the clean run and for each cut. With a
     * checkpoint policy the clean run must checkpoint at least three
     * times, and the last cut, past many durable checkpoints, must
     * mount from a snapshot plus a short chain tail.
     */
    void
    sweepSingleLife(const MithriLogConfig &config)
    {
        const Lines lines = life1Corpus();
        const CutOutcome clean = runCut(config, lines, 0);
        ASSERT_FALSE(clean.fired);
        EXPECT_EQ(contractViolations(clean, lines), kNone);
        const uint64_t writes = clean.writes;
        ASSERT_GE(writes, 4u);
        RecordProperty("writes", static_cast<int>(writes));
        const bool checkpointing = config.checkpoint_every_pages > 0;
        if (checkpointing) {
            EXPECT_GE(clean.checkpoints, 3u);
        }

        for (uint64_t k = 1; k <= writes; ++k) {
            CutOutcome o = runCut(config, lines, k);
            ASSERT_TRUE(o.fired) << "k=" << k << " of " << writes;
            EXPECT_EQ(contractViolations(o, lines), kNone) << "k=" << k;
            if (checkpointing && k == writes) {
                EXPECT_GT(o.snapshot_records, 0u);
                EXPECT_LE(o.chain_records, 64u);
            }
        }
    }

    std::string path_;
    std::string path2_;
};

} // namespace mithril::core::crash

#endif // MITHRIL_TESTS_CORE_CRASH_CONTRACT_H
