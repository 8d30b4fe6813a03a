/**
 * @file
 * Crash-consistency contract at the MithriLog API level (DESIGN.md
 * §10) — the in-process counterpart of tools/crash_matrix.sh. A
 * deterministic power cut kills the device mid-ingest; the dumped NAND
 * recovers on a fresh system and must satisfy:
 *
 *   durability:  recovered lines >= acknowledged (durable) lines;
 *   prefix:      the recovered store is exactly the first R lines of
 *                the ingest stream — every query answers the R-line
 *                prefix oracle, no phantom and no missing match;
 *   determinism: re-running the same cut reproduces acknowledged,
 *                recovered, and match counts bit-for-bit;
 *   completion:  a cut point past the last write never fires.
 *
 * Append-after-recovery (journal generations): a recovered store is
 * read-only until reopen(), which publishes the verified survivors as
 * a snapshot under the next generation. The same contract must then
 * hold across a SECOND cut — recovery replays snapshot + chain tail as
 * one logical prefix of the concatenated ingest stream — and repeated
 * recoveries stay byte-identical. A power cut inside reopen() replays
 * the pre-reopen store, and any number of reopen cycles still replays
 * one snapshot plus one tail.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/mithrilog.h"
#include "fault/fault_plan.h"
#include "query/parser.h"

namespace mithril::core {
namespace {

query::Query
mustParse(std::string_view text)
{
    query::Query q;
    Status st = query::parseQuery(text, &q);
    EXPECT_TRUE(st.isOk()) << st.toString();
    return q;
}

/** Fixed synthetic corpus: every line carries the common token
 *  `payload` plus a unique `seqN` token, so full-match and point
 *  queries both discriminate the recovered prefix. */
std::vector<std::string>
corpus(size_t lines)
{
    std::vector<std::string> out;
    out.reserve(lines);
    for (size_t i = 0; i < lines; ++i) {
        out.push_back("crash payload seq" + std::to_string(i) +
                      " filler text keeps pages turning over quickly");
    }
    return out;
}

/** Device-image bytes of @p path. */
std::string
readImage(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Copies the superblock slots (device pages 0 and 1) of image @p from
 *  over those of image @p to: what a superblock program that persisted
 *  none of its page leaves behind. */
void
restoreSuperblockSlots(const std::string &from, const std::string &to)
{
    constexpr size_t kHeaderBytes = 16;
    constexpr size_t kSlotBytes = 2 * 4096;
    std::string src = readImage(from);
    std::string dst = readImage(to);
    ASSERT_GE(src.size(), kHeaderBytes + kSlotBytes);
    ASSERT_GE(dst.size(), kHeaderBytes + kSlotBytes);
    dst.replace(kHeaderBytes, kSlotBytes, src, kHeaderBytes, kSlotBytes);
    std::ofstream(to, std::ios::binary) << dst;
}

/** Outcome of one power-cut run (all fields deterministic). */
struct CutOutcome {
    bool fired = false;          ///< the cut point was reached
    uint64_t acknowledged = 0;   ///< durable lines when the device died
    uint64_t recovered = 0;      ///< lines in the recovered store
    uint64_t matches = 0;        ///< "payload" matches after recovery
};

class CrashRecoveryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string stem = ::testing::TempDir() + "mithrilog_crash_" +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name();
        path_ = stem + ".img";
        path2_ = stem + "_g2.img";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
        std::remove(path2_.c_str());
    }

    /** Ingests the corpus under a power cut at write @p cut_after,
     *  dumps the dead device, recovers it, and reports the outcome. */
    CutOutcome
    runCut(const std::vector<std::string> &lines, uint64_t cut_after)
    {
        CutOutcome out;
        fault::FaultPlanConfig fc;
        fc.seed = 1;
        fc.power_cut_after_writes = cut_after;
        fault::FaultPlan plan(fc);

        MithriLog log;
        log.ssd().attachFaultPlan(&plan);
        Status st = Status::ok();
        for (const std::string &line : lines) {
            st = log.ingestLine(line);
            if (!st.isOk()) {
                break;
            }
        }
        if (st.isOk()) {
            st = log.flush();
        }
        if (st.isOk()) {
            // The cut point lies past the run's last device program.
            return out;
        }
        EXPECT_EQ(st.code(), StatusCode::kUnavailable)
            << st.toString();
        out.fired = true;
        out.acknowledged = log.durableLineCount();
        EXPECT_TRUE(log.saveDeviceImage(path_).isOk());

        MithriLog mounted;
        EXPECT_TRUE(mounted.recover(path_).isOk());
        EXPECT_TRUE(mounted.sealed());
        EXPECT_TRUE(mounted.recovered());
        out.recovered = mounted.lineCount();

        QueryResult r;
        EXPECT_TRUE(mounted.run(mustParse("payload"), &r).isOk());
        out.matches = r.matched_lines;

        // Prefix integrity: the boundary lines pin the cut exactly —
        // seq(R-1) must be present, seq(R) must not.
        if (out.recovered > 0) {
            QueryResult last;
            std::string q_last =
                "seq" + std::to_string(out.recovered - 1);
            EXPECT_TRUE(mounted.run(mustParse(q_last), &last).isOk());
            EXPECT_EQ(last.matched_lines, 1u) << q_last;
        }
        if (out.recovered < lines.size()) {
            QueryResult past;
            std::string q_past = "seq" + std::to_string(out.recovered);
            EXPECT_TRUE(mounted.run(mustParse(q_past), &past).isOk());
            EXPECT_EQ(past.matched_lines, 0u) << q_past;
        }
        return out;
    }

    /** Outcome of a two-generation run: cut at @p cut1, recover the
     *  dump, reopen under a fresh generation, resume with the rest of
     *  the corpus under globally monotone write ordinals, cut again at
     *  global ordinal cut1+cut2, recover again. */
    struct Cut2Outcome {
        bool fired = false;         ///< the second cut was reached
        uint64_t first_recovered = 0;
        uint64_t acknowledged = 0;  ///< durable lines at the 2nd cut
        uint64_t recovered = 0;     ///< lines after the 2nd recovery
        uint64_t matches = 0;
    };

    Cut2Outcome
    runCut2(const std::vector<std::string> &lines, size_t split,
            uint64_t cut1, uint64_t cut2)
    {
        Cut2Outcome out;
        std::vector<std::string> first_life(lines.begin(),
                                            lines.begin() + split);
        CutOutcome first = runCut(first_life, cut1);
        EXPECT_TRUE(first.fired) << "cut1=" << cut1;
        if (!first.fired) {
            return out;
        }
        out.first_recovered = first.recovered;

        // Second life: the write-ordinal stream continues at cut1, so
        // cut_after addresses the global ordinal cut1+cut2.
        fault::FaultPlanConfig fc;
        fc.seed = 1;
        fc.write_draw_base = cut1;
        fc.power_cut_after_writes = cut1 + cut2;
        fault::FaultPlan plan(fc);

        MithriLog log;
        EXPECT_TRUE(log.recover(path_).isOk());
        log.ssd().attachFaultPlan(&plan);
        Status st = log.reopen();
        if (st.isOk()) {
            EXPECT_FALSE(log.sealed());
            EXPECT_FALSE(log.recovered());
            // The client resumes from the recovered position (re-
            // feeding the unacknowledged tail), so the store stays a
            // prefix of the one logical ingest stream.
            for (size_t i = first.recovered;
                 i < lines.size() && st.isOk(); ++i) {
                st = log.ingestLine(lines[i]);
            }
            if (st.isOk()) {
                st = log.flush();
            }
        }
        if (st.isOk()) {
            // cut2 lies past the second life's last program.
            out.recovered = log.lineCount();
            return out;
        }
        EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.toString();
        out.fired = true;
        out.acknowledged = log.durableLineCount();
        EXPECT_TRUE(log.saveDeviceImage(path2_).isOk());

        MithriLog mounted;
        EXPECT_TRUE(mounted.recover(path2_).isOk());
        out.recovered = mounted.lineCount();

        QueryResult r;
        EXPECT_TRUE(mounted.run(mustParse("payload"), &r).isOk());
        out.matches = r.matched_lines;
        // Prefix integrity over the CONCATENATED stream: the chain
        // replays as one logical prefix, so the global seq boundary
        // pins the cut exactly.
        if (out.recovered > 0) {
            QueryResult last;
            std::string q_last =
                "seq" + std::to_string(out.recovered - 1);
            EXPECT_TRUE(mounted.run(mustParse(q_last), &last).isOk());
            EXPECT_EQ(last.matched_lines, 1u)
                << q_last << " cut=(" << cut1 << "," << cut2 << ")";
        }
        if (out.recovered < lines.size()) {
            QueryResult past;
            std::string q_past = "seq" + std::to_string(out.recovered);
            EXPECT_TRUE(mounted.run(mustParse(q_past), &past).isOk());
            EXPECT_EQ(past.matched_lines, 0u)
                << q_past << " cut=(" << cut1 << "," << cut2 << ")";
        }
        return out;
    }

    std::string path_;
    std::string path2_;
};

TEST_F(CrashRecoveryTest, PowerCutLosesNoAcknowledgedLine)
{
    std::vector<std::string> lines = corpus(2000);
    bool any_fired = false;
    for (uint64_t cut : {1ull, 2ull, 3ull, 5ull, 8ull}) {
        CutOutcome o = runCut(lines, cut);
        if (!o.fired) {
            continue;
        }
        any_fired = true;
        EXPECT_GE(o.recovered, o.acknowledged) << "cut_after=" << cut;
        EXPECT_LE(o.recovered, lines.size()) << "cut_after=" << cut;
        // Every recovered line carries `payload`: the full-match count
        // IS the prefix oracle.
        EXPECT_EQ(o.matches, o.recovered) << "cut_after=" << cut;
    }
    EXPECT_TRUE(any_fired)
        << "no cut point fired on a multi-page ingest";
}

TEST_F(CrashRecoveryTest, RecoveredStoreIsReadOnlyUntilReopen)
{
    std::vector<std::string> lines = corpus(2000);
    CutOutcome o = runCut(lines, 8);
    ASSERT_TRUE(o.fired);
    ASSERT_GT(o.recovered, 0u);

    // Remount once more and probe the append-after-recovery contract:
    // read-only before reopen(), a normal live store after.
    MithriLog mounted;
    ASSERT_TRUE(mounted.recover(path_).isOk());
    EXPECT_EQ(mounted.ingestLine("late arrival").code(),
              StatusCode::kInvalidArgument);
    QueryResult r;
    ASSERT_TRUE(mounted.run(mustParse("zzz_absent_token"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 0u);

    ASSERT_TRUE(mounted.reopen().isOk());
    EXPECT_FALSE(mounted.sealed());
    EXPECT_FALSE(mounted.recovered());
    EXPECT_GE(mounted.journalGeneration(), 2u);
    ASSERT_TRUE(
        mounted.ingestLine("crash payload postreopen arrival").isOk());
    ASSERT_TRUE(mounted.flush().isOk());
    EXPECT_EQ(mounted.lineCount(), o.recovered + 1);
    QueryResult after;
    ASSERT_TRUE(mounted.run(mustParse("postreopen"), &after).isOk());
    EXPECT_EQ(after.matched_lines, 1u);
}

TEST_F(CrashRecoveryTest, SecondGenerationCutLosesNoAcknowledgedLine)
{
    // In-process multi-generation matrix: the crash-consistency
    // contract holds at every (cut1, cut2) pair, over the concatenated
    // two-life ingest stream.
    std::vector<std::string> lines = corpus(3000);
    bool any_fired = false;
    for (uint64_t cut1 : {2ull, 4ull, 6ull}) {
        for (uint64_t cut2 : {1ull, 2ull, 3ull, 5ull, 9ull}) {
            Cut2Outcome o = runCut2(lines, 2000, cut1, cut2);
            if (!o.fired) {
                continue;
            }
            any_fired = true;
            EXPECT_GE(o.recovered, o.acknowledged)
                << "cut=(" << cut1 << "," << cut2 << ")";
            EXPECT_LE(o.recovered, lines.size())
                << "cut=(" << cut1 << "," << cut2 << ")";
            EXPECT_EQ(o.matches, o.recovered)
                << "cut=(" << cut1 << "," << cut2 << ")";
            // A cut during the reopen itself replays the pre-resume
            // state; anything later must keep the first life's prefix.
            EXPECT_GE(o.acknowledged, o.first_recovered)
                << "cut=(" << cut1 << "," << cut2 << ")";
        }
    }
    EXPECT_TRUE(any_fired)
        << "no second-generation cut fired across the grid";
}

TEST_F(CrashRecoveryTest, SecondGenerationCutReplaysBitForBit)
{
    std::vector<std::string> lines = corpus(3000);
    Cut2Outcome a = runCut2(lines, 2000, 4, 3);
    Cut2Outcome b = runCut2(lines, 2000, 4, 3);
    EXPECT_EQ(a.fired, b.fired);
    EXPECT_EQ(a.first_recovered, b.first_recovered);
    EXPECT_EQ(a.acknowledged, b.acknowledged);
    EXPECT_EQ(a.recovered, b.recovered);
    EXPECT_EQ(a.matches, b.matches);
}

TEST_F(CrashRecoveryTest, DoubleRecoverIsIdempotent)
{
    std::vector<std::string> lines = corpus(2000);
    CutOutcome o = runCut(lines, 8);
    ASSERT_TRUE(o.fired);
    ASSERT_GT(o.recovered, 0u);

    // The same crash image recovers to the same store, however many
    // times it is mounted — recovery never mutates the image.
    for (int round = 0; round < 2; ++round) {
        MithriLog mounted;
        ASSERT_TRUE(mounted.recover(path_).isOk());
        EXPECT_EQ(mounted.lineCount(), o.recovered) << round;
        QueryResult r;
        ASSERT_TRUE(mounted.run(mustParse("payload"), &r).isOk());
        EXPECT_EQ(r.matched_lines, o.matches) << round;
    }
}

TEST_F(CrashRecoveryTest, ReopenWithoutIngestRecoversToSameStore)
{
    // recover -> reopen -> ingest nothing -> dump -> recover must be
    // an identity round trip: the fresh generation holds the verified
    // prefix as its snapshot and an empty chain.
    std::vector<std::string> lines = corpus(2000);
    CutOutcome o = runCut(lines, 8);
    ASSERT_TRUE(o.fired);
    ASSERT_GT(o.recovered, 0u);

    MithriLog log;
    ASSERT_TRUE(log.recover(path_).isOk());
    ASSERT_TRUE(log.reopen().isOk());
    ASSERT_TRUE(log.saveDeviceImage(path2_).isOk());

    for (int round = 0; round < 2; ++round) {
        MithriLog mounted;
        ASSERT_TRUE(mounted.recover(path2_).isOk());
        EXPECT_EQ(mounted.lineCount(), o.recovered) << round;
        EXPECT_EQ(mounted.recoveredGeneration(), 2u) << round;
        EXPECT_EQ(mounted.recoveredSnapshotRecords(),
                  mounted.dataPageCount())
            << round;
        EXPECT_EQ(mounted.recoveredChainRecords(), 0u) << round;
        QueryResult r;
        ASSERT_TRUE(mounted.run(mustParse("payload"), &r).isOk());
        EXPECT_EQ(r.matched_lines, o.matches) << round;
    }
}

TEST_F(CrashRecoveryTest, ManyReopenCyclesKeepEveryAcknowledgedLine)
{
    // recover -> reopen -> ingest one line -> flush -> dump, over and
    // over with no checkpoint: every mount keeps every acknowledged
    // line, and its replay tail is the one commit since the last
    // reopen, however long the history grows.
    std::vector<std::string> lines = corpus(50);
    uint64_t acknowledged = 0;
    {
        MithriLog log;
        for (const std::string &line : lines) {
            ASSERT_TRUE(log.ingestLine(line).isOk());
        }
        ASSERT_TRUE(log.flush().isOk());
        acknowledged = log.durableLineCount();
        ASSERT_TRUE(log.saveDeviceImage(path_).isOk());
    }
    for (int cycle = 1; cycle <= 70; ++cycle) {
        MithriLog log;
        ASSERT_TRUE(log.recover(path_).isOk()) << cycle;
        ASSERT_GE(log.lineCount(), acknowledged) << "cycle " << cycle;
        if (cycle > 1) {
            EXPECT_EQ(log.recoveredChainRecords(), 1u) << "cycle " << cycle;
        }
        ASSERT_TRUE(log.reopen().isOk()) << cycle;
        std::string line = "crash payload seq" +
                           std::to_string(log.lineCount()) +
                           " cycle" + std::to_string(cycle);
        ASSERT_TRUE(log.ingestLine(line).isOk()) << cycle;
        ASSERT_TRUE(log.flush().isOk()) << cycle;
        acknowledged = log.durableLineCount();
        ASSERT_TRUE(log.saveDeviceImage(path_).isOk()) << cycle;
    }
    MithriLog mounted;
    ASSERT_TRUE(mounted.recover(path_).isOk());
    EXPECT_EQ(mounted.lineCount(), acknowledged);
    EXPECT_EQ(mounted.recoveredGeneration(), 71u);
    QueryResult r;
    ASSERT_TRUE(mounted.run(mustParse("payload"), &r).isOk());
    EXPECT_EQ(r.matched_lines, acknowledged);
}

TEST_F(CrashRecoveryTest, PowerCutInsideReopenReplaysOneSideOfIt)
{
    // Survivors spanning more than one snapshot page (145 entries
    // each), from a history checkpointed halfway so the reopen also
    // retires an old snapshot. reopen() programs ceil(S/145) snapshot
    // pages, the chain head and the superblock. A cut at a snapshot
    // page or the chain head recovers exactly the pre-reopen store, a
    // cut after the barrier exactly the post-reopen one. A cut inside
    // the superblock program lands on either, by how much of the page
    // persisted, never on a mix.
    constexpr uint64_t kSnapshotEntriesPerPage = 145;
    std::vector<std::string> lines = corpus(20000);
    {
        MithriLog log;
        for (size_t i = 0; i < lines.size(); ++i) {
            ASSERT_TRUE(log.ingestLine(lines[i]).isOk());
            if (i == lines.size() / 2) {
                ASSERT_TRUE(log.checkpoint().isOk());
            }
        }
        ASSERT_TRUE(log.flush().isOk());
        ASSERT_GT(log.dataPageCount(), kSnapshotEntriesPerPage);
        ASSERT_TRUE(log.saveDeviceImage(path_).isOk());
    }
    MithriLog before;
    ASSERT_TRUE(before.recover(path_).isOk());
    const uint64_t pages = before.dataPageCount();
    const uint64_t programs =
        (pages + kSnapshotEntriesPerPage - 1) / kSnapshotEntriesPerPage + 2;
    ASSERT_GT(before.recoveredSnapshotRecords(), 0u);
    ASSERT_GT(before.recoveredChainRecords(), 0u);

    // Recovers @p path, checks it is exactly the pre-reopen store or
    // exactly the post-reopen one, and says which (true: post).
    auto recoverSide = [&](const std::string &path, uint64_t cut) {
        MithriLog mounted;
        EXPECT_TRUE(mounted.recover(path).isOk()) << "cut=" << cut;
        const bool published =
            mounted.recoveredGeneration() != before.recoveredGeneration();
        EXPECT_EQ(mounted.lineCount(), before.lineCount()) << "cut=" << cut;
        EXPECT_EQ(mounted.dataPageCount(), pages) << "cut=" << cut;
        if (published) {
            EXPECT_EQ(mounted.recoveredGeneration(),
                      before.recoveredGeneration() + 1)
                << "cut=" << cut;
            EXPECT_EQ(mounted.recoveredSnapshotRecords(), pages)
                << "cut=" << cut;
            EXPECT_EQ(mounted.recoveredChainRecords(), 0u) << "cut=" << cut;
        } else {
            EXPECT_EQ(mounted.recoveredSnapshotRecords(),
                      before.recoveredSnapshotRecords())
                << "cut=" << cut;
            EXPECT_EQ(mounted.recoveredChainRecords(),
                      before.recoveredChainRecords())
                << "cut=" << cut;
        }
        QueryResult r;
        EXPECT_TRUE(mounted.run(mustParse("payload"), &r).isOk());
        EXPECT_EQ(r.matched_lines, before.lineCount()) << "cut=" << cut;
        return published;
    };

    for (uint64_t cut = 1; cut <= programs + 1; ++cut) {
        fault::FaultPlanConfig fc;
        fc.seed = 1;
        fc.power_cut_after_writes = cut;
        fault::FaultPlan plan(fc);
        MithriLog log;
        ASSERT_TRUE(log.recover(path_).isOk());
        log.ssd().attachFaultPlan(&plan);
        Status st = log.reopen();
        if (cut <= programs) {
            ASSERT_EQ(st.code(), StatusCode::kUnavailable)
                << "cut=" << cut << " " << st.toString();
        } else {
            // Past the barrier: the next program, a data page, dies.
            ASSERT_TRUE(st.isOk()) << st.toString();
            ASSERT_EQ(plan.counters().write_draws, programs);
            ASSERT_TRUE(log.ingestLine("crash payload lost").isOk());
            ASSERT_EQ(log.flush().code(), StatusCode::kUnavailable);
        }
        ASSERT_TRUE(log.saveDeviceImage(path2_).isOk());

        const bool published = recoverSide(path2_, cut);
        if (cut < programs) {
            EXPECT_FALSE(published) << "cut=" << cut;
        } else if (cut > programs) {
            EXPECT_TRUE(published);
        } else {
            // Had the superblock program persisted nothing, the old
            // superblock would still have to name an intact chain and
            // snapshot: nothing is freed before the barrier.
            restoreSuperblockSlots(path_, path2_);
            EXPECT_FALSE(recoverSide(path2_, cut));
        }
    }
}

TEST_F(CrashRecoveryTest, SealIsTerminalAcrossRecovery)
{
    // recover -> reopen -> ingest -> seal -> recover: the seal must
    // survive recovery of the second-generation chain and make any
    // further reopen refuse.
    std::vector<std::string> lines = corpus(2000);
    CutOutcome o = runCut(lines, 8);
    ASSERT_TRUE(o.fired);
    ASSERT_GT(o.recovered, 0u);

    MithriLog log;
    ASSERT_TRUE(log.recover(path_).isOk());
    ASSERT_TRUE(log.reopen().isOk());
    ASSERT_TRUE(log.ingestLine("crash payload final arrival").isOk());
    ASSERT_TRUE(log.seal().isOk());
    ASSERT_TRUE(log.saveDeviceImage(path2_).isOk());

    MithriLog mounted;
    ASSERT_TRUE(mounted.recover(path2_).isOk());
    EXPECT_EQ(mounted.lineCount(), o.recovered + 1);
    Status st = mounted.reopen();
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition)
        << st.toString();
}

TEST_F(CrashRecoveryTest, ReopenAfterFinalPageDroppedByReplayCut)
{
    // Damage the highest data page of a crash image so recovery's
    // verify pass discards it. Reopening that store must pin the
    // replay cut: the dropped page stays dropped after the next
    // recovery (no resurrection), and new ingest lands after it.
    std::vector<std::string> lines = corpus(2000);
    CutOutcome o = runCut(lines, 8);
    ASSERT_TRUE(o.fired);
    ASSERT_GT(o.recovered, 0u);

    std::string img = readImage(path_);
    uint64_t pages = 0;
    ASSERT_GE(img.size(), 16u);
    std::memcpy(&pages, img.data() + 8, sizeof pages);

    bool found = false;
    for (uint64_t p = pages; p-- > 2 && !found;) {
        std::string damaged = img;
        size_t off = 16 + p * 4096 + 2048;
        ASSERT_LT(off, damaged.size());
        damaged[off] = static_cast<char>(damaged[off] ^ 0x5a);
        {
            std::ofstream outf(path2_, std::ios::binary);
            outf << damaged;
        }
        MithriLog m;
        if (!m.recover(path2_).isOk()) {
            continue; // damaged a superblock slot: not this page
        }
        if (m.metrics().counter("recovery.pages_discarded").value() <
                1 ||
            m.lineCount() == 0) {
            continue; // damaged an index/journal page: replay shrank
                      // or ignored it without a verify discard
        }
        found = true;
        uint64_t dropped_to = m.lineCount();
        ASSERT_LT(dropped_to, o.recovered);

        ASSERT_TRUE(m.reopen().isOk());
        ASSERT_TRUE(
            m.ingestLine("crash payload postdrop arrival").isOk());
        ASSERT_TRUE(m.flush().isOk());
        ASSERT_TRUE(m.saveDeviceImage(path2_).isOk());

        MithriLog mounted;
        ASSERT_TRUE(mounted.recover(path2_).isOk());
        EXPECT_EQ(mounted.lineCount(), dropped_to + 1);
        QueryResult post;
        ASSERT_TRUE(mounted.run(mustParse("postdrop"), &post).isOk());
        EXPECT_EQ(post.matched_lines, 1u);
        // The discarded tail must not resurrect: the first line of the
        // dropped page stays absent.
        QueryResult ghost;
        std::string q_ghost = "seq" + std::to_string(dropped_to);
        ASSERT_TRUE(mounted.run(mustParse(q_ghost), &ghost).isOk());
        EXPECT_EQ(ghost.matched_lines, 0u) << q_ghost;
    }
    EXPECT_TRUE(found)
        << "no byte flip produced a verify-discarded final page";
}

TEST_F(CrashRecoveryTest, CutReplaysBitForBit)
{
    std::vector<std::string> lines = corpus(2000);
    CutOutcome a = runCut(lines, 4);
    CutOutcome b = runCut(lines, 4);
    EXPECT_EQ(a.fired, b.fired);
    EXPECT_EQ(a.acknowledged, b.acknowledged);
    EXPECT_EQ(a.recovered, b.recovered);
    EXPECT_EQ(a.matches, b.matches);
}

TEST_F(CrashRecoveryTest, CutPastLastWriteNeverFires)
{
    std::vector<std::string> lines = corpus(200);
    CutOutcome o = runCut(lines, 1u << 20);
    EXPECT_FALSE(o.fired);
}

} // namespace
} // namespace mithril::core
