/**
 * @file
 * Crash-consistency contract at the MithriLog API level (DESIGN.md
 * §10), checked at every write a run issues with the cut harness and
 * the one check, contractViolations(), of crash_contract.h:
 *
 *   durability:  recovered lines R >= acknowledged (durable) lines A;
 *   prefix:      R <= the lines fed, and every contract query keeps
 *                exactly the lines query::SoftwareMatcher keeps over
 *                the first R lines of the ingest stream;
 *   determinism: re-running a cut dumps a byte-identical device image
 *                and recovers to the same outcome;
 *   completion:  a cut past the last write never fires, and the store
 *                answers the full-stream oracle.
 *
 * The single-life sweep (PowerCutLosesNoAcknowledgedLine) cuts at
 * every write ordinal of a clean run, so cuts also land inside
 * superblock epoch bumps and the final seal; its checkpointed twin is
 * CheckpointTest.CutInsideCheckpointLosesNothingAcknowledged. The
 * two-life sweep (SecondGenerationCutLosesNoAcknowledgedLine) resumes
 * every single-life crash image — recover, reopen() under the next
 * generation, ingest more, seal — and cuts it again at every write of
 * the second life. ContractCheckReportsEachViolation proves the check
 * can fail.
 *
 * Append-after-recovery (journal generations): a recovered store is
 * read-only until reopen(), which publishes the verified survivors as
 * a snapshot under the next generation. A power cut inside reopen()
 * replays the pre-reopen store, and any number of reopen cycles still
 * replays one snapshot plus one tail.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/mithrilog.h"
#include "crash_contract.h"
#include "fault/fault_plan.h"
#include "query/parser.h"

namespace mithril::core {
namespace {

using crash::contractViolations;
using crash::CutOutcome;
using crash::kNone;
using crash::Lines;
using crash::life1Corpus;
using crash::life2Corpus;
using crash::readImage;

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

/** The single-life sweep's store configs: no checkpoints, and one
 *  checkpoint per page. */
std::vector<MithriLogConfig>
sweepConfigs()
{
    MithriLogConfig checkpointing;
    checkpointing.checkpoint_every_pages = 1;
    return {MithriLogConfig{}, checkpointing};
}

class CrashRecoveryTest : public crash::CutHarness
{
  protected:
    /** Second life of the life-1 crash image at path_, cut at write k1. */
    struct Life2 {
        Status reopened = Status::ok();  ///< what reopen() returned
        CutOutcome out;                  ///< the cut, or the live store
        CutOutcome again;                ///< a second mount of the dump
    };

    /**
     * Recovers path_, attaches a plan whose write ordinals continue at
     * @p k1 and that cuts at k1 + @p k2 (never, when k2 is 0), then
     * reopen()s, ingests life 2 and seals. A fired cut is dumped to
     * path2_ and mounted twice.
     */
    Life2
    runCut2(uint64_t k1, uint64_t k2)
    {
        fault::FaultPlanConfig fc;
        fc.seed = 1;
        fc.write_draw_base = k1;
        fc.power_cut_after_writes = k2 == 0 ? 0 : k1 + k2;
        fault::FaultPlan plan(fc);

        Life2 life;
        MithriLog log;
        EXPECT_TRUE(log.recover(path_).isOk());
        log.ssd().attachFaultPlan(&plan);
        life.reopened = log.reopen();
        Status st = life.reopened;
        if (st.isOk()) {
            st = crash::ingestAndSeal(&log, life2Corpus());
        }
        life.out = outcome(&log, st, plan, k1, path2_);
        if (life.out.fired) {
            life.again = life.out;
            mount(path2_, &life.again);
        }
        return life;
    }

    /** What resuming the life-1 cut at k1 gives. */
    struct Resume {
        bool resumed = false;  ///< reopen() took the image
        uint64_t r1 = 0;       ///< lines life 1 recovered
        uint64_t writes = 0;   ///< programs of an uncut second life
        std::vector<std::string> stream;  ///< life 1's R1 lines, life 2
    };

    /**
     * Cuts life 1 at write @p k1, leaving its image at path_, and runs
     * the second life without a cut. If life 1's seal was durable the
     * resume must be refused, and the read-only store must answer the
     * oracle over its R1 lines; otherwise the resumed store must
     * answer it over the whole stream.
     */
    Resume
    resume(uint64_t k1)
    {
        const Lines life1 = life1Corpus();
        const Lines life2 = life2Corpus();
        const CutOutcome first = runCut({}, life1, k1);
        EXPECT_TRUE(first.fired) << "k1=" << k1;
        Resume r;
        r.r1 = first.recovered;
        // The one logical ingest stream: what life 1 kept, then life 2.
        r.stream.assign(life1.begin(), life1.begin() + r.r1);
        r.stream.insert(r.stream.end(), life2.begin(), life2.end());

        const Life2 clean = runCut2(k1, 0);
        if (clean.reopened.code() == StatusCode::kFailedPrecondition) {
            // A seal is terminal across recovery.
            EXPECT_EQ(clean.out.recovered, r.r1) << "k1=" << k1;
            EXPECT_EQ(contractViolations(clean.out, life1.first(r.r1)),
                      kNone)
                << "k1=" << k1;
            return r;
        }
        EXPECT_TRUE(clean.reopened.isOk())
            << "k1=" << k1 << ": " << clean.reopened.toString();
        EXPECT_FALSE(clean.out.fired) << "k1=" << k1;
        EXPECT_EQ(clean.out.recovered, r.stream.size()) << "k1=" << k1;
        EXPECT_EQ(contractViolations(clean.out, r.stream), kNone)
            << "k1=" << k1;
        r.resumed = clean.reopened.isOk() && !clean.out.fired;
        r.writes = clean.out.writes;
        return r;
    }
};

TEST_F(CrashRecoveryTest, PowerCutLosesNoAcknowledgedLine)
{
    sweepSingleLife(MithriLogConfig{});
}

TEST_F(CrashRecoveryTest, CutReplaysBitForBit)
{
    const Lines lines = life1Corpus();
    for (const MithriLogConfig &config : sweepConfigs()) {
        const uint64_t mid = (runCut(config, lines, 0).writes + 1) / 2;
        const CutOutcome first = runCut(config, lines, mid);
        const CutOutcome replay = runCut(config, lines, mid);
        ASSERT_TRUE(first.fired) << "k=" << mid;
        EXPECT_EQ(contractViolations(first, lines, &replay), kNone)
            << "k=" << mid << " checkpoint_every_pages="
            << config.checkpoint_every_pages;
    }
}

TEST_F(CrashRecoveryTest, CutPastLastWriteNeverFires)
{
    const Lines lines = life1Corpus();
    for (const MithriLogConfig &config : sweepConfigs()) {
        const uint64_t writes = runCut(config, lines, 0).writes;
        const CutOutcome done = runCut(config, lines, writes + 5);
        EXPECT_FALSE(done.fired);
        EXPECT_EQ(done.recovered, lines.size());
        EXPECT_EQ(contractViolations(done, lines), kNone)
            << "checkpoint_every_pages=" << config.checkpoint_every_pages;
    }
}

TEST_F(CrashRecoveryTest, SecondGenerationCutLosesNoAcknowledgedLine)
{
    const uint64_t writes = runCut({}, life1Corpus(), 0).writes;
    ASSERT_GE(writes, 4u);
    std::string second_life_writes;
    int pairs = 0;
    for (uint64_t k1 = 1; k1 <= writes; ++k1) {
        const Resume r = resume(k1);
        if (!r.resumed) {
            second_life_writes += " -";
            continue;
        }
        second_life_writes += " " + std::to_string(r.writes);
        for (uint64_t k2 = 1; k2 <= r.writes; ++k2) {
            const Life2 cut = runCut2(k1, k2);
            ASSERT_TRUE(cut.out.fired) << "pair (" << k1 << "," << k2 << ")";
            // A cut inside reopen() replays the pre-resume store; any
            // later cut keeps all of it.
            EXPECT_GE(cut.out.acknowledged, r.r1)
                << "pair (" << k1 << "," << k2 << ")";
            EXPECT_EQ(contractViolations(cut.out, r.stream, &cut.again),
                      kNone)
                << "pair (" << k1 << "," << k2 << ")";
            ++pairs;
        }
    }
    RecordProperty("writes", static_cast<int>(writes));
    RecordProperty("second_life_writes", second_life_writes);
    RecordProperty("pairs", pairs);
    EXPECT_GT(pairs, 0);
}

TEST_F(CrashRecoveryTest, SecondGenerationCutReplaysBitForBit)
{
    const uint64_t writes = runCut({}, life1Corpus(), 0).writes;
    int replayed = 0;
    for (uint64_t k1 = 1; k1 <= writes; ++k1) {
        const Resume r = resume(k1);
        if (!r.resumed) {
            continue;
        }
        const uint64_t mid = (r.writes + 1) / 2;
        const Life2 first = runCut2(k1, mid);
        const Life2 replay = runCut2(k1, mid);
        ASSERT_TRUE(first.out.fired) << "pair (" << k1 << "," << mid << ")";
        EXPECT_EQ(contractViolations(first.out, r.stream, &replay.out), kNone)
            << "pair (" << k1 << "," << mid << ")";
        ++replayed;
    }
    EXPECT_GT(replayed, 0);
}

TEST_F(CrashRecoveryTest, ContractCheckReportsEachViolation)
{
    // The sweeps are only as strong as the check: feed it one injected
    // violation of each kind and expect exactly one report for each.
    const Lines lines = life1Corpus();
    const uint64_t writes = runCut({}, lines, 0).writes;
    const CutOutcome o = runCut({}, lines, (writes + 1) / 2);
    ASSERT_TRUE(o.fired);
    ASSERT_GT(o.recovered, 0u);
    ASSERT_LT(o.recovered, lines.size());
    EXPECT_EQ(contractViolations(o, lines, &o), kNone);

    CutOutcome lost = o;
    lost.acknowledged = o.recovered + 1;
    EXPECT_EQ(contractViolations(lost, lines).size(), 1u);

    // An oracle one line off: the same store judged against the stream
    // shifted by one line.
    EXPECT_EQ(contractViolations(o, lines.subspan(1)).size(), 1u);

    CutOutcome diverged = o;
    diverged.dump[diverged.dump.size() / 2] ^= 1;
    EXPECT_EQ(contractViolations(o, lines, &diverged).size(), 1u);
}

TEST_F(CrashRecoveryTest, RecoveredStoreIsReadOnlyUntilReopen)
{
    std::vector<std::string> lines = corpus(2000);
    CutOutcome o = runCut({}, lines, 8);
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

TEST_F(CrashRecoveryTest, DoubleRecoverIsIdempotent)
{
    std::vector<std::string> lines = corpus(2000);
    CutOutcome o = runCut({}, lines, 8);
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
        EXPECT_EQ(r.matched_lines, o.recovered) << round;
    }
}

TEST_F(CrashRecoveryTest, ReopenWithoutIngestRecoversToSameStore)
{
    // recover -> reopen -> ingest nothing -> dump -> recover must be
    // an identity round trip: the fresh generation holds the verified
    // prefix as its snapshot and an empty chain.
    std::vector<std::string> lines = corpus(2000);
    CutOutcome o = runCut({}, lines, 8);
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
        EXPECT_EQ(r.matched_lines, o.recovered) << round;
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
    CutOutcome o = runCut({}, lines, 8);
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
    CutOutcome o = runCut({}, lines, 8);
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

} // namespace
} // namespace mithril::core
