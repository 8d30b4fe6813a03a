/**
 * @file
 * Write-ahead commit journal: the durable-ingest protocol's on-storage
 * record of what the store has acknowledged.
 *
 * On-disk layout (all little-endian, building on PR 3's CRC framing):
 *
 *   page 0, page 1   superblock slots (ping-pong: epoch N lands in slot
 *                    (N-1) % 2, so a torn superblock program can never
 *                    destroy the previous good superblock)
 *   page H, ...      journal pages, forward-linked by link records
 *   page S, ...      snapshot pages (checkpointed committed state),
 *                    forward-linked through their headers
 *
 * Superblock (one page, 60 bytes used, layout v2):
 *   magic u32 'MSB1' | version u32 | epoch u64 | journal_head u64 |
 *   generation u64 | snapshot_head u64 | snapshot_records u64 |
 *   flags u64 (bit 0: sealed) | crc u32 (of the preceding 56 bytes)
 *
 * Journal page := 20-byte header + up to 92 fixed 44-byte records:
 *   header: magic u32 'MJL1' | seq u32 (position in chain) |
 *           generation u64 | crc u32 (of the preceding 16 bytes)
 *   record: kind u32 | arg u64 | page_crc u32 | lines u64 |
 *           raw_bytes u64 | seq u64 (chain-local, from 1) | crc u32 (of
 *           the preceding 40 bytes, seeded with crc32(generation))
 *
 * Snapshot page := 32-byte header + up to 145 fixed 28-byte entries:
 *   header: magic u32 'MSN1' | seq u32 (position in snapshot list) |
 *           generation u64 | count u32 | next u64 (kInvalidPage ends) |
 *           crc u32 (of the preceding 28 bytes)
 *   entry:  page u64 | page_crc u32 | lines u64 | raw_bytes u64
 * Entries are the committed page table in commit order; each entry
 * replays as one logical record, so a mount walks O(snapshot pages +
 * chain tail) instead of O(records ever appended).
 *
 * Record kinds: kPageCommit (arg = data page id; page_crc covers the
 * full 4 KB data page; lines / raw_bytes are cumulative totals through
 * this page), kLink (arg = next journal page id), kSeal (store is
 * complete and immutable), kBaseLink (only ever the first record of a
 * reopened generation's chain: arg = previous chain's head page, the
 * lines field carries the previous generation, and the raw_bytes field
 * carries the *record budget* — exactly how many logical records of the
 * previous chain tree were verified good at reopen time), kMigrate (a
 * segment-cleaner copy commit: arg = logical data page, page_crc its
 * CRC, lines / raw_bytes the old / new physical slot; replay validates
 * and counts it but it changes no logical state — the translation map
 * is device metadata).
 *
 * Generation chain (append-after-recovery): reopen() starts a fresh
 * chain at the replayed tail under generation G+1. Old-generation pages
 * are never rewritten; the new chain's base-link record grafts the
 * survivors by reference, and its CRC is seeded with the NEW generation
 * so stale old-generation bytes can never be replayed as new records.
 * Replay recurses through base links (oldest chain first), accepting at
 * most the declared budget from each base tree, so records the reopen
 * verification discarded stay discarded on every later mount.
 *
 * Checkpoint (DESIGN.md §14): checkpoint() serializes the committed
 * page table into snapshot pages, starts a fresh empty chain, and
 * publishes both with a single superblock epoch bump; the old chain and
 * old snapshot are freed only after the durability barrier that lands
 * the bump, so a power cut anywhere inside the protocol replays either
 * the old state or the new one, never a mix. A chain that builds on a
 * snapshot never contains base links: reopen() of a snapshot-bearing
 * history collapses the survivors into a fresh snapshot instead of
 * grafting (a base link can reference only a chain, not a snapshot).
 *
 * Crash-safety argument: records are only ever *appended*, so rewriting
 * the current journal page has the identical-prefix property — a torn
 * program can damage only the newest record, which then fails its CRC
 * (or reads as kind 0) and replay stops exactly at the last durable
 * record. Chain growth writes the new page's header before the link
 * record that publishes it, reopen() and checkpoint() write every new
 * page (snapshot and chain head) before the superblock epoch that
 * publishes them, and freed pages are returned to the allocator only
 * after that epoch's barrier, so every crash window leaves a valid,
 * replayable prefix (possibly the pre-reopen / pre-checkpoint one).
 */
#ifndef MITHRIL_STORAGE_JOURNAL_H
#define MITHRIL_STORAGE_JOURNAL_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/ssd_model.h"

namespace mithril::storage {

/** Write-ahead journal over an SsdModel; owns pages 0..1 + the chain. */
class Journal
{
  public:
    /** One durably committed data page, in commit order. */
    struct CommittedPage {
        PageId page = kInvalidPage;
        uint32_t crc = 0;          ///< CRC32 of the full 4 KB data page
        uint64_t lines = 0;        ///< cumulative lines through this page
        uint64_t raw_bytes = 0;    ///< cumulative raw bytes ingested
        uint64_t record_seq = 0;   ///< global replay position (from 1)
    };

    /** What a mount-time replay of the journal found. */
    struct ReplayResult {
        std::vector<CommittedPage> pages;
        bool found = false;        ///< a valid superblock existed
        bool sealed = false;       ///< a seal record was replayed
        uint64_t journal_pages = 0;
        uint64_t records = 0;      ///< valid records replayed (incl. snapshot)
        uint64_t snapshot_records = 0; ///< of which from the snapshot
        uint64_t epoch = 0;        ///< epoch of the chosen superblock
        PageId head = kInvalidPage; ///< newest chain's head page
        PageId snapshot_head = kInvalidPage; ///< snapshot list head
        uint64_t generation = 0;   ///< newest chain's generation
        uint64_t generations = 0;  ///< chains replayed (1 + base links)
        /** Journal pages that validated during replay (all chains),
         *  and snapshot pages that validated: the reachable journal
         *  footprint, which reopen() may reclaim after a collapse. */
        std::vector<PageId> chain_pages;
        std::vector<PageId> snapshot_pages;
    };

    /** Counts into @p metrics (or, when null, a registry of its own)
     *  as `journal.*`: records, page writes, reopens, checkpoints, and
     *  the generation / chain / snapshot record gauges. */
    explicit Journal(SsdModel *ssd, obs::MetricsRegistry *metrics = nullptr);

    /** True once format() ran (or a cursor was deserialized). */
    bool formatted() const { return head_ != kInvalidPage; }

    /**
     * Lays out the journal on an *empty* device (asserted): reserves
     * the two superblock slots and the first journal page, then
     * publishes superblock epoch 1. Ends with a durability barrier.
     */
    Status format();

    /**
     * Lays out a *fresh generation* of the journal at the replayed tail
     * of a recovered device: allocates a new chain head past the
     * existing pages, bumps the generation past @p rr's, and — when the
     * replay found survivors — opens the chain with a base-link record
     * granting exactly @p accepted_records logical records from the old
     * chain tree (the reopen-time verification cut; everything past it
     * stays discarded forever). When the replayed history carries a
     * snapshot, the survivors are instead *collapsed* into a fresh
     * snapshot under the new generation (a base link cannot graft a
     * snapshot), and the old chain + snapshot pages are reclaimed once
     * the new superblock is durable. Publishes superblock epoch
     * rr.epoch+1 and ends with a durability barrier. Crash-safe in
     * every window: the new pages land before the superblock that makes
     * them reachable, and old pages are neither rewritten nor freed
     * before the barrier, so a cut replays either the pre-reopen or the
     * post-reopen state, never a mix.
     * The journal must not have a cursor yet (fresh mount) and @p rr
     * must not be sealed — seal is terminal.
     */
    Status reopen(const ReplayResult &rr, uint64_t accepted_records);

    /**
     * Checkpoint (DESIGN.md §14): serializes the committed page table
     * into snapshot pages, truncates the chain to a fresh empty head,
     * and publishes {snapshot, new head} with one superblock epoch
     * bump, then a durability barrier; only after the barrier are the
     * old chain and old snapshot pages returned to the allocator. After
     * this, mount-time replay is O(snapshot + tail): the snapshot
     * replays as base_records logical records and the chain restarts at
     * chain-local seq 1. Committed state (acknowledged lines, page
     * table) is exactly preserved — the ack point never moves. Pass
     * @p sealed when the store carries a durable seal: the truncated
     * chain loses the seal *record*, so the new superblock must keep
     * the sealed *flag* (seal is terminal; checkpoint is maintenance,
     * not mutation).
     */
    Status checkpoint(bool sealed = false);

    /**
     * Appends a commit record for data page @p page (whole-page CRC
     * @p page_crc, cumulative totals @p lines / @p raw_bytes) and ends
     * with a durability barrier: when this returns ok, the commit — and
     * every earlier record — is crash-durable.
     */
    Status appendPageCommit(PageId page, uint32_t page_crc,
                            uint64_t lines, uint64_t raw_bytes);

    /**
     * Appends a segment-migration commit record (logical data page
     * @p page with CRC @p page_crc moved from physical @p old_slot to
     * @p new_slot) and ends with a durability barrier. The cleaner
     * retargets the translation map only after this returns ok.
     */
    Status appendMigrate(PageId page, uint32_t page_crc,
                         uint64_t old_slot, uint64_t new_slot);

    /**
     * Appends the terminal seal record, publishes the sealed
     * superblock, and ends with a durability barrier.
     */
    Status appendSeal(uint64_t lines, uint64_t raw_bytes);

    /**
     * Mount-time replay: reads both superblock slots, picks the valid
     * one with the highest epoch, loads its snapshot (if any), and
     * walks the journal chain until the first invalid record. All reads
     * are metered device traffic. A damaged snapshot invalidates the
     * chain built on it (prefix semantics, mirroring base-link budget
     * shortfall). A device with no valid superblock yields found=false
     * and ok — recovering to an empty store is the correct answer for a
     * crash before format completed.
     */
    Status replay(ReplayResult *out);

    /** Appends the journal cursor to @p out (for the host image). */
    void serialize(std::vector<uint8_t> *out) const;

    /**
     * Restores the cursor from @p data (written by serialize) and
     * re-reads the current journal page image from the store. Sets
     * @p consumed to the bytes read from @p data.
     */
    Status deserialize(const uint8_t *data, size_t len,
                       size_t *consumed);

    /** Records appended since construction (not counting replay). */
    uint64_t recordsAppended() const { return records_appended_; }

    /** Journal/superblock page programs issued since construction. */
    uint64_t pageWrites() const { return page_writes_; }

    /** Current journal incarnation (0 until format/reopen/restore). */
    uint64_t generation() const { return generation_; }

    /** reopen() calls on this object (not counting replayed history). */
    uint64_t reopens() const { return reopens_; }

    /** True when this cursor's chain grafts an older generation. */
    bool chained() const { return chained_; }

    /** Records in the live chain (what a mount must replay past the
     *  snapshot); this is the quantity checkpoint() resets to zero. */
    uint64_t chainRecords() const { return next_seq_ - 1; }

    /** Logical records summarized by the live snapshot (0 if none). */
    uint64_t snapshotRecords() const
    {
        return snapshot_head_ != kInvalidPage ? base_records_ : 0;
    }

    /** checkpoint() calls completed on this cursor's lifetime. */
    uint64_t checkpoints() const { return checkpoints_; }

  private:
    Status appendRecord(uint32_t kind, uint64_t arg, uint32_t page_crc,
                        uint64_t lines, uint64_t raw_bytes);
    void replayChain(PageId head, uint64_t chain_generation,
                     uint64_t ceiling, int depth, ReplayResult *out,
                     bool *saw_seal);
    bool replaySnapshot(PageId head, uint64_t generation,
                        uint64_t expected, ReplayResult *out);
    Status writeSnapshot(PageId *head_out);
    Status writeCurrentPage();
    Status writeSuperblock(uint64_t epoch, uint64_t flags);
    void initPageImage(std::vector<uint8_t> *image, uint32_t seq) const;
    Status startFreshChain();
    void updateObsGauges();

    SsdModel *ssd_;
    PageId head_ = kInvalidPage;  ///< newest chain's first journal page
    PageId cur_ = kInvalidPage;   ///< journal page being appended to
    uint32_t cur_seq_ = 0;        ///< chain position of cur_
    size_t cur_count_ = 0;        ///< records already in cur_
    uint64_t next_seq_ = 1;       ///< next chain-local record seq
    uint64_t epoch_ = 0;          ///< last superblock epoch published
    uint64_t generation_ = 0;     ///< journal incarnation stamp
    bool chained_ = false;        ///< chain opens with a base link
    uint64_t reopens_ = 0;
    PageId snapshot_head_ = kInvalidPage; ///< live snapshot list head
    uint64_t base_records_ = 0;   ///< logical records before the chain
    uint64_t checkpoints_ = 0;
    /** Committed page table in commit order: what checkpoint() writes
     *  into the snapshot. Maintained by appendPageCommit / reopen /
     *  deserialize; never read by replay (the media is authoritative
     *  at mount). */
    std::vector<CommittedPage> committed_;
    /** Pages of the live chain / snapshot — the set checkpoint() frees
     *  after the next epoch bump is durable. */
    std::vector<PageId> chain_pages_;
    std::vector<PageId> snapshot_pages_;
    std::vector<uint8_t> cur_image_;
    uint64_t records_appended_ = 0;
    uint64_t page_writes_ = 0;
    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    obs::Counter *obs_records_ = nullptr;
    obs::Counter *obs_page_writes_ = nullptr;
    obs::Counter *obs_reopens_ = nullptr;
    obs::Counter *obs_checkpoints_ = nullptr;
    obs::Gauge *obs_generation_ = nullptr;
    obs::Gauge *obs_chain_records_ = nullptr;
    obs::Gauge *obs_snapshot_records_ = nullptr;
};

} // namespace mithril::storage

#endif // MITHRIL_STORAGE_JOURNAL_H
