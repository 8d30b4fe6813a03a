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
 * complete and immutable), kMigrate (a segment-cleaner copy commit:
 * arg = logical data page, page_crc its CRC, lines / raw_bytes the old
 * / new physical slot; replay validates and counts it but it changes
 * no logical state — the translation map is device metadata). Kind 4
 * and superblock flag 2 are never written; replay stops at kind 4 like
 * at any unknown kind.
 *
 * Generations (DESIGN.md §10, §14): format(), checkpoint() and reopen()
 * share one publish step that writes the committed page table as a
 * fresh snapshot, then a fresh empty chain head, then the superblock
 * that names both. format() publishes generation 1 with no snapshot,
 * checkpoint() keeps the generation, and reopen() (append-after-
 * recovery) publishes the verified survivors under generation G+1.
 * Record CRCs are seeded with the generation, so stale bytes of an
 * older chain never validate in a newer one, and a mount replays one
 * snapshot plus one chain tail however many reopens the history holds.
 *
 * Crash-safety argument: records are only ever *appended*, so rewriting
 * the current journal page has the identical-prefix property — a torn
 * program can damage only the newest record, which then fails its CRC
 * (or reads as kind 0) and replay stops exactly at the last durable
 * record. Chain growth writes the new page's header before the link
 * record that publishes it; the publish step writes every new page
 * before the superblock epoch that makes it reachable, and returns the
 * old chain and snapshot pages to the allocator only after that
 * epoch's barrier. Every crash window therefore leaves a valid,
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
    };

    /** What a mount-time replay of the journal found. */
    struct ReplayResult {
        std::vector<CommittedPage> pages;
        bool sealed = false;       ///< a seal record was replayed
        uint64_t journal_pages = 0;
        uint64_t records = 0;      ///< valid records replayed (incl. snapshot)
        uint64_t snapshot_records = 0; ///< of which from the snapshot
        uint64_t epoch = 0;        ///< chosen superblock's (0: none valid)
        uint64_t generation = 0;   ///< chosen superblock's (0: none valid)
        /** Journal and snapshot pages that validated during replay: the
         *  reachable journal footprint, which reopen() frees once the
         *  next generation is durable. */
        std::vector<PageId> chain_pages;
        std::vector<PageId> snapshot_pages;
    };

    /** Counts into @p metrics (or, when null, a registry of its own)
     *  as `journal.*`: records, page writes, reopens, checkpoints, and
     *  the generation / chain / snapshot record gauges. */
    explicit Journal(SsdModel *ssd, obs::MetricsRegistry *metrics = nullptr);

    /** True once a superblock was published. */
    bool formatted() const { return sb_.cells().head != kInvalidPage; }

    /**
     * Lays out the journal on an *empty* device (asserted): reserves
     * the two superblock slots and publishes generation 1 at epoch 1
     * with an empty chain. Ends with a durability barrier.
     */
    Status format();

    /**
     * Starts the next generation on a recovered device: publishes the
     * first @p survivors entries of @p rr.pages (the prefix the mount
     * verified) as a fresh snapshot under generation rr.generation+1,
     * with an empty chain, at superblock epoch rr.epoch+1, then frees
     * the footprint the replay walked. A cut before the new superblock
     * lands replays the pre-reopen store; after it, the post-reopen
     * one. Entries past @p survivors are dropped for good. The journal
     * must not have a cursor yet (fresh mount) and @p rr must not be
     * sealed — seal is terminal.
     */
    Status reopen(const ReplayResult &rr, size_t survivors);

    /**
     * Checkpoint (DESIGN.md §14): publishes the committed page table as
     * a snapshot with an empty chain under the same generation, then
     * frees the old chain and snapshot pages. After this, mount-time
     * replay is O(snapshot + tail). Committed state (acknowledged
     * lines, page table) is exactly preserved — the ack point never
     * moves. Pass @p sealed when the store carries a durable seal: the
     * truncated chain loses the seal *record*, so the new superblock
     * must keep the sealed *flag* (seal is terminal; checkpoint is
     * maintenance, not mutation).
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
     * chain built on it (prefix semantics). A device with no valid
     * superblock yields an empty result (epoch 0) and ok — recovering
     * to an empty store is the correct answer for a crash before format
     * completed.
     */
    Status replay(ReplayResult *out);

    /** Current journal incarnation (0 until format/reopen). */
    uint64_t generation() const { return sb_.cells().generation; }

    /** Records in the live chain (what a mount must replay past the
     *  snapshot); this is the quantity checkpoint() resets to zero. */
    uint64_t chainRecords() const { return next_seq_ - 1; }

    /** Logical records summarized by the live snapshot (0 if none). */
    uint64_t snapshotRecords() const
    {
        return sb_.cells().snapshot_records;
    }

    /** checkpoint() calls completed on this cursor's lifetime. */
    uint64_t checkpoints() const { return checkpoints_; }

  private:
    /**
     * The cells the newest durable superblock holds. Only a superblock
     * program the device accepted (program()) changes them, so the
     * cursor never names an epoch, generation, chain or snapshot a
     * mount would not replay.
     */
    class Superblock
    {
      public:
        struct Cells {
            uint64_t epoch = 0;
            uint64_t generation = 0;
            PageId head = kInvalidPage;          ///< chain head page
            PageId snapshot_head = kInvalidPage; ///< snapshot list head
            uint64_t snapshot_records = 0;
        };

        /** Deleted so that no other path can overwrite the cells. */
        Superblock &operator=(const Superblock &) = delete;

        const Cells &cells() const { return cells_; }

        /** Programs @p next with @p flags into its ping-pong slot and
         *  adopts it once the device accepted the page. */
        Status program(SsdModel *ssd, const Cells &next, uint64_t flags);

        /** Parses a superblock page; false when torn or foreign. */
        static bool decode(const uint8_t *page, Cells *cells,
                           uint64_t *flags);

      private:
        Cells cells_;
    };

    /** The one publish step of format(), checkpoint() and reopen():
     *  committed_ as a snapshot, a fresh chain head, the superblock
     *  naming both, the barrier, then frees the replaced chain and
     *  snapshot pages. */
    Status publish(uint64_t epoch, uint64_t generation, uint64_t flags);
    Status appendRecord(uint32_t kind, uint64_t arg, uint32_t page_crc,
                        uint64_t lines, uint64_t raw_bytes);
    bool replayChain(PageId head, uint64_t generation, ReplayResult *out);
    bool replaySnapshot(PageId head, uint64_t generation,
                        uint64_t expected, ReplayResult *out);
    Status writeSnapshot(uint64_t generation, PageId *head_out);
    Status writeCurrentPage();
    Status startFreshChain(uint64_t generation);
    void updateObsGauges();

    SsdModel *ssd_;
    Superblock sb_;
    PageId cur_ = kInvalidPage;   ///< journal page being appended to
    uint32_t cur_seq_ = 0;        ///< chain position of cur_
    size_t cur_count_ = 0;        ///< records already in cur_
    uint64_t next_seq_ = 1;       ///< next chain-local record seq
    uint64_t checkpoints_ = 0;
    /** Committed page table in commit order: what the publish step
     *  writes into the snapshot. Maintained by appendPageCommit and
     *  reopen; never read by replay (the media is authoritative at
     *  mount). */
    std::vector<CommittedPage> committed_;
    /** Pages of the live chain / snapshot — the set the next publish
     *  frees after its epoch bump is durable. */
    std::vector<PageId> chain_pages_;
    std::vector<PageId> snapshot_pages_;
    std::vector<uint8_t> cur_image_;
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
