#include "storage/journal.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/bits.h"
#include "common/hash.h"

namespace mithril::storage {

namespace {

constexpr uint32_t kSuperMagic = 0x3142534du;    // "MSB1"
constexpr uint32_t kJournalMagic = 0x314c4a4du;  // "MJL1"
constexpr uint32_t kSnapshotMagic = 0x314e534du; // "MSN1"
constexpr uint32_t kLayoutVersion = 2;           // v2: snapshot cursor

constexpr size_t kHeaderBytes = 20;
constexpr size_t kRecordBytes = 44;
constexpr size_t kRecordsPerPage = (kPageSize - kHeaderBytes) / kRecordBytes;

constexpr size_t kSnapshotHeaderBytes = 32;
constexpr size_t kSnapshotEntryBytes = 28;
constexpr size_t kSnapshotEntriesPerPage =
    (kPageSize - kSnapshotHeaderBytes) / kSnapshotEntryBytes;

// Record kinds; kind 0 is deliberately invalid so a never-written
// (zero-filled) record slot terminates replay without relying on the
// CRC check alone.
constexpr uint32_t kPageCommit = 1;
constexpr uint32_t kLink = 2;
constexpr uint32_t kSeal = 3;
constexpr uint32_t kBaseLink = 4;
constexpr uint32_t kMigrate = 5;

// Superblock flag bits.
constexpr uint64_t kFlagSealed = 1;   // store is complete and immutable
constexpr uint64_t kFlagChained = 2;  // chain opens with a base link

// Base links recurse strictly down the generations (validated), so any
// chain deeper than this is a crafted image, not a real history.
constexpr int kMaxChainDepth = 64;

/** Superblock slot page for @p epoch (ping-pong between pages 0/1). */
PageId
superSlot(uint64_t epoch)
{
    return (epoch - 1) % 2;
}

/** Seed binding record CRCs to the journal incarnation. */
uint32_t
generationSeed(uint64_t generation)
{
    return crc32(&generation, sizeof(generation));
}

void
encodeRecord(uint8_t *slot, uint32_t kind, uint64_t arg,
             uint32_t page_crc, uint64_t lines, uint64_t raw_bytes,
             uint64_t seq, uint64_t generation)
{
    std::vector<uint8_t> buf;
    buf.reserve(kRecordBytes);
    putLe(buf, kind);
    putLe(buf, arg);
    putLe(buf, page_crc);
    putLe(buf, lines);
    putLe(buf, raw_bytes);
    putLe(buf, seq);
    putLe(buf, crc32(buf.data(), buf.size(), generationSeed(generation)));
    MITHRIL_ASSERT(buf.size() == kRecordBytes);
    std::memcpy(slot, buf.data(), kRecordBytes);
}

} // namespace

Journal::Journal(SsdModel *ssd, obs::MetricsRegistry *metrics) : ssd_(ssd)
{
    obs::MetricsRegistry &m = obs::registryOrOwn(metrics, &owned_metrics_);
    obs_records_ = &m.counter("journal.records");
    obs_page_writes_ = &m.counter("journal.page_writes");
    obs_reopens_ = &m.counter("journal.reopens");
    obs_checkpoints_ = &m.counter("journal.checkpoints");
    obs_generation_ = &m.gauge("journal.generation");
    obs_chain_records_ = &m.gauge("journal.chain_records");
    obs_snapshot_records_ = &m.gauge("journal.snapshot_records");
    updateObsGauges();
}

void
Journal::updateObsGauges()
{
    obs_generation_->set(static_cast<double>(generation_));
    obs_chain_records_->set(static_cast<double>(chainRecords()));
    obs_snapshot_records_->set(static_cast<double>(snapshotRecords()));
}

void
Journal::initPageImage(std::vector<uint8_t> *image, uint32_t seq) const
{
    image->clear();
    image->reserve(kPageSize);
    putLe(*image, kJournalMagic);
    putLe(*image, seq);
    putLe(*image, generation_);
    putLe(*image, crc32(image->data(), image->size()));
    MITHRIL_ASSERT(image->size() == kHeaderBytes);
    image->resize(kPageSize, 0);
}

Status
Journal::writeCurrentPage()
{
    ++page_writes_;
    obs_page_writes_->add();
    return ssd_->writePage(cur_, cur_image_);
}

Status
Journal::writeSuperblock(uint64_t epoch, uint64_t flags)
{
    std::vector<uint8_t> sb;
    sb.reserve(kPageSize);
    putLe(sb, kSuperMagic);
    putLe(sb, kLayoutVersion);
    putLe(sb, epoch);
    putLe(sb, head_);
    putLe(sb, generation_);
    putLe(sb, snapshot_head_);
    putLe(sb, snapshotRecords());
    putLe(sb, flags);
    putLe(sb, crc32(sb.data(), sb.size()));
    sb.resize(kPageSize, 0);
    ++page_writes_;
    obs_page_writes_->add();
    MITHRIL_RETURN_IF_ERROR(ssd_->writePage(superSlot(epoch), sb));
    epoch_ = epoch;
    return Status::ok();
}

Status
Journal::startFreshChain()
{
    head_ = cur_ = ssd_->allocate();
    chain_pages_.push_back(head_);
    cur_seq_ = 0;
    cur_count_ = 0;
    next_seq_ = 1;
    chained_ = false;
    initPageImage(&cur_image_, cur_seq_);
    return writeCurrentPage();
}

Status
Journal::format()
{
    MITHRIL_ASSERT(!formatted());
    // The layout owns the device's first pages; formatting anything but
    // an empty store would silently overlay data pages.
    MITHRIL_ASSERT(ssd_->store().pageCount() == 0);
    PageId slot_a = ssd_->allocate();
    PageId slot_b = ssd_->allocate();
    MITHRIL_ASSERT(slot_a == 0 && slot_b == 1);
    generation_ = 1;
    snapshot_head_ = kInvalidPage;
    base_records_ = 0;
    committed_.clear();
    chain_pages_.clear();
    snapshot_pages_.clear();
    // Journal page first, superblock second: a cut between the two
    // leaves no valid superblock, which replays as an empty store.
    MITHRIL_RETURN_IF_ERROR(startFreshChain());
    MITHRIL_RETURN_IF_ERROR(writeSuperblock(/*epoch=*/1, /*flags=*/0));
    updateObsGauges();
    return ssd_->flushBarrier();
}

Status
Journal::writeSnapshot(PageId *head_out)
{
    *head_out = kInvalidPage;
    snapshot_pages_.clear();
    if (committed_.empty()) {
        return Status::ok();
    }
    // Allocate the whole list first so every header can name its
    // successor; pages are fresh, so nothing durable is touched until
    // the superblock that publishes them.
    size_t n_pages = (committed_.size() + kSnapshotEntriesPerPage - 1) /
                     kSnapshotEntriesPerPage;
    std::vector<PageId> ids;
    ids.reserve(n_pages);
    for (size_t i = 0; i < n_pages; ++i) {
        ids.push_back(ssd_->allocate());
    }
    size_t next_entry = 0;
    for (size_t pg = 0; pg < n_pages; ++pg) {
        size_t count = std::min(kSnapshotEntriesPerPage,
                                committed_.size() - next_entry);
        std::vector<uint8_t> image;
        image.reserve(kPageSize);
        putLe(image, kSnapshotMagic);
        putLe(image, static_cast<uint32_t>(pg));
        putLe(image, generation_);
        putLe(image, static_cast<uint32_t>(count));
        putLe(image, pg + 1 < n_pages ? ids[pg + 1] : kInvalidPage);
        putLe(image, crc32(image.data(), image.size()));
        MITHRIL_ASSERT(image.size() == kSnapshotHeaderBytes);
        for (size_t i = 0; i < count; ++i) {
            const CommittedPage &cp = committed_[next_entry++];
            putLe(image, cp.page);
            putLe(image, cp.crc);
            putLe(image, cp.lines);
            putLe(image, cp.raw_bytes);
        }
        image.resize(kPageSize, 0);
        ++page_writes_;
        obs_page_writes_->add();
        MITHRIL_RETURN_IF_ERROR(ssd_->writePage(ids[pg], image));
    }
    snapshot_pages_ = ids;
    *head_out = ids[0];
    return Status::ok();
}

Status
Journal::checkpoint(bool sealed)
{
    MITHRIL_ASSERT(formatted());
    // Everything below writes only *fresh* pages until the barrier; the
    // old chain and snapshot stay durable and reachable through the
    // best superblock, so a power cut anywhere in here replays the
    // pre-checkpoint state unchanged.
    std::vector<PageId> old_chain;
    old_chain.swap(chain_pages_);
    std::vector<PageId> old_snapshot;
    old_snapshot.swap(snapshot_pages_);
    // 1. Snapshot: the committed page table in commit order, renumbered
    //    1..S — the snapshot *is* the first S logical records now.
    for (size_t i = 0; i < committed_.size(); ++i) {
        committed_[i].record_seq = i + 1;
    }
    base_records_ = committed_.size();
    PageId snap_head = kInvalidPage;
    MITHRIL_RETURN_IF_ERROR(writeSnapshot(&snap_head));
    snapshot_head_ = snap_head;
    // 2. Fresh empty chain head (chain-local seq restarts at 1).
    MITHRIL_RETURN_IF_ERROR(startFreshChain());
    // 3. One epoch bump publishes {snapshot, new head} atomically: a
    //    cut lands on the old superblock or the new one, never a mix.
    //    Truncation drops any seal *record* with the old chain, so a
    //    sealed store keeps its seal through the superblock *flag*.
    MITHRIL_RETURN_IF_ERROR(
        writeSuperblock(epoch_ + 1, sealed ? kFlagSealed : 0));
    // 4. The barrier is the commit point of the whole truncation.
    MITHRIL_RETURN_IF_ERROR(ssd_->flushBarrier());
    // 5. Only now is the old footprint unreachable: reclaim it.
    for (PageId p : old_chain) {
        MITHRIL_RETURN_IF_ERROR(ssd_->store().free(p));
    }
    for (PageId p : old_snapshot) {
        MITHRIL_RETURN_IF_ERROR(ssd_->store().free(p));
    }
    ++checkpoints_;
    obs_checkpoints_->add();
    updateObsGauges();
    return Status::ok();
}

Status
Journal::reopen(const ReplayResult &rr, uint64_t accepted_records)
{
    MITHRIL_ASSERT(!formatted());
    MITHRIL_ASSERT(!rr.sealed);
    // A crash before format() completed can leave the superblock slots
    // unallocated; reserve them so the layout invariant (pages 0..1 are
    // superblock slots) holds for the new generation too.
    while (ssd_->store().pageCount() < 2) {
        (void)ssd_->allocate();
    }
    generation_ = rr.found ? rr.generation + 1 : 1;
    committed_.clear();
    for (const CommittedPage &cp : rr.pages) {
        if (cp.record_seq <= accepted_records) {
            committed_.push_back(cp);
        }
    }
    chain_pages_.clear();
    snapshot_pages_.clear();
    if (rr.found && rr.snapshot_head != kInvalidPage) {
        // Snapshot-bearing history: a base link can graft only a chain,
        // not {snapshot + chain}, so collapse the survivors into a
        // fresh snapshot under the new generation. This keeps the
        // invariant that a chain building on a snapshot never contains
        // base links — and it is also what bounds replay across crash
        // cycles: older generations fold into the snapshot instead of
        // chaining forever.
        for (size_t i = 0; i < committed_.size(); ++i) {
            committed_[i].record_seq = i + 1;
        }
        base_records_ = committed_.size();
        PageId snap_head = kInvalidPage;
        MITHRIL_RETURN_IF_ERROR(writeSnapshot(&snap_head));
        snapshot_head_ = snap_head;
        MITHRIL_RETURN_IF_ERROR(startFreshChain());
        MITHRIL_RETURN_IF_ERROR(
            writeSuperblock(rr.epoch + 1, /*flags=*/0));
        ++reopens_;
        obs_reopens_->add();
        updateObsGauges();
        MITHRIL_RETURN_IF_ERROR(ssd_->flushBarrier());
        // The old chain + snapshot became unreachable at the bump;
        // reclaim every page the replay walked.
        for (PageId p : rr.chain_pages) {
            MITHRIL_RETURN_IF_ERROR(ssd_->store().free(p));
        }
        for (PageId p : rr.snapshot_pages) {
            MITHRIL_RETURN_IF_ERROR(ssd_->store().free(p));
        }
        return Status::ok();
    }
    snapshot_head_ = kInvalidPage;
    chained_ = rr.found && accepted_records > 0;
    // Chain-local seqs continue past the grafted base tree, so global
    // record numbering stays base + chain-local on this path too.
    base_records_ = chained_ ? accepted_records : 0;
    head_ = cur_ = ssd_->allocate();
    chain_pages_.push_back(head_);
    cur_seq_ = 0;
    cur_count_ = 0;
    next_seq_ = 1;
    initPageImage(&cur_image_, cur_seq_);
    if (chained_) {
        // First record of the new chain: the base link grafting exactly
        // accepted_records logical records of the old chain tree (the
        // reopen-time verification cut). Its CRC is seeded with the NEW
        // generation, so old-generation bytes can never forge it.
        encodeRecord(cur_image_.data() + kHeaderBytes, kBaseLink,
                     rr.head, 0, rr.generation, accepted_records,
                     next_seq_, generation_);
        ++next_seq_;
        ++cur_count_;
        ++records_appended_;
        obs_records_->add();
    }
    // New chain head first, superblock second: a cut between the two
    // leaves the old superblock pointing at the old chain, and the old
    // pages were never rewritten, so the pre-reopen state replays
    // unchanged.
    MITHRIL_RETURN_IF_ERROR(writeCurrentPage());
    MITHRIL_RETURN_IF_ERROR(writeSuperblock(
        (rr.found ? rr.epoch : 0) + 1,
        chained_ ? kFlagChained : 0));
    ++reopens_;
    obs_reopens_->add();
    updateObsGauges();
    return ssd_->flushBarrier();
}

Status
Journal::appendRecord(uint32_t kind, uint64_t arg, uint32_t page_crc,
                      uint64_t lines, uint64_t raw_bytes)
{
    MITHRIL_ASSERT(formatted());
    if (cur_count_ == kRecordsPerPage - 1 && kind != kLink) {
        // Last slot is reserved for the link record that publishes the
        // next page. Ordering is crash-safe in every window: the new
        // page's header lands before the link that makes it reachable.
        PageId next = ssd_->allocate();
        std::vector<uint8_t> next_image;
        initPageImage(&next_image, cur_seq_ + 1);
        std::vector<uint8_t> saved = cur_image_;
        PageId saved_page = cur_;
        size_t saved_count = cur_count_;
        cur_ = next;
        chain_pages_.push_back(next);
        cur_image_ = next_image;
        ++cur_seq_;
        cur_count_ = 0;
        MITHRIL_RETURN_IF_ERROR(writeCurrentPage());
        // Link record goes into the *old* page.
        encodeRecord(saved.data() + kHeaderBytes +
                         saved_count * kRecordBytes,
                     kLink, next, 0, 0, 0, next_seq_, generation_);
        ++next_seq_;
        ++records_appended_;
        obs_records_->add();
        ++page_writes_;
        obs_page_writes_->add();
        MITHRIL_RETURN_IF_ERROR(ssd_->writePage(saved_page, saved));
    }
    encodeRecord(cur_image_.data() + kHeaderBytes +
                     cur_count_ * kRecordBytes,
                 kind, arg, page_crc, lines, raw_bytes, next_seq_,
                 generation_);
    ++next_seq_;
    ++cur_count_;
    ++records_appended_;
    obs_records_->add();
    obs_chain_records_->set(static_cast<double>(chainRecords()));
    return writeCurrentPage();
}

Status
Journal::appendPageCommit(PageId page, uint32_t page_crc, uint64_t lines,
                          uint64_t raw_bytes)
{
    MITHRIL_RETURN_IF_ERROR(
        appendRecord(kPageCommit, page, page_crc, lines, raw_bytes));
    // The commit record is the newest chain-local record; its global
    // replay position counts the snapshot / base tree before the chain.
    committed_.push_back(CommittedPage{
        .page = page,
        .crc = page_crc,
        .lines = lines,
        .raw_bytes = raw_bytes,
        .record_seq = base_records_ + (next_seq_ - 1),
    });
    return ssd_->flushBarrier();
}

Status
Journal::appendMigrate(PageId page, uint32_t page_crc, uint64_t old_slot,
                       uint64_t new_slot)
{
    MITHRIL_RETURN_IF_ERROR(
        appendRecord(kMigrate, page, page_crc, old_slot, new_slot));
    return ssd_->flushBarrier();
}

Status
Journal::appendSeal(uint64_t lines, uint64_t raw_bytes)
{
    MITHRIL_RETURN_IF_ERROR(
        appendRecord(kSeal, 0, 0, lines, raw_bytes));
    // The seal record alone already replays as sealed; the follow-up
    // superblock just lets a mount skip the inference. Keep the chained
    // bit so the sealed superblock still describes the chain shape.
    MITHRIL_RETURN_IF_ERROR(writeSuperblock(
        epoch_ + 1, kFlagSealed | (chained_ ? kFlagChained : 0)));
    return ssd_->flushBarrier();
}

Status
Journal::replay(ReplayResult *out)
{
    *out = ReplayResult{};
    const PageStore &store = ssd_->store();

    // Pick the valid superblock with the highest epoch.
    uint64_t best_epoch = 0;
    uint64_t journal_head = kInvalidPage;
    uint64_t generation = 0;
    PageId snapshot_head = kInvalidPage;
    uint64_t snapshot_expected = 0;
    for (PageId slot = 0; slot < 2 && slot < store.pageCount(); ++slot) {
        std::vector<uint8_t> page;
        Status s = ssd_->readChained(slot, Link::kInternal, &page);
        if (!s.isOk()) {
            continue; // unreadable slot: fall back to the other one
        }
        const uint8_t *p = page.data();
        if (getLe<uint32_t>(p) != kSuperMagic ||
            getLe<uint32_t>(p + 4) != kLayoutVersion) {
            continue;
        }
        if (getLe<uint32_t>(p + 56) != crc32(p, 56)) {
            continue; // torn superblock program
        }
        uint64_t epoch = getLe<uint64_t>(p + 8);
        if (epoch > best_epoch) {
            best_epoch = epoch;
            journal_head = getLe<uint64_t>(p + 16);
            generation = getLe<uint64_t>(p + 24);
            snapshot_head = getLe<uint64_t>(p + 32);
            snapshot_expected = getLe<uint64_t>(p + 40);
            out->sealed = (getLe<uint64_t>(p + 48) & kFlagSealed) != 0;
        }
    }
    if (best_epoch == 0) {
        // Crash before format completed: an empty store is the whole
        // durable state.
        out->sealed = false;
        return Status::ok();
    }
    out->found = true;
    out->epoch = best_epoch;
    out->head = journal_head;
    out->snapshot_head = snapshot_head;
    out->generation = generation;

    // Load the snapshot first: its entries are the first base_records
    // logical records. The snapshot was durable before the superblock
    // that names it, so damage here means a lying device — and because
    // the chain builds on the snapshot, nothing newer may replay past
    // a shortfall (prefix semantics, mirroring base-link budgets).
    if (snapshot_head != kInvalidPage &&
        !replaySnapshot(snapshot_head, generation, snapshot_expected,
                        out)) {
        return Status::ok();
    }

    // Walk the newest chain (recursing through base links into older
    // generations first, so records land in logical order); stop at the
    // first record that fails validation — everything before it was
    // covered by a durability barrier.
    bool saw_seal = false;
    replayChain(journal_head, generation, /*ceiling=*/UINT64_MAX,
                /*depth=*/0, out, &saw_seal);
    // Sealed if either the seal record survived or the sealed
    // superblock did (a lying device can tear the record yet ack it;
    // the superblock still marks the store immutable).
    out->sealed = out->sealed || saw_seal;
    return Status::ok();
}

bool
Journal::replaySnapshot(PageId head, uint64_t generation,
                        uint64_t expected, ReplayResult *out)
{
    PageId page_id = head;
    uint32_t expect_seq = 0;
    while (page_id != kInvalidPage) {
        std::vector<uint8_t> page;
        if (!ssd_->readChained(page_id, Link::kInternal, &page).isOk()) {
            return false;
        }
        const uint8_t *p = page.data();
        if (getLe<uint32_t>(p) != kSnapshotMagic ||
            getLe<uint32_t>(p + 4) != expect_seq ||
            getLe<uint64_t>(p + 8) != generation ||
            getLe<uint32_t>(p + 28) != crc32(p, 28)) {
            return false;
        }
        uint32_t count = getLe<uint32_t>(p + 16);
        PageId next = getLe<uint64_t>(p + 20);
        if (count == 0 || count > kSnapshotEntriesPerPage ||
            out->snapshot_records + count > expected) {
            // Empty or overfull pages are never written, and every page
            // must make progress toward the declared total — which also
            // bounds the walk against crafted cycles.
            return false;
        }
        for (uint32_t i = 0; i < count; ++i) {
            const uint8_t *e = p + kSnapshotHeaderBytes +
                               static_cast<size_t>(i) * kSnapshotEntryBytes;
            ++out->records;
            ++out->snapshot_records;
            out->pages.push_back(CommittedPage{
                .page = getLe<uint64_t>(e),
                .crc = getLe<uint32_t>(e + 8),
                .lines = getLe<uint64_t>(e + 12),
                .raw_bytes = getLe<uint64_t>(e + 20),
                .record_seq = out->records,
            });
        }
        out->snapshot_pages.push_back(page_id);
        ++out->journal_pages;
        page_id = next;
        ++expect_seq;
    }
    return out->snapshot_records == expected;
}

void
Journal::replayChain(PageId head, uint64_t chain_generation,
                     uint64_t ceiling, int depth, ReplayResult *out,
                     bool *saw_seal)
{
    if (depth > kMaxChainDepth) {
        return; // crafted image: refuse unbounded recursion
    }
    ++out->generations;
    uint32_t seed = generationSeed(chain_generation);
    PageId page_id = head;
    uint32_t expect_page_seq = 0;
    uint64_t expect_seq = 1; // chain-local record seq
    while (page_id != kInvalidPage && !*saw_seal) {
        std::vector<uint8_t> page;
        Status s = ssd_->readChained(page_id, Link::kInternal, &page);
        if (!s.isOk()) {
            return;
        }
        const uint8_t *p = page.data();
        if (getLe<uint32_t>(p) != kJournalMagic ||
            getLe<uint32_t>(p + 4) != expect_page_seq ||
            getLe<uint64_t>(p + 8) != chain_generation ||
            getLe<uint32_t>(p + 16) != crc32(p, 16)) {
            return;
        }
        ++out->journal_pages;
        out->chain_pages.push_back(page_id);
        PageId next_page = kInvalidPage;
        for (size_t i = 0; i < kRecordsPerPage; ++i) {
            if (out->records >= ceiling) {
                return; // base budget reached: the clean reopen cut
            }
            const uint8_t *r = p + kHeaderBytes + i * kRecordBytes;
            uint32_t kind = getLe<uint32_t>(r);
            if (kind != kPageCommit && kind != kLink &&
                kind != kSeal && kind != kBaseLink && kind != kMigrate) {
                return;
            }
            if (getLe<uint32_t>(r + 40) != crc32(r, 40, seed)) {
                return; // torn append: the newest record is damaged
            }
            if (getLe<uint64_t>(r + 32) != expect_seq) {
                return; // stale bytes from an aborted rewrite
            }
            if (kind == kBaseLink) {
                // Only ever valid as the very first record of a chain,
                // pointing strictly down the generations, with a
                // non-empty budget.
                uint64_t base_gen = getLe<uint64_t>(r + 16);
                uint64_t budget = getLe<uint64_t>(r + 24);
                if (expect_seq != 1 || base_gen == 0 ||
                    base_gen >= chain_generation || budget == 0) {
                    return;
                }
                uint64_t sub_ceiling =
                    std::min(out->records + budget, ceiling);
                replayChain(getLe<uint64_t>(r + 4), base_gen,
                            sub_ceiling, depth + 1, out, saw_seal);
                if (*saw_seal || out->records != sub_ceiling) {
                    // The base tree's clean prefix fell short of its
                    // budget (or was crafted-sealed): nothing in this
                    // newer generation may build on it.
                    return;
                }
                if (out->records >= ceiling) {
                    return; // the cut lands inside the base tree
                }
            }
            ++expect_seq;
            ++out->records;
            if (kind == kPageCommit) {
                out->pages.push_back(CommittedPage{
                    .page = getLe<uint64_t>(r + 4),
                    .crc = getLe<uint32_t>(r + 12),
                    .lines = getLe<uint64_t>(r + 16),
                    .raw_bytes = getLe<uint64_t>(r + 24),
                    .record_seq = out->records,
                });
            } else if (kind == kLink) {
                next_page = getLe<uint64_t>(r + 4);
                break;
            } else if (kind == kSeal) {
                *saw_seal = true;
                break;
            }
            // kMigrate: validated and counted, but it changes no
            // logical state — the translation map is device metadata.
        }
        page_id = next_page;
        ++expect_page_seq;
    }
}

void
Journal::serialize(std::vector<uint8_t> *out) const
{
    putLe(*out, head_);
    putLe(*out, cur_);
    putLe(*out, static_cast<uint64_t>(cur_seq_));
    putLe(*out, static_cast<uint64_t>(cur_count_));
    putLe(*out, next_seq_);
    putLe(*out, epoch_);
    putLe(*out, generation_);
    putLe(*out, chained_ ? uint64_t{1} : uint64_t{0});
    putLe(*out, snapshot_head_);
    putLe(*out, base_records_);
    putLe(*out, checkpoints_);
    putLe(*out, static_cast<uint64_t>(committed_.size()));
    for (const CommittedPage &cp : committed_) {
        putLe(*out, cp.page);
        putLe(*out, static_cast<uint64_t>(cp.crc));
        putLe(*out, cp.lines);
        putLe(*out, cp.raw_bytes);
        putLe(*out, cp.record_seq);
    }
    putLe(*out, static_cast<uint64_t>(chain_pages_.size()));
    for (PageId p : chain_pages_) {
        putLe(*out, p);
    }
    putLe(*out, static_cast<uint64_t>(snapshot_pages_.size()));
    for (PageId p : snapshot_pages_) {
        putLe(*out, p);
    }
}

Status
Journal::deserialize(const uint8_t *data, size_t len, size_t *consumed)
{
    constexpr size_t kFixedBytes = 11 * sizeof(uint64_t);
    if (len < kFixedBytes + sizeof(uint64_t)) {
        return Status::corruptData("journal cursor truncated");
    }
    head_ = getLe<uint64_t>(data);
    cur_ = getLe<uint64_t>(data + 8);
    cur_seq_ = static_cast<uint32_t>(getLe<uint64_t>(data + 16));
    cur_count_ = static_cast<size_t>(getLe<uint64_t>(data + 24));
    next_seq_ = getLe<uint64_t>(data + 32);
    // Restores the persisted cursor; only the chain-head minters may
    // move the epoch / snapshot cursor otherwise.
    // mithril-lint: allow(checkpoint-epoch) restoring a persisted cursor
    epoch_ = getLe<uint64_t>(data + 40);
    // Restores the persisted stamp; only format()/reopen() mint one.
    // mithril-lint: allow(generation-bump) restoring a persisted cursor
    generation_ = getLe<uint64_t>(data + 48);
    chained_ = (getLe<uint64_t>(data + 56) & 1) != 0;
    // mithril-lint: allow(checkpoint-epoch) restoring a persisted cursor
    snapshot_head_ = getLe<uint64_t>(data + 64);
    base_records_ = getLe<uint64_t>(data + 72);
    checkpoints_ = getLe<uint64_t>(data + 80);
    size_t pos = kFixedBytes;
    uint64_t n_committed = getLe<uint64_t>(data + pos);
    pos += sizeof(uint64_t);
    if (n_committed > (len - pos) / (5 * sizeof(uint64_t))) {
        return Status::corruptData("journal cursor: bad table size");
    }
    committed_.clear();
    committed_.reserve(n_committed);
    for (uint64_t i = 0; i < n_committed; ++i) {
        CommittedPage cp;
        cp.page = getLe<uint64_t>(data + pos);
        cp.crc = static_cast<uint32_t>(getLe<uint64_t>(data + pos + 8));
        cp.lines = getLe<uint64_t>(data + pos + 16);
        cp.raw_bytes = getLe<uint64_t>(data + pos + 24);
        cp.record_seq = getLe<uint64_t>(data + pos + 32);
        committed_.push_back(cp);
        pos += 5 * sizeof(uint64_t);
    }
    for (std::vector<PageId> *list : {&chain_pages_, &snapshot_pages_}) {
        if (len - pos < sizeof(uint64_t)) {
            return Status::corruptData("journal cursor truncated");
        }
        uint64_t n = getLe<uint64_t>(data + pos);
        pos += sizeof(uint64_t);
        if (n > (len - pos) / sizeof(uint64_t)) {
            return Status::corruptData("journal cursor: bad page list");
        }
        list->clear();
        list->reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
            list->push_back(getLe<uint64_t>(data + pos));
            pos += sizeof(uint64_t);
        }
    }
    updateObsGauges();
    *consumed = pos;
    if (!formatted()) {
        cur_image_.clear();
        return Status::ok();
    }
    if (cur_count_ > kRecordsPerPage) {
        return Status::corruptData("journal cursor: bad record count");
    }
    std::span<const uint8_t> view;
    MITHRIL_RETURN_IF_ERROR(ssd_->store().read(cur_, &view));
    cur_image_.assign(view.begin(), view.end());
    return Status::ok();
}

} // namespace mithril::storage
