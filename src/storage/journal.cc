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
constexpr uint32_t kMigrate = 5;

// Superblock flag bits.
constexpr uint64_t kFlagSealed = 1;   // store is complete and immutable

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

/** Fresh journal page image: header for chain position @p seq of
 *  @p generation, zero-filled record slots. */
void
initPageImage(std::vector<uint8_t> *image, uint32_t seq,
              uint64_t generation)
{
    image->clear();
    image->reserve(kPageSize);
    putLe(*image, kJournalMagic);
    putLe(*image, seq);
    putLe(*image, generation);
    putLe(*image, crc32(image->data(), image->size()));
    MITHRIL_ASSERT(image->size() == kHeaderBytes);
    image->resize(kPageSize, 0);
}

} // namespace

Status
Journal::Superblock::program(SsdModel *ssd, const Cells &next,
                             uint64_t flags)
{
    std::vector<uint8_t> sb;
    sb.reserve(kPageSize);
    putLe(sb, kSuperMagic);
    putLe(sb, kLayoutVersion);
    putLe(sb, next.epoch);
    putLe(sb, next.head);
    putLe(sb, next.generation);
    putLe(sb, next.snapshot_head);
    putLe(sb, next.snapshot_records);
    putLe(sb, flags);
    putLe(sb, crc32(sb.data(), sb.size()));
    sb.resize(kPageSize, 0);
    MITHRIL_RETURN_IF_ERROR(ssd->writePage(superSlot(next.epoch), sb));
    cells_ = next;
    return Status::ok();
}

bool
Journal::Superblock::decode(const uint8_t *p, Cells *cells,
                            uint64_t *flags)
{
    if (getLe<uint32_t>(p) != kSuperMagic ||
        getLe<uint32_t>(p + 4) != kLayoutVersion ||
        getLe<uint32_t>(p + 56) != crc32(p, 56)) {
        return false; // foreign page or torn superblock program
    }
    cells->epoch = getLe<uint64_t>(p + 8);
    cells->head = getLe<uint64_t>(p + 16);
    cells->generation = getLe<uint64_t>(p + 24);
    cells->snapshot_head = getLe<uint64_t>(p + 32);
    cells->snapshot_records = getLe<uint64_t>(p + 40);
    *flags = getLe<uint64_t>(p + 48);
    return true;
}

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
    obs_generation_->set(static_cast<double>(generation()));
    obs_chain_records_->set(static_cast<double>(chainRecords()));
    obs_snapshot_records_->set(static_cast<double>(snapshotRecords()));
}

Status
Journal::writeCurrentPage()
{
    obs_page_writes_->add();
    return ssd_->writePage(cur_, cur_image_);
}

Status
Journal::startFreshChain(uint64_t generation)
{
    cur_ = ssd_->allocate();
    chain_pages_.push_back(cur_);
    cur_seq_ = 0;
    cur_count_ = 0;
    next_seq_ = 1;
    initPageImage(&cur_image_, cur_seq_, generation);
    return writeCurrentPage();
}

Status
Journal::writeSnapshot(uint64_t generation, PageId *head_out)
{
    *head_out = kInvalidPage;
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
        putLe(image, generation);
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
        obs_page_writes_->add();
        MITHRIL_RETURN_IF_ERROR(ssd_->writePage(ids[pg], image));
    }
    snapshot_pages_ = ids;
    *head_out = ids[0];
    return Status::ok();
}

Status
Journal::publish(uint64_t epoch, uint64_t generation, uint64_t flags)
{
    // Everything before the superblock program writes only *fresh*
    // pages; the old chain and snapshot stay durable and reachable
    // through the best superblock, so a power cut anywhere in here
    // replays the old state unchanged.
    std::vector<PageId> old_pages;
    old_pages.swap(chain_pages_);
    old_pages.insert(old_pages.end(), snapshot_pages_.begin(),
                     snapshot_pages_.end());
    snapshot_pages_.clear();
    // 1. Snapshot: the committed page table in commit order — the
    //    snapshot *is* the first S logical records now.
    Superblock::Cells next{.epoch = epoch, .generation = generation};
    MITHRIL_RETURN_IF_ERROR(writeSnapshot(generation, &next.snapshot_head));
    next.snapshot_records = committed_.size();
    // 2. Fresh empty chain head (chain-local seq restarts at 1).
    MITHRIL_RETURN_IF_ERROR(startFreshChain(generation));
    next.head = cur_;
    // 3. One epoch bump publishes {snapshot, new head} atomically: a
    //    cut lands on the old superblock or the new one, never a mix.
    obs_page_writes_->add();
    MITHRIL_RETURN_IF_ERROR(sb_.program(ssd_, next, flags));
    // 4. The barrier is the commit point of the whole publication.
    MITHRIL_RETURN_IF_ERROR(ssd_->flushBarrier());
    // 5. Only now is the old footprint unreachable: reclaim it.
    for (PageId p : old_pages) {
        MITHRIL_RETURN_IF_ERROR(ssd_->store().free(p));
    }
    updateObsGauges();
    return Status::ok();
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
    // Journal page first, superblock second: a cut between the two
    // leaves no valid superblock, which replays as an empty store.
    return publish(/*epoch=*/1, /*generation=*/1, /*flags=*/0);
}

Status
Journal::checkpoint(bool sealed)
{
    MITHRIL_ASSERT(formatted());
    // Truncation drops any seal *record* with the old chain, so a
    // sealed store keeps its seal through the superblock *flag*.
    MITHRIL_RETURN_IF_ERROR(publish(sb_.cells().epoch + 1,
                                    sb_.cells().generation,
                                    sealed ? kFlagSealed : 0));
    ++checkpoints_;
    obs_checkpoints_->add();
    return Status::ok();
}

Status
Journal::reopen(const ReplayResult &rr, size_t survivors)
{
    MITHRIL_ASSERT(!formatted());
    MITHRIL_ASSERT(!rr.sealed);
    MITHRIL_ASSERT(survivors <= rr.pages.size());
    // A crash before format() completed can leave the superblock slots
    // unallocated; reserve them so the layout invariant (pages 0..1 are
    // superblock slots) holds for the new generation too.
    while (ssd_->store().pageCount() < 2) {
        (void)ssd_->allocate();
    }
    // The verified survivors become the new generation's snapshot, and
    // the footprint the replay walked is what the publish step frees.
    // Entries past the verification cut are dropped for good.
    committed_.assign(rr.pages.begin(), rr.pages.begin() + survivors);
    chain_pages_ = rr.chain_pages;
    snapshot_pages_ = rr.snapshot_pages;
    MITHRIL_RETURN_IF_ERROR(
        publish(rr.epoch + 1, rr.generation + 1, /*flags=*/0));
    obs_reopens_->add();
    return Status::ok();
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
        initPageImage(&next_image, cur_seq_ + 1, generation());
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
                     kLink, next, 0, 0, 0, next_seq_, generation());
        ++next_seq_;
        obs_records_->add();
        obs_page_writes_->add();
        MITHRIL_RETURN_IF_ERROR(ssd_->writePage(saved_page, saved));
    }
    encodeRecord(cur_image_.data() + kHeaderBytes +
                     cur_count_ * kRecordBytes,
                 kind, arg, page_crc, lines, raw_bytes, next_seq_,
                 generation());
    ++next_seq_;
    ++cur_count_;
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
    committed_.push_back(CommittedPage{
        .page = page,
        .crc = page_crc,
        .lines = lines,
        .raw_bytes = raw_bytes,
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
    // superblock just lets a mount skip the inference.
    Superblock::Cells next = sb_.cells();
    ++next.epoch;
    obs_page_writes_->add();
    MITHRIL_RETURN_IF_ERROR(sb_.program(ssd_, next, kFlagSealed));
    return ssd_->flushBarrier();
}

Status
Journal::replay(ReplayResult *out)
{
    *out = ReplayResult{};
    const PageStore &store = ssd_->store();

    // Pick the valid superblock with the highest epoch.
    Superblock::Cells best;
    for (PageId slot = 0; slot < 2 && slot < store.pageCount(); ++slot) {
        std::vector<uint8_t> page;
        Status s = ssd_->readChained(slot, Link::kInternal, &page);
        if (!s.isOk()) {
            continue; // unreadable slot: fall back to the other one
        }
        Superblock::Cells cells;
        uint64_t flags = 0;
        if (Superblock::decode(page.data(), &cells, &flags) &&
            cells.epoch > best.epoch) {
            best = cells;
            out->sealed = (flags & kFlagSealed) != 0;
        }
    }
    if (best.epoch == 0) {
        // Crash before format completed: an empty store is the whole
        // durable state.
        out->sealed = false;
        return Status::ok();
    }
    out->epoch = best.epoch;
    out->generation = best.generation;

    // Load the snapshot first: its entries are the first
    // snapshot_records logical records. The snapshot was durable before
    // the superblock that names it, so damage here means a lying device
    // — and because the chain builds on the snapshot, nothing newer may
    // replay past a shortfall (prefix semantics).
    if (best.snapshot_head != kInvalidPage &&
        !replaySnapshot(best.snapshot_head, best.generation,
                        best.snapshot_records, out)) {
        return Status::ok();
    }

    // Walk the chain tail; stop at the first record that fails
    // validation — everything before it was covered by a durability
    // barrier. Sealed if either the seal record survived or the sealed
    // superblock did (a lying device can tear the record yet ack it;
    // the superblock still marks the store immutable).
    bool saw_seal = replayChain(best.head, best.generation, out);
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
            });
        }
        out->snapshot_pages.push_back(page_id);
        ++out->journal_pages;
        page_id = next;
        ++expect_seq;
    }
    return out->snapshot_records == expected;
}

bool
Journal::replayChain(PageId head, uint64_t generation, ReplayResult *out)
{
    uint32_t seed = generationSeed(generation);
    PageId page_id = head;
    uint32_t expect_page_seq = 0;
    uint64_t expect_seq = 1; // chain-local record seq
    while (page_id != kInvalidPage) {
        std::vector<uint8_t> page;
        if (!ssd_->readChained(page_id, Link::kInternal, &page).isOk()) {
            return false;
        }
        const uint8_t *p = page.data();
        if (getLe<uint32_t>(p) != kJournalMagic ||
            getLe<uint32_t>(p + 4) != expect_page_seq ||
            getLe<uint64_t>(p + 8) != generation ||
            getLe<uint32_t>(p + 16) != crc32(p, 16)) {
            return false;
        }
        ++out->journal_pages;
        out->chain_pages.push_back(page_id);
        PageId next_page = kInvalidPage;
        for (size_t i = 0; i < kRecordsPerPage; ++i) {
            const uint8_t *r = p + kHeaderBytes + i * kRecordBytes;
            uint32_t kind = getLe<uint32_t>(r);
            if (kind != kPageCommit && kind != kLink && kind != kSeal &&
                kind != kMigrate) {
                return false;
            }
            if (getLe<uint32_t>(r + 40) != crc32(r, 40, seed)) {
                return false; // torn append: the newest record is damaged
            }
            if (getLe<uint64_t>(r + 32) != expect_seq) {
                return false; // stale bytes from an aborted rewrite
            }
            ++expect_seq;
            ++out->records;
            if (kind == kPageCommit) {
                out->pages.push_back(CommittedPage{
                    .page = getLe<uint64_t>(r + 4),
                    .crc = getLe<uint32_t>(r + 12),
                    .lines = getLe<uint64_t>(r + 16),
                    .raw_bytes = getLe<uint64_t>(r + 24),
                });
            } else if (kind == kLink) {
                next_page = getLe<uint64_t>(r + 4);
                break;
            } else if (kind == kSeal) {
                return true;
            }
            // kMigrate: validated and counted, but it changes no
            // logical state — the translation map is device metadata.
        }
        page_id = next_page;
        ++expect_page_seq;
    }
    return false;
}

} // namespace mithril::storage
