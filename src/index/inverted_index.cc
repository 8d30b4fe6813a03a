#include "index/inverted_index.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "common/bits.h"

namespace mithril::index {

using storage::PageId;
using storage::kInvalidPage;
using storage::kPageSize;
using storage::Link;

namespace {

constexpr size_t kLeafSlotsPerPage = kPageSize / sizeof(uint64_t[17]);
// Explicit values derived from the serialized node sizes.
constexpr size_t kLeafPerPage = 4096 / 136;   // 30
constexpr size_t kRootPerPage = 4096 / 144;   // 28

} // namespace

InvertedIndex::InvertedIndex(storage::SsdModel *ssd, IndexConfig config,
                             obs::MetricsRegistry *metrics)
    : ssd_(ssd), config_(config),
      hashes_(config.hash_entries, 0x1d8f00d5ull, 0x9aa2c3b7ull),
      entries_(config.hash_entries)
{
    MITHRIL_ASSERT(config_.node_arity <= 16);
    MITHRIL_ASSERT(config_.buffer_slots <= 16);
    (void)kLeafSlotsPerPage;
    obs::MetricsRegistry &m = obs::registryOrOwn(metrics, &owned_metrics_);
    counters_.leaf_pages_allocated =
        &m.counter("index.leaf_pages_allocated");
    counters_.index_pages_allocated =
        &m.counter("index.index_pages_allocated");
    counters_.leaf_nodes_flushed = &m.counter("index.leaf_nodes_flushed");
    counters_.root_nodes_flushed = &m.counter("index.root_nodes_flushed");
    counters_.snapshots = &m.counter("index.snapshots");
    counters_.corrupt_refs = &m.counter("index.corrupt_refs");
    counters_.node_crc_recoveries =
        &m.counter("index.node_crc_recoveries");
    counters_.node_crc_failures = &m.counter("index.node_crc_failures");
    counters_.root_visits = &m.counter("index.root_visits");
    counters_.lookups = &m.counter("index.lookups");
    counters_.pages_returned = &m.counter("index.pages_returned");
}

uint32_t
InvertedIndex::entryFor(std::string_view token) const
{
    return hashes_.h0(token);
}

void
InvertedIndex::addPage(PageId data_page,
                       std::span<const std::string_view> tokens,
                       uint64_t timestamp)
{
    max_data_page_ = std::max(max_data_page_, data_page);
    for (std::string_view token : tokens) {
        uint32_t i0 = hashes_.h0(token);
        uint32_t i1 = hashes_.h1(token);
        Entry *target;
        if (config_.two_hash && i1 != i0) {
            // Push to the lighter entry: spreads heavy tokens across
            // their two candidate indices (Section 6.2).
            target = entries_[i0].total_pages <= entries_[i1].total_pages
                ? &entries_[i0]
                : &entries_[i1];
        } else {
            target = &entries_[i0];
        }
        push(target, data_page);
    }
    maybeSnapshot(timestamp);
}

void
InvertedIndex::push(Entry *entry, PageId page)
{
    // The same page arrives once per distinct token; different tokens
    // sharing this entry can repeat it back-to-back — skip those.
    if (entry->last_pushed == page) {
        return;
    }
    entry->buffer.push_back(page);
    entry->last_pushed = page;
    ++entry->total_pages;
    if (entry->buffer.size() >= config_.buffer_slots) {
        flushBuffer(entry);
    }
}

uint64_t
InvertedIndex::writeLeaf(const Entry &entry)
{
    if (open_leaf_page_ == kInvalidPage ||
        open_leaf_slot_ >= kLeafPerPage) {
        open_leaf_page_ = ssd_->allocate();
        open_leaf_slot_ = 0;
        counters_.leaf_pages_allocated->add();
    }
    LeafNode node{};
    node.count = static_cast<uint16_t>(entry.buffer.size());
    for (size_t i = 0; i < entry.buffer.size(); ++i) {
        node.addrs[i] = entry.buffer[i];
    }
    node.crc = nodeCrc(node);
    auto page = ssd_->store().mutablePage(open_leaf_page_);
    std::memcpy(page.data() + open_leaf_slot_ * sizeof(LeafNode), &node,
                sizeof(LeafNode));
    uint64_t ref = (open_leaf_page_ << kSlotBits) | open_leaf_slot_;
    ++open_leaf_slot_;
    // Meter the program cost once per filled page.
    if (open_leaf_slot_ >= kLeafPerPage) {
        ssd_->countDirectWrite();
    }
    return ref;
}

void
InvertedIndex::flushBuffer(Entry *entry)
{
    if (entry->buffer.empty()) {
        return;
    }
    uint64_t ref = writeLeaf(*entry);
    entry->buffer.clear();
    entry->leaf_refs.push_back(ref);
    ++leaf_flushes_;
    ++leaves_since_snapshot_;
    counters_.leaf_nodes_flushed->add();
    if (entry->leaf_refs.size() >= config_.node_arity) {
        flushRoot(entry);
    }
}

void
InvertedIndex::flushRoot(Entry *entry)
{
    if (entry->leaf_refs.empty()) {
        return;
    }
    if (open_root_page_ == kInvalidPage ||
        open_root_slot_ >= kRootPerPage) {
        open_root_page_ = ssd_->allocate();
        open_root_slot_ = 0;
        counters_.index_pages_allocated->add();
    }
    RootNode node{};
    node.next = entry->head_root;
    node.count = static_cast<uint16_t>(entry->leaf_refs.size());
    for (size_t i = 0; i < entry->leaf_refs.size(); ++i) {
        node.leaf_refs[i] = entry->leaf_refs[i];
    }
    node.crc = nodeCrc(node);
    auto page = ssd_->store().mutablePage(open_root_page_);
    std::memcpy(page.data() + open_root_slot_ * sizeof(RootNode), &node,
                sizeof(RootNode));
    entry->head_root = (open_root_page_ << kSlotBits) | open_root_slot_;
    ++open_root_slot_;
    entry->leaf_refs.clear();
    counters_.root_nodes_flushed->add();
}

void
InvertedIndex::flush()
{
    for (Entry &entry : entries_) {
        flushBuffer(&entry);
        flushRoot(&entry);
    }
}

void
InvertedIndex::maybeSnapshot(uint64_t timestamp)
{
    if (leaves_since_snapshot_ >= config_.snapshot_leaf_interval) {
        snapshots_.push_back({timestamp, max_data_page_});
        leaves_since_snapshot_ = 0;
        counters_.snapshots->add();
    }
}

void
InvertedIndex::collectEntry(const Entry &entry,
                            std::vector<PageId> *out,
                            bool *integrity_lost)
{
    // 1. In-memory buffer, newest first (no storage cost).
    for (auto it = entry.buffer.rbegin(); it != entry.buffer.rend(); ++it) {
        out->push_back(*it);
    }

    uint64_t page_count = ssd_->store().pageCount();

    // Defensive validation: the index is probabilistic and storage can
    // be corrupted under it; a reference or node that fails validation
    // terminates its chain (counted) instead of faulting, and flags the
    // lookup as incomplete so the query path can degrade to a full
    // scan rather than silently return a short result.
    auto lost = [&] {
        counters_.corrupt_refs->add();
        if (integrity_lost != nullptr) {
            *integrity_lost = true;
        }
    };
    auto valid_ref = [&](uint64_t ref, size_t slots_per_page) {
        return (ref >> kSlotBits) < page_count &&
               (ref & ((1u << kSlotBits) - 1)) < slots_per_page;
    };
    // CRC-driven rereads only help when a fault plan can change the
    // bytes between attempts; without one, damage is persistent and a
    // reread would return the identical copy.
    unsigned max_rereads = ssd_->faultPlan() != nullptr
                               ? ssd_->faultPlan()->config().max_retries
                               : 0;

    // Helper: fetch a batch of leaf nodes. The fanout reads are
    // independent of the *next* root hop, so they pipeline behind its
    // 100 us latency (Section 6.1's design argument); the model
    // charges them transfer time only. Each distinct page is read once
    // per batch; only CRC rejections trigger re-reads.
    auto read_leaves = [&](std::span<const uint64_t> refs) {
        std::map<PageId, std::vector<uint8_t>> cache;
        for (uint64_t ref : refs) {
            if (valid_ref(ref, kLeafPerPage)) {
                cache.emplace(ref >> kSlotBits, std::vector<uint8_t>());
            }
        }
        std::set<PageId> bad;
        for (auto &[page, bytes] : cache) {
            Status st = ssd_->readOverlapped(page, Link::kExternal,
                                             &bytes);
            if (!st.isOk()) {
                bad.insert(page);
            }
        }
        // Parse newest-first.
        for (auto it = refs.rbegin(); it != refs.rend(); ++it) {
            if (!valid_ref(*it, kLeafPerPage)) {
                lost();
                continue;
            }
            PageId page = *it >> kSlotBits;
            size_t slot = *it & ((1u << kSlotBits) - 1);
            if (bad.contains(page)) {
                lost();
                continue;
            }
            LeafNode node;
            auto extract = [&] {
                std::memcpy(&node,
                            cache[page].data() + slot * sizeof(LeafNode),
                            sizeof(LeafNode));
                return node.count <= 16 && node.crc == nodeCrc(node);
            };
            bool ok = extract();
            for (unsigned r = 0; !ok && r < max_rereads; ++r) {
                std::vector<uint8_t> fresh;
                if (!ssd_->rereadPage(page, Link::kExternal, &fresh)
                         .isOk()) {
                    break;
                }
                cache[page] = std::move(fresh);
                ok = extract();
                if (ok) {
                    counters_.node_crc_recoveries->add();
                }
            }
            if (!ok) {
                counters_.node_crc_failures->add();
                lost();
                continue;
            }
            for (size_t i = node.count; i-- > 0;) {
                // Data-page addresses are validated against the
                // index's own watermark (data pages may live on a
                // different device than the index structures).
                if (node.addrs[i] <= max_data_page_) {
                    out->push_back(node.addrs[i]);
                } else {
                    lost();
                }
            }
        }
    };

    // 2. Root under construction (leaf refs known without a chain hop).
    if (!entry.leaf_refs.empty()) {
        read_leaves(entry.leaf_refs);
    }

    // 3. The in-storage linked list of trees: one dependent read per
    //    root, then a parallel fanout over its leaves (Section 6.1).
    uint64_t ref = entry.head_root;
    uint64_t hops = 0;
    while (ref != kInvalidRef) {
        if (!valid_ref(ref, kRootPerPage) || ++hops > page_count + 1) {
            // Corrupt link or a cycle introduced by corruption.
            lost();
            break;
        }
        PageId page = ref >> kSlotBits;
        size_t slot = ref & ((1u << kSlotBits) - 1);
        std::vector<uint8_t> bytes;
        if (!ssd_->readChained(page, Link::kExternal, &bytes).isOk()) {
            lost();
            break;
        }
        RootNode node;
        auto extract = [&] {
            std::memcpy(&node, bytes.data() + slot * sizeof(RootNode),
                        sizeof(RootNode));
            return node.count <= 16 && node.crc == nodeCrc(node);
        };
        bool ok = extract();
        for (unsigned r = 0; !ok && r < max_rereads; ++r) {
            std::vector<uint8_t> fresh;
            if (!ssd_->rereadPage(page, Link::kExternal, &fresh).isOk()) {
                break;
            }
            bytes = std::move(fresh);
            ok = extract();
            if (ok) {
                counters_.node_crc_recoveries->add();
            }
        }
        if (!ok) {
            counters_.node_crc_failures->add();
            lost();
            break;
        }
        read_leaves(std::span<const uint64_t>(node.leaf_refs, node.count));
        ref = node.next;
        counters_.root_visits->add();
    }
}

std::vector<PageId>
InvertedIndex::lookup(std::string_view token, bool *integrity_lost)
{
    counters_.lookups->add();
    std::vector<PageId> pages;
    uint32_t i0 = hashes_.h0(token);
    collectEntry(entries_[i0], &pages, integrity_lost);
    if (config_.two_hash) {
        uint32_t i1 = hashes_.h1(token);
        if (i1 != i0) {
            collectEntry(entries_[i1], &pages, integrity_lost);
        }
    }
    // Traversal returned reverse chronological order; one sort restores
    // chronology and drops duplicates (page ids are allocation-ordered).
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    counters_.pages_returned->add(pages.size());
    return pages;
}

std::vector<PageId>
InvertedIndex::lookupAll(std::span<const std::string> tokens,
                         bool *integrity_lost)
{
    std::vector<PageId> result;
    bool first = true;
    for (const std::string &token : tokens) {
        std::vector<PageId> pages = lookup(token, integrity_lost);
        if (first) {
            result = std::move(pages);
            first = false;
        } else {
            std::vector<PageId> intersection;
            std::set_intersection(result.begin(), result.end(),
                                  pages.begin(), pages.end(),
                                  std::back_inserter(intersection));
            result = std::move(intersection);
        }
        if (result.empty()) {
            break;
        }
    }
    return result;
}

uint64_t
InvertedIndex::estimatePages(std::string_view token) const
{
    uint64_t estimate = entries_[hashes_.h0(token)].total_pages;
    if (config_.two_hash) {
        uint32_t i1 = hashes_.h1(token);
        if (i1 != hashes_.h0(token)) {
            estimate += entries_[i1].total_pages;
        }
    }
    return estimate;
}

std::pair<PageId, PageId>
InvertedIndex::pageRangeForTime(uint64_t t0, uint64_t t1) const
{
    // Snapshots are (timestamp, watermark) pairs in time order. The
    // range [t0, t1] maps to pages after the last watermark before t0
    // and up to the first watermark at/after t1.
    PageId lo = 0;
    PageId hi = max_data_page_;
    for (const SnapshotRecord &s : snapshots_) {
        if (s.timestamp < t0) {
            lo = s.max_data_page;
        }
        if (s.timestamp >= t1) {
            hi = s.max_data_page;
            break;
        }
    }
    return {lo, hi};
}

namespace {
constexpr uint32_t kIndexBlobMagic = 0x58444c4d;  // "MLDX"
} // namespace

void
InvertedIndex::serialize(std::vector<uint8_t> *out) const
{
    putLe<uint32_t>(*out, kIndexBlobMagic);
    putLe<uint32_t>(*out, config_.hash_entries);
    putLe<uint8_t>(*out, config_.two_hash ? 1 : 0);

    for (const Entry &entry : entries_) {
        putLe<uint16_t>(*out, static_cast<uint16_t>(entry.buffer.size()));
        for (PageId p : entry.buffer) {
            putLe<uint64_t>(*out, p);
        }
        putLe<uint16_t>(*out,
                        static_cast<uint16_t>(entry.leaf_refs.size()));
        for (uint64_t r : entry.leaf_refs) {
            putLe<uint64_t>(*out, r);
        }
        putLe<uint64_t>(*out, entry.head_root);
        putLe<uint64_t>(*out, entry.total_pages);
        putLe<uint64_t>(*out, entry.last_pushed);
    }

    putLe<uint64_t>(*out, open_leaf_page_);
    putLe<uint64_t>(*out, open_leaf_slot_);
    putLe<uint64_t>(*out, open_root_page_);
    putLe<uint64_t>(*out, open_root_slot_);
    putLe<uint64_t>(*out, leaf_flushes_);
    putLe<uint64_t>(*out, leaves_since_snapshot_);
    putLe<uint64_t>(*out, max_data_page_);
    putLe<uint32_t>(*out, static_cast<uint32_t>(snapshots_.size()));
    for (const SnapshotRecord &s : snapshots_) {
        putLe<uint64_t>(*out, s.timestamp);
        putLe<uint64_t>(*out, s.max_data_page);
    }
}

Status
InvertedIndex::deserialize(std::span<const uint8_t> in)
{
    size_t pos = 0;
    auto need = [&](size_t n) { return pos + n <= in.size(); };
    auto get16 = [&]() { uint16_t v = getLe<uint16_t>(in.data() + pos);
                         pos += 2; return v; };
    auto get32 = [&]() { uint32_t v = getLe<uint32_t>(in.data() + pos);
                         pos += 4; return v; };
    auto get64 = [&]() { uint64_t v = getLe<uint64_t>(in.data() + pos);
                         pos += 8; return v; };

    if (!need(9) ) {
        return Status::corruptData("index blob truncated");
    }
    if (get32() != kIndexBlobMagic) {
        return Status::corruptData("index blob magic mismatch");
    }
    if (get32() != config_.hash_entries ||
        (in[pos] != 0) != config_.two_hash) {
        return Status::corruptData("index blob config mismatch");
    }
    ++pos;

    for (Entry &entry : entries_) {
        if (!need(2)) {
            return Status::corruptData("index blob entry truncated");
        }
        uint16_t nbuf = get16();
        if (nbuf > config_.buffer_slots || !need(nbuf * 8ull + 2)) {
            return Status::corruptData("index blob buffer invalid");
        }
        entry.buffer.clear();
        for (uint16_t i = 0; i < nbuf; ++i) {
            entry.buffer.push_back(get64());
        }
        uint16_t nleaf = get16();
        if (nleaf > config_.node_arity || !need(nleaf * 8ull + 24)) {
            return Status::corruptData("index blob leaf refs invalid");
        }
        entry.leaf_refs.clear();
        for (uint16_t i = 0; i < nleaf; ++i) {
            entry.leaf_refs.push_back(get64());
        }
        entry.head_root = get64();
        entry.total_pages = get64();
        entry.last_pushed = get64();
    }

    if (!need(7 * 8 + 4)) {
        return Status::corruptData("index blob tail truncated");
    }
    open_leaf_page_ = get64();
    open_leaf_slot_ = get64();
    open_root_page_ = get64();
    open_root_slot_ = get64();
    leaf_flushes_ = get64();
    leaves_since_snapshot_ = get64();
    max_data_page_ = get64();
    uint32_t nsnap = get32();
    if (!need(nsnap * 16ull)) {
        return Status::corruptData("index blob snapshots truncated");
    }
    snapshots_.clear();
    for (uint32_t i = 0; i < nsnap; ++i) {
        SnapshotRecord s;
        s.timestamp = get64();
        s.max_data_page = get64();
        snapshots_.push_back(s);
    }
    return Status::ok();
}

std::vector<uint64_t>
InvertedIndex::entryLoads() const
{
    std::vector<uint64_t> loads;
    loads.reserve(entries_.size());
    for (const Entry &entry : entries_) {
        loads.push_back(entry.total_pages);
    }
    return loads;
}

size_t
InvertedIndex::memoryFootprint() const
{
    size_t total = entries_.size() * sizeof(Entry);
    for (const Entry &entry : entries_) {
        total += entry.buffer.capacity() * sizeof(PageId);
        total += entry.leaf_refs.capacity() * sizeof(uint64_t);
    }
    return total;
}

} // namespace mithril::index
