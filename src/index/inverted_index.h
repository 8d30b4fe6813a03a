/**
 * @file
 * In-storage inverted index (Section 6, Figure 11).
 *
 * The index maps tokens to the data pages containing them, with three
 * design goals from the paper: small host-memory footprint during
 * ingest, storage-bandwidth-saturating queries, and probabilistic
 * operation (no token text stored — false-positive pages are filtered
 * out downstream by the accelerator).
 *
 * Structure per in-memory hash entry:
 *   - a 16-slot buffer of data-page addresses;
 *   - a root-under-construction holding up to 16 leaf-node references;
 *   - the head of an in-storage linked list of height-2 trees: each
 *     tree root holds 16 leaf references, each leaf holds 16 data page
 *     addresses, so one latency-bound root visit yields up to 256
 *     independent data-page addresses (Section 6.1's bandwidth
 *     argument).
 *
 * The buffer and the root under construction are the entry's
 * host-resident open state, as in the paper (Section 6.1): a leaf is
 * written only when its buffer fills, and a root only when it holds 16
 * leaves, so storage holds full nodes only. Lookups read the open
 * state from memory.
 *
 * Two hash functions index the table; each token's pages are pushed to
 * whichever of its two entries currently holds fewer pages, and queries
 * read both entries (Section 6.2). New roots are prepended, so
 * traversal returns pages in reverse chronological order; queries
 * intersect in read order and reverse once at the end (Section 6.3).
 *
 * Coarse time-based queries are supported through snapshots: after a
 * threshold of leaf activity, the index records a (timestamp, data-page
 * watermark) pair; a time range then maps to a page-id range
 * (Section 6.3).
 */
#ifndef MITHRIL_INDEX_INVERTED_INDEX_H
#define MITHRIL_INDEX_INVERTED_INDEX_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/ssd_model.h"

namespace mithril::index {

/** Index configuration; defaults follow the prototype's sizes. */
struct IndexConfig {
    /** In-memory hash table entries (power of two). */
    uint32_t hash_entries = 1u << 15;
    /** Use the two-hash balancing scheme (false = single hash,
     *  kept for the Section 6.2 ablation). */
    bool two_hash = true;
    /** Leaf flushes between snapshot records (time indexing). */
    uint64_t snapshot_leaf_interval = 4096;
};

/** One coarse time-index record. */
struct SnapshotRecord {
    uint64_t timestamp;
    storage::PageId max_data_page;  ///< highest data page at the flush
};

/** The inverted index; shares an SsdModel with the data pages. */
class InvertedIndex
{
  public:
    /** Counts into @p metrics (or, when null, a registry of its own)
     *  as `index.*`: lookups, pages_returned (candidate pages), node
     *  flushes and page allocations, snapshots, corrupt refs and node
     *  CRC recoveries/failures, root visits. */
    InvertedIndex(storage::SsdModel *ssd, IndexConfig config = IndexConfig{},
                  obs::MetricsRegistry *metrics = nullptr);

    const IndexConfig &config() const { return config_; }

    /**
     * Ingest: registers that every token of @p tokens occurs in
     * @p data_page. Call once per sealed data page with the page's
     * distinct token set; @p timestamp drives snapshotting.
     */
    void addPage(storage::PageId data_page,
                 std::span<const std::string_view> tokens,
                 uint64_t timestamp);

    /**
     * Candidate data pages for @p token, in chronological order.
     * Includes false positives (other tokens sharing the entries).
     * Reads are metered on the shared SsdModel.
     *
     * When @p integrity_lost is non-null it is set to true if any part
     * of the traversal was unrecoverable (node CRC failure after
     * retries, unreadable index page, corrupt chain link) — the result
     * may then be missing candidate pages, and the caller must treat
     * it as incomplete (the query path degrades to a full scan).
     */
    std::vector<storage::PageId> lookup(std::string_view token,
                                        bool *integrity_lost = nullptr);

    /**
     * Candidate pages for a conjunction: intersection of the page sets
     * of @p tokens (computed in read order, reversed once at the end).
     * With an empty token list returns an empty vector.
     * @p integrity_lost aggregates across all per-token lookups.
     */
    std::vector<storage::PageId>
    lookupAll(std::span<const std::string> tokens,
              bool *integrity_lost = nullptr);

    /** Pages recorded between @p t0 and @p t1 according to snapshots
     *  (coarse: snapshot granularity). */
    std::pair<storage::PageId, storage::PageId>
    pageRangeForTime(uint64_t t0, uint64_t t1) const;

    /**
     * O(1) upper bound on the pages a lookup of @p token would return,
     * from the in-memory entry counters (includes false-positive
     * postings from sharing tokens). Query planning uses this to skip
     * index traversal when pruning cannot pay off.
     */
    uint64_t estimatePages(std::string_view token) const;

    /** All snapshot records (diagnostics / tests). */
    const std::vector<SnapshotRecord> &snapshots() const
    {
        return snapshots_;
    }

    /** Approximate resident memory of the index structures. */
    size_t memoryFootprint() const;

    /** Per-entry total page-postings (load-balance diagnostics for the
     *  Section 6.2 two-hash ablation). */
    std::vector<uint64_t> entryLoads() const;

  private:
    static constexpr uint64_t kInvalidRef = ~0ull;
    /** Node references pack (page << 6 | slot). */
    static constexpr uint64_t kSlotBits = 6;

    struct Entry {
        std::vector<storage::PageId> buffer;   // newest last
        std::vector<uint64_t> leaf_refs;       // root under construction
        uint64_t head_root = kInvalidRef;
        uint64_t total_pages = 0;
        storage::PageId last_pushed = storage::kInvalidPage;
    };

    /** Data-page addresses buffered in memory per entry: one leaf. */
    static constexpr size_t kBufferSlots = 16;
    /** Arity of both tree levels (16 x 16 = 256 pages per root). */
    static constexpr size_t kNodeArity = 16;

    /** Serialized leaf node: one entry's buffer, CRC-framed. */
    struct LeafNode {
        uint64_t addrs[16];
        uint16_t count;
        uint16_t pad;
        uint32_t crc;  ///< CRC-32 of the node with this field zeroed
    };
    static_assert(sizeof(LeafNode) == 136);
    static_assert(kBufferSlots == std::extent_v<decltype(LeafNode::addrs)>);

    /** Serialized root node: leaf refs + list link, CRC-framed. */
    struct RootNode {
        uint64_t leaf_refs[16];
        uint64_t next;
        uint16_t count;
        uint16_t pad;
        uint32_t crc;  ///< CRC-32 of the node with this field zeroed
    };
    static_assert(sizeof(RootNode) == 144);
    static_assert(kNodeArity ==
                  std::extent_v<decltype(RootNode::leaf_refs)>);

    /** CRC over a node image with its crc field zeroed; detects any
     *  bit flip in the 136/144-byte node a read returned. */
    template <typename Node>
    static uint32_t
    nodeCrc(Node node)
    {
        node.crc = 0;
        return crc32(&node, sizeof node);
    }

    uint32_t entryFor(std::string_view token) const;
    void push(Entry *entry, storage::PageId page);
    void flushBuffer(Entry *entry);
    void flushRoot(Entry *entry);
    uint64_t writeLeaf(const Entry &entry);
    void maybeSnapshot(uint64_t timestamp);

    /** Reads pages of one entry, newest first; sets @p integrity_lost
     *  on unrecoverable traversal damage (may be null). */
    void collectEntry(const Entry &entry,
                      std::vector<storage::PageId> *out,
                      bool *integrity_lost);

    storage::SsdModel *ssd_;
    IndexConfig config_;
    HashPair hashes_;
    std::vector<Entry> entries_;

    // Open leaf/root pages being packed (one node at a time).
    storage::PageId open_leaf_page_ = storage::kInvalidPage;
    size_t open_leaf_slot_ = 0;
    storage::PageId open_root_page_ = storage::kInvalidPage;
    size_t open_root_slot_ = 0;

    uint64_t leaves_since_snapshot_ = 0;
    storage::PageId max_data_page_ = 0;
    std::vector<SnapshotRecord> snapshots_;

    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    /** `index.*` handles, resolved once at construction. */
    struct Counters {
        obs::Counter *leaf_pages_allocated = nullptr;
        obs::Counter *index_pages_allocated = nullptr;
        obs::Counter *leaf_nodes_flushed = nullptr;
        obs::Counter *root_nodes_flushed = nullptr;
        obs::Counter *snapshots = nullptr;
        obs::Counter *corrupt_refs = nullptr;
        obs::Counter *node_crc_recoveries = nullptr;
        obs::Counter *node_crc_failures = nullptr;
        obs::Counter *root_visits = nullptr;
        obs::Counter *lookups = nullptr;
        obs::Counter *pages_returned = nullptr;
    } counters_;
};

} // namespace mithril::index

#endif // MITHRIL_INDEX_INVERTED_INDEX_H
