/**
 * @file
 * Typed-field pseudo-index: per-type posting lists on device pages
 * (DESIGN.md §15).
 *
 * Where the inverted index maps tokens to *data pages*, the typed index
 * maps normalized typed keys (IPs, MACs, hex ids, timestamps) to *line
 * numbers* — the logpi model: a tiny side index that answers "which
 * lines mention this address" without touching the compressed data at
 * all. core::MithriLog's page directory maps the hit lines back to the
 * exact data pages to stage.
 *
 * Layout: an in-memory sorted key directory (key -> pending postings +
 * the device pages already holding flushed postings) over CRC-framed
 * 4 KB posting pages:
 *
 *   page   = header { magic 'MTYP', version, payload_len, crc32 }
 *            record*                      (records never split pages)
 *   record = { kind u8, key_len u16, count u32, key bytes,
 *              varint line deltas (first absolute, then gaps) }
 *
 * Durability follows the inverted index exactly: posting pages are
 * written through the store directly (no journaling, no fault draw on
 * the write path — so the crash grid's write ordinals are unchanged),
 * are swept as garbage at mount time, and are rebuilt from the
 * journal-verified surviving data pages. Reads go through the faulted
 * overlapped-read path with CRC verification and the fault plan's
 * retry budget; unrecoverable damage reports integrity_lost and the
 * query degrades to a typed full scan.
 */
#ifndef MITHRIL_TYPED_TYPED_INDEX_H
#define MITHRIL_TYPED_TYPED_INDEX_H

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/ssd_model.h"
#include "typed/predicate.h"
#include "typed/typed_key.h"

namespace mithril::typed {

/** Result of one predicate lookup against the posting lists. */
struct LookupResult {
    /** Matching line numbers, ascending, unique. Complete unless
     *  integrity_lost. */
    std::vector<uint64_t> lines;
    uint64_t pages_read = 0;  ///< typed-index pages fetched
    uint64_t bytes_read = 0;  ///< typed-index bytes fetched
    /** Posting bytes unrecoverable after retries: the line list may be
     *  missing entries and the caller must degrade to a scan. */
    bool integrity_lost = false;
};

/** The typed posting-list index; shares the SsdModel with the data. */
class TypedIndex
{
  public:
    /** Counts into @p metrics (or, when null, a registry of its own)
     *  as `typed.*`: postings, pages and bytes written/read, records
     *  flushed, lookups, lines returned, corrupt pages and page CRC
     *  recoveries. */
    explicit TypedIndex(storage::SsdModel *ssd,
                        obs::MetricsRegistry *metrics = nullptr);

    /** Ingest: extracts every typed key of the line split into
     *  @p tokens (0-based global @p line_no) into the pending posting
     *  lists. */
    void addLine(std::span<const std::string_view> tokens,
                 uint64_t line_no);

    /** Packs all pending postings into posting pages on the device. */
    void flush();

    /** Resolves @p pred against flushed pages + the pending tail. */
    LookupResult lookup(const Predicate &pred);

    /** Distinct keys currently tracked (tests/diagnostics). */
    size_t keyCount() const { return keys_.size(); }

    size_t memoryFootprint() const;

  private:
    struct KeyEntry {
        std::vector<uint64_t> pending;        ///< unflushed line numbers
        std::vector<storage::PageId> pages;   ///< posting pages with
                                              ///< records for this key
    };

    /** On-device posting page header (little-endian fields). */
    struct PageHeader {
        uint32_t magic;        ///< kTypedMagic
        uint32_t version;      ///< kTypedVersion
        uint32_t payload_len;  ///< record bytes after the header
        uint32_t crc;          ///< CRC-32 of the payload
    };
    static constexpr uint32_t kTypedMagic = 0x5059544d;  // 'MTYP'
    static constexpr uint32_t kTypedVersion = 1;

    void flushPageBuffer(std::vector<uint8_t> *payload,
                         std::vector<const TypedKey *> *page_keys);

    storage::SsdModel *ssd_;
    std::map<TypedKey, KeyEntry> keys_;

    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    /** `typed.*` handles, resolved once at construction. */
    struct Counters {
        obs::Counter *postings = nullptr;
        obs::Counter *pages_written = nullptr;
        obs::Counter *bytes_written = nullptr;
        obs::Counter *records_flushed = nullptr;
        obs::Counter *lookups = nullptr;
        obs::Counter *page_crc_recoveries = nullptr;
        obs::Counter *pages_read = nullptr;
        obs::Counter *corrupt_pages = nullptr;
        obs::Counter *lines_returned = nullptr;
    } counters_;
};

} // namespace mithril::typed

#endif // MITHRIL_TYPED_TYPED_INDEX_H
