#include "typed/typed_index.h"

#include <algorithm>
#include <cstring>

#include "common/bits.h"
#include "common/hash.h"
#include "typed/extract.h"

namespace mithril::typed {

namespace {

constexpr size_t kHeaderSize = 16;
constexpr size_t kMaxPayload = storage::kPageSize - kHeaderSize;

/** LEB128 varint append. */
void
putVarint(std::vector<uint8_t> *out, uint64_t value)
{
    while (value >= 0x80) {
        out->push_back(static_cast<uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out->push_back(static_cast<uint8_t>(value));
}

/** LEB128 varint read; false on truncation/overlong input. */
bool
getVarint(std::span<const uint8_t> payload, size_t *pos, uint64_t *out)
{
    uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (*pos >= payload.size()) {
            return false;
        }
        uint8_t byte = payload[(*pos)++];
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            *out = value;
            return true;
        }
    }
    return false;
}

/** Bytes one posting record occupies for @p key with @p count lines
 *  encoded as @p delta_bytes of varints. */
size_t
recordSize(size_t key_len, size_t delta_bytes)
{
    return 1 + 2 + 4 + key_len + delta_bytes;
}

} // namespace

TypedIndex::TypedIndex(storage::SsdModel *ssd,
                       obs::MetricsRegistry *metrics)
    : ssd_(ssd)
{
    obs::MetricsRegistry &m = obs::registryOrOwn(metrics, &owned_metrics_);
    counters_.postings = &m.counter("typed.postings");
    counters_.pages_written = &m.counter("typed.pages_written");
    counters_.bytes_written = &m.counter("typed.bytes_written");
    counters_.records_flushed = &m.counter("typed.records_flushed");
    counters_.lookups = &m.counter("typed.lookups");
    counters_.page_crc_recoveries =
        &m.counter("typed.page_crc_recoveries");
    counters_.pages_read = &m.counter("typed.pages_read");
    counters_.corrupt_pages = &m.counter("typed.corrupt_pages");
    counters_.lines_returned = &m.counter("typed.lines_returned");
}

void
TypedIndex::addLine(std::span<const std::string_view> tokens,
                    uint64_t line_no)
{
    extractTokens(tokens, [&](const TypedKey &key) {
        KeyEntry &entry = keys_[key];
        if (!entry.pending.empty() && entry.pending.back() == line_no) {
            return; // one posting per (key, line)
        }
        entry.pending.push_back(line_no);
        counters_.postings->add();
    });
}

void
TypedIndex::flushPageBuffer(std::vector<uint8_t> *payload,
                            std::vector<const TypedKey *> *page_keys)
{
    if (payload->empty()) {
        return;
    }
    storage::PageId id = ssd_->allocate();
    auto page = ssd_->store().mutablePage(id);
    std::memset(page.data(), 0, page.size());
    PageHeader header{kTypedMagic, kTypedVersion,
                      static_cast<uint32_t>(payload->size()),
                      crc32(payload->data(), payload->size())};
    std::memcpy(page.data(), &header, sizeof header);
    std::memcpy(page.data() + kHeaderSize, payload->data(),
                payload->size());
    for (const TypedKey *key : *page_keys) {
        std::vector<storage::PageId> &pages = keys_[*key].pages;
        if (pages.empty() || pages.back() != id) {
            pages.push_back(id);
        }
    }
    counters_.pages_written->add();
    counters_.bytes_written->add(storage::kPageSize);
    payload->clear();
    page_keys->clear();
}

void
TypedIndex::flush()
{
    std::vector<uint8_t> payload;
    std::vector<const TypedKey *> page_keys;
    // std::map iteration is key-sorted: page contents are a
    // deterministic function of the postings alone.
    for (auto &[key, entry] : keys_) {
        size_t next = 0;
        while (next < entry.pending.size()) {
            // Encode as many of this key's remaining postings as fit
            // beside the current payload; records never span pages.
            std::vector<uint8_t> deltas;
            size_t count = 0;
            uint64_t prev = 0;
            // Keys are bounded (longest is a 64-nibble hex id), so an
            // empty page always fits a record header plus one 10-byte
            // worst-case varint.
            size_t header_cost = recordSize(key.bytes.size(), 0);
            if (header_cost + 10 > kMaxPayload - payload.size()) {
                flushPageBuffer(&payload, &page_keys);
            }
            size_t budget = kMaxPayload - payload.size() - header_cost;
            for (size_t i = next; i < entry.pending.size(); ++i) {
                size_t before = deltas.size();
                putVarint(&deltas, count == 0
                                       ? entry.pending[i]
                                       : entry.pending[i] - prev);
                if (deltas.size() > budget) {
                    deltas.resize(before);
                    break;
                }
                prev = entry.pending[i];
                ++count;
            }
            MITHRIL_ASSERT(count > 0);
            payload.push_back(static_cast<uint8_t>(key.kind));
            putLe(payload, static_cast<uint16_t>(key.bytes.size()));
            putLe(payload, static_cast<uint32_t>(count));
            payload.insert(payload.end(), key.bytes.begin(),
                           key.bytes.end());
            payload.insert(payload.end(), deltas.begin(), deltas.end());
            page_keys.push_back(&key);
            counters_.records_flushed->add();
            next += count;
            if (payload.size() + recordSize(1, 10) > kMaxPayload) {
                flushPageBuffer(&payload, &page_keys);
            }
        }
        entry.pending.clear();
    }
    flushPageBuffer(&payload, &page_keys);
}

LookupResult
TypedIndex::lookup(const Predicate &pred)
{
    LookupResult result;
    counters_.lookups->add();
    if (!pred.active()) {
        return result;
    }

    // Sorted-map range scan over [lo, hi] of the predicate's kind —
    // this is why the key encoding must be order-preserving.
    std::vector<storage::PageId> needed;
    TypedKey lo_key{pred.kind, pred.lo};
    for (auto it = keys_.lower_bound(lo_key); it != keys_.end(); ++it) {
        if (it->first.kind != pred.kind || it->first.bytes > pred.hi) {
            break;
        }
        result.lines.insert(result.lines.end(),
                            it->second.pending.begin(),
                            it->second.pending.end());
        needed.insert(needed.end(), it->second.pages.begin(),
                      it->second.pages.end());
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()),
                 needed.end());

    // CRC-driven re-reads only help when a fault plan can change the
    // bytes between attempts (same convention as the inverted index).
    unsigned max_rereads = ssd_->faultPlan() != nullptr
                               ? ssd_->faultPlan()->config().max_retries
                               : 0;

    for (storage::PageId id : needed) {
        std::vector<uint8_t> bytes;
        auto readable = [&](const std::vector<uint8_t> &buf,
                            PageHeader *header) {
            if (buf.size() < kHeaderSize) {
                return false;
            }
            std::memcpy(header, buf.data(), sizeof *header);
            return header->magic == kTypedMagic
                   && header->version == kTypedVersion
                   && header->payload_len <= kMaxPayload
                   && header->crc == crc32(buf.data() + kHeaderSize,
                                           header->payload_len);
        };
        PageHeader header{};
        Status st = ssd_->readOverlapped(id, storage::Link::kExternal,
                                         &bytes);
        bool ok = st.isOk() && readable(bytes, &header);
        for (unsigned r = 0; !ok && r < max_rereads; ++r) {
            if (!ssd_->rereadPage(id, storage::Link::kExternal, &bytes)
                     .isOk()) {
                break;
            }
            ok = readable(bytes, &header);
            if (ok) {
                counters_.page_crc_recoveries->add();
            }
        }
        result.pages_read += 1;
        result.bytes_read += storage::kPageSize;
        counters_.pages_read->add();
        if (!ok) {
            counters_.corrupt_pages->add();
            result.integrity_lost = true;
            continue;
        }

        std::span<const uint8_t> payload(bytes.data() + kHeaderSize,
                                         header.payload_len);
        size_t pos = 0;
        while (pos < payload.size()) {
            if (payload.size() - pos < 7) {
                break; // zero padding after the last record
            }
            auto kind = static_cast<TypedKind>(payload[pos]);
            uint16_t key_len = getLe<uint16_t>(&payload[pos + 1]);
            uint32_t count = getLe<uint32_t>(&payload[pos + 3]);
            pos += 7;
            if (kind == TypedKind::kNone || count == 0
                || payload.size() - pos < key_len) {
                break;
            }
            std::span<const uint8_t> key_bytes =
                payload.subspan(pos, key_len);
            pos += key_len;
            std::vector<uint8_t> key_vec(key_bytes.begin(),
                                         key_bytes.end());
            bool match = kind == pred.kind && key_vec >= pred.lo
                         && key_vec <= pred.hi;
            uint64_t prev = 0;
            bool bad = false;
            for (uint32_t i = 0; i < count; ++i) {
                uint64_t delta = 0;
                if (!getVarint(payload, &pos, &delta)) {
                    bad = true;
                    break;
                }
                prev = i == 0 ? delta : prev + delta;
                if (match) {
                    result.lines.push_back(prev);
                }
            }
            if (bad) {
                // Truncated record despite a clean CRC: structural
                // corruption; treat like an unreadable page.
                counters_.corrupt_pages->add();
                result.integrity_lost = true;
                break;
            }
        }
    }

    std::sort(result.lines.begin(), result.lines.end());
    result.lines.erase(
        std::unique(result.lines.begin(), result.lines.end()),
        result.lines.end());
    counters_.lines_returned->add(result.lines.size());
    return result;
}

size_t
TypedIndex::memoryFootprint() const
{
    size_t total = sizeof(*this);
    for (const auto &[key, entry] : keys_) {
        total += sizeof(TypedKey) + key.bytes.capacity()
                 + sizeof(KeyEntry)
                 + entry.pending.capacity() * sizeof(uint64_t)
                 + entry.pages.capacity() * sizeof(storage::PageId);
    }
    return total;
}

} // namespace mithril::typed
