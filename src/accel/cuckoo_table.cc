#include "accel/cuckoo_table.h"

#include <cstring>

namespace mithril::accel {

namespace {

/** Maximum evictions before declaring the insertion chain cyclic. */
constexpr size_t kMaxKicks = 512;

} // namespace

CuckooTable::CuckooTable(uint32_t rows)
    : hashes_(rows), entries_(rows), row_token_(rows),
      index_(kIndexCells, kNoRow)
{
    MITHRIL_ASSERT(rows < kSharedCell);
}

void
CuckooTable::indexRow(uint32_t row, bool moved)
{
    // Insertion never removes a token, so a cell is empty until its
    // first token arrives and shared from its second one on; only the
    // sole token of a cell moves its row there.
    uint16_t &cell = index_[fingerprint(row_token_[row])];
    if (cell == kSharedCell) {
        return;
    }
    cell = (moved || cell == kNoRow) ? static_cast<uint16_t>(row)
                                     : kSharedCell;
}

bool
CuckooTable::tokenEquals(const CuckooEntry &e, std::string_view token) const
{
    if (!e.occupied || e.token_len != token.size()) {
        return false;
    }
    size_t first = std::min(token.size(), kDatapathBytes);
    if (std::memcmp(e.token_word.data(), token.data(), first) != 0) {
        return false;
    }
    size_t off = kDatapathBytes;
    for (uint16_t w = 0; w < e.overflow_words; ++w) {
        const Slot &slot = overflow_[e.overflow_offset + w];
        size_t take = std::min(token.size() - off, kDatapathBytes);
        if (std::memcmp(slot.data(), token.data() + off, take) != 0) {
            return false;
        }
        off += take;
    }
    return true;
}

Status
CuckooTable::storeToken(CuckooEntry *e, std::string_view token)
{
    e->token_word = Slot{};
    size_t first = std::min(token.size(), kDatapathBytes);
    std::memcpy(e->token_word.data(), token.data(), first);
    e->token_len = static_cast<uint16_t>(token.size());
    e->overflow_words = 0;
    e->overflow_offset = 0;
    if (token.size() > kDatapathBytes) {
        size_t words = tokenWords(token.size()) - 1;
        if (overflow_.size() + words > kOverflowWords) {
            return Status::capacityExceeded("overflow table full");
        }
        e->overflow_offset = static_cast<uint16_t>(overflow_.size());
        e->overflow_words = static_cast<uint16_t>(words);
        size_t off = kDatapathBytes;
        for (size_t w = 0; w < words; ++w) {
            Slot slot{};
            size_t take = std::min(token.size() - off, kDatapathBytes);
            std::memcpy(slot.data(), token.data() + off, take);
            overflow_.push_back(slot);
            off += take;
        }
    }
    return Status::ok();
}

Status
CuckooTable::insert(std::string_view token, uint32_t set, bool negated,
                    uint16_t column)
{
    if (token.empty()) {
        return Status::invalidArgument("empty token");
    }
    if (set >= kFlagPairs) {
        return Status::invalidArgument("intersection set index too large");
    }
    if (token.size() > 0xffff) {
        return Status::invalidArgument("token longer than 64 KiB");
    }

    uint32_t r0 = hashes_.h0(token);
    uint32_t r1 = hashes_.h1(token);

    // Merge into an existing entry for the same token.
    for (uint32_t r : {r0, r1}) {
        CuckooEntry &e = entries_[r];
        if (tokenEquals(e, token)) {
            if (e.column != column) {
                return Status::unsupported(
                    "token carries a conflicting column constraint");
            }
            uint8_t bit = static_cast<uint8_t>(1u << set);
            bool was_member = e.valid_mask & bit;
            bool was_negative = e.negative_mask & bit;
            if (was_member && was_negative != negated) {
                return Status::invalidArgument(
                    "token both positive and negative in one set");
            }
            e.valid_mask |= bit;
            if (negated) {
                e.negative_mask |= bit;
            }
            return Status::ok();
        }
    }

    // Build the new entry, then place it with cuckoo eviction.
    CuckooEntry incoming;
    incoming.occupied = true;
    incoming.column = column;
    incoming.valid_mask = static_cast<uint8_t>(1u << set);
    incoming.negative_mask = negated ? static_cast<uint8_t>(1u << set) : 0;
    MITHRIL_RETURN_IF_ERROR(storeToken(&incoming, token));
    std::string incoming_token(token);

    uint32_t target = r0;
    bool moved = false;  // incoming is an evicted member, not the new one
    for (size_t kick = 0; kick < kMaxKicks; ++kick) {
        if (!entries_[target].occupied) {
            entries_[target] = incoming;
            row_token_[target] = std::move(incoming_token);
            indexRow(target, moved);
            ++occupied_;
            return Status::ok();
        }
        // Also try the incoming token's alternate before evicting.
        uint32_t alt_in = hashes_.h0(incoming_token) == target
            ? hashes_.h1(incoming_token)
            : hashes_.h0(incoming_token);
        if (!entries_[alt_in].occupied) {
            entries_[alt_in] = incoming;
            row_token_[alt_in] = std::move(incoming_token);
            indexRow(alt_in, moved);
            ++occupied_;
            return Status::ok();
        }
        // Evict the occupant of `target` to its alternate slot.
        std::swap(entries_[target], incoming);
        std::swap(row_token_[target], incoming_token);
        indexRow(target, moved);
        moved = true;
        uint32_t h0 = hashes_.h0(incoming_token);
        uint32_t h1 = hashes_.h1(incoming_token);
        target = (h0 == target) ? h1 : h0;
    }
    return Status::capacityExceeded("cuckoo eviction chain cycled");
}

std::optional<uint32_t>
CuckooTable::matchRow(uint32_t row, std::string_view token,
                      uint16_t column) const
{
    const CuckooEntry &e = entries_[row];
    if (!tokenEquals(e, token) ||
        (e.column != kAnyColumn && e.column != column)) {
        return std::nullopt;  // other token, or column unsatisfied
    }
    return row;
}

std::optional<uint32_t>
CuckooTable::lookupCell(uint16_t cell, std::string_view token,
                        uint16_t column) const
{
    if (cell != kSharedCell) {
        return matchRow(cell, token, column);
    }
    // Two tokens share the fingerprint: probe both hash rows, as the
    // hardware does for every token.
    uint32_t r0 = hashes_.h0(token);
    if (tokenEquals(entries_[r0], token)) {
        return matchRow(r0, token, column);
    }
    return matchRow(hashes_.h1(token), token, column);
}

double
CuckooTable::loadFactor() const
{
    return static_cast<double>(occupied_) / entries_.size();
}

} // namespace mithril::accel
