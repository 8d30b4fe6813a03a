/**
 * @file
 * The cuckoo hash table image the accelerator is programmed with
 * (Section 4.2, Figure 5).
 *
 * Each of the R (=256) rows stores:
 *  - a 16-byte token slot (the first datapath word of the token);
 *  - an overflow offset/length for tokens longer than one word, pointing
 *    into a shared overflow table of 16-byte words;
 *  - N (=8) pairs of (valid, negative) flags, one pair per intersection
 *    set;
 *  - an optional column constraint for prefix-tree template queries
 *    (Section 4.3's extension): when set, the token only matches at that
 *    token position within the line.
 *
 * Host software constructs this image (see QueryCompiler) and sends it to
 * the device as configuration; the emulated HashFilter then performs
 * read-only lookups against it, exactly like the BRAM in hardware.
 * The emulation answers those lookups from a host-side index instead of
 * re-hashing every token: it maps a cheap fingerprint of the token
 * bytes to the one row whose token has that fingerprint, and falls back
 * to the h0/h1 probe for a fingerprint two tokens share. It returns the
 * row the probe would, so the modeled behaviour is the hardware's.
 * Insertion uses cuckoo eviction with two hash functions; construction
 * fails — and the query must fall back to software — if an eviction chain
 * cycles, which is statistically rare below 0.5 load factor (the reason
 * the hardware over-provisions rows).
 */
#ifndef MITHRIL_ACCEL_CUCKOO_TABLE_H
#define MITHRIL_ACCEL_CUCKOO_TABLE_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "accel/datapath.h"
#include "common/hash.h"
#include "common/status.h"

namespace mithril::accel {

/** Sentinel: entry has no column constraint. */
constexpr uint16_t kAnyColumn = 0xffff;

/** One datapath word as stored in a token slot. */
using Slot = std::array<uint8_t, kDatapathBytes>;

/** One hash table row. */
struct CuckooEntry {
    bool occupied = false;
    Slot token_word{};           ///< first word, zero padded
    uint16_t token_len = 0;      ///< full token byte length
    uint16_t overflow_offset = 0;///< into the overflow table (words)
    uint16_t overflow_words = 0; ///< 0 when the token fits one word
    uint16_t column = kAnyColumn;///< prefix-tree column constraint
    uint8_t valid_mask = 0;      ///< bit i: member of intersection set i
    uint8_t negative_mask = 0;   ///< bit i: negated in set i
};

/**
 * Cuckoo table plus overflow storage, with construction-time insertion
 * and match-time lookup.
 */
class CuckooTable
{
  public:
    /** @param rows table rows (power of two, below 65534), default
     *  hardware size. */
    explicit CuckooTable(uint32_t rows = kTableRows);

    uint32_t rows() const { return static_cast<uint32_t>(entries_.size()); }

    /**
     * Inserts @p token (or merges flags into its existing entry).
     *
     * @param set      intersection set index (< kFlagPairs)
     * @param negated  negative term flag for that set
     * @param column   prefix-tree column constraint or kAnyColumn
     *
     * @retval kCapacityExceeded cuckoo eviction chain cycled, or the
     *                           overflow table is full
     * @retval kUnsupported      the token already has a conflicting
     *                           column constraint
     * @retval kInvalidArgument  set index out of range or empty token
     */
    Status insert(std::string_view token, uint32_t set, bool negated,
                  uint16_t column = kAnyColumn);

    /**
     * Looks up @p token; nullopt when absent.
     * @param column  the token's position in the line, used only against
     *                entries carrying a column constraint.
     * @return row index of the matching entry.
     */
    std::optional<uint32_t>
    lookup(std::string_view token, uint16_t column = 0) const
    {
        uint16_t cell = index_[fingerprint(token)];
        if (cell == kNoRow) {
            return std::nullopt;  // no token has this fingerprint
        }
        return lookupCell(cell, token, column);
    }

    const CuckooEntry &entry(uint32_t row) const { return entries_[row]; }

    /** Word @p i of the overflow table. */
    const Slot &overflowWord(size_t i) const { return overflow_[i]; }

    /** Occupied rows / total rows. */
    double loadFactor() const;

    /** Overflow words in use. */
    size_t overflowUsed() const { return overflow_.size(); }

    /** Number of occupied entries. */
    size_t occupiedCount() const { return occupied_; }

  private:
    /** True when the stored entry's token equals @p token exactly. */
    bool tokenEquals(const CuckooEntry &e, std::string_view token) const;

    /** Fills an entry's token fields; appends overflow words. */
    Status storeToken(CuckooEntry *e, std::string_view token);

    /** @p row if its token equals @p token and the column constraint
     *  admits @p column; nullopt otherwise. */
    std::optional<uint32_t> matchRow(uint32_t row, std::string_view token,
                                     uint16_t column) const;

    /** Lookup-index cell of @p token: a hash of its length and its
     *  first, middle and last bytes. */
    static size_t
    fingerprint(std::string_view token)
    {
        auto byte = [&](size_t i) {
            return static_cast<uint32_t>(static_cast<uint8_t>(token[i]));
        };
        uint32_t key = static_cast<uint32_t>(token.size());
        if (!token.empty()) {
            key ^= byte(0) << 8 ^ byte(token.size() / 2) << 16 ^
                   byte(token.size() - 1) << 24;
        }
        // Multiplicative hashing: the top bits of the product.
        return (key * 0x9e3779b1u) >> (32 - kIndexBits);
    }

    /** lookup() for a non-empty index cell. */
    std::optional<uint32_t> lookupCell(uint16_t cell,
                                       std::string_view token,
                                       uint16_t column) const;

    /** Records that @p row now holds its token: a new member when
     *  @p moved is false, one evicted from another row otherwise. */
    void indexRow(uint32_t row, bool moved);

    /** Lookup-index cells: a row, or one of these two states. */
    static constexpr unsigned kIndexBits = 12;
    static constexpr size_t kIndexCells = size_t{1} << kIndexBits;
    static constexpr uint16_t kNoRow = 0xffff;       ///< no token
    static constexpr uint16_t kSharedCell = 0xfffe;  ///< probe h0/h1

    HashPair hashes_;
    std::vector<CuckooEntry> entries_;
    std::vector<Slot> overflow_;
    // Full token text per row, kept host-side to re-insert on eviction
    // (hardware reconstructs this from slot+overflow; keeping the text
    // is an emulation convenience, not extra information).
    std::vector<std::string> row_token_;
    /** Fingerprint -> row of the one token with that fingerprint. */
    std::vector<uint16_t> index_;
    size_t occupied_ = 0;
};

} // namespace mithril::accel

#endif // MITHRIL_ACCEL_CUCKOO_TABLE_H
