/**
 * @file
 * The open data page's distinct-token set: what each sealed page hands
 * to the inverted index (DESIGN.md §6).
 *
 * Tokens are copied into an arena of fixed-size chunks, so their views
 * stay valid until clear(), and found again through an open-addressing
 * table of (hash, index) slots. clear() keeps every allocation: the set
 * holds one page's tokens at most, and once the first pages have sized
 * it, adding a token allocates nothing. insert() returns the token's
 * first-arrival index, so a caller can keep per-token results (the
 * typed screen, DESIGN.md §15) in a vector beside the set and compute
 * each once per page.
 */
#ifndef MITHRIL_CORE_PAGE_TOKENS_H
#define MITHRIL_CORE_PAGE_TOKENS_H

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace mithril::core {

class PageTokenSet
{
  public:
    /**
     * Adds @p token unless it is already in the set, and returns its
     * index: tokens are numbered 0, 1, ... in the order they first
     * arrive, so a token the page has not seen before gets size() - 1.
     * The numbers hold until sorted().
     */
    uint32_t insert(std::string_view token);

    /**
     * The distinct tokens in byte order, the order a
     * std::set<std::string> iterates in. Sorting reorders the entries
     * the lookup table points at: clear() must come before the next
     * insert().
     */
    std::span<const std::string_view> sorted();

    /** Empties the set, keeping its memory for the next page. */
    void clear();

    size_t size() const { return tokens_.size(); }

  private:
    static constexpr size_t kChunkBytes = 16 * 1024;

    struct Slot {
        uint32_t hash = 0;
        uint32_t index = 0;  ///< 1 + position in tokens_; 0 when empty
    };

    /** @p n bytes of arena space, valid until clear(). */
    char *allocate(size_t n);

    /** Doubles the table and re-places every token. */
    void grow();

    std::vector<std::vector<char>> chunks_;
    size_t chunk_ = 0;  ///< chunk being filled
    size_t used_ = 0;   ///< bytes used in chunks_[chunk_]
    std::vector<std::string_view> tokens_;
    std::vector<Slot> slots_;  ///< power-of-two size, at most half full
    bool sorted_ = false;
};

} // namespace mithril::core

#endif // MITHRIL_CORE_PAGE_TOKENS_H
