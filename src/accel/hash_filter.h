/**
 * @file
 * Hash filter module emulation (Section 4.2.3, Figure 6).
 *
 * The hash filter consumes the tokenized stream one datapath word per
 * cycle, looks each token up in the cuckoo table, and maintains N R-bit
 * bitmaps (one per intersection set) plus N negative-violation flags per
 * line. At end of line the keep/drop decision is:
 *
 *     keep  <=>  exists set i:  !violated[i]  and  bitmap[i] == query[i]
 *
 * where query[i] has a bit set at every table row whose entry is a
 * positive member of set i.
 */
#ifndef MITHRIL_ACCEL_HASH_FILTER_H
#define MITHRIL_ACCEL_HASH_FILTER_H

#include <array>
#include <cstdint>
#include <string_view>

#include "accel/cuckoo_table.h"
#include "accel/datapath.h"
#include "accel/tokenizer.h"

namespace mithril::accel {

/** R-bit bitmap, one per intersection set. */
using Bitmap = std::array<uint64_t, kBitmapWords>;

/**
 * The query image the host programs into a filter: the cuckoo table
 * plus per-set query bitmaps and the number of active sets.
 */
struct FilterProgram {
    CuckooTable table;
    std::array<Bitmap, kFlagPairs> query_bitmaps{};
    uint32_t active_sets = 0;
    /** Which original (pre-batching) query each set belongs to. */
    std::array<uint32_t, kFlagPairs> set_owner{};
};

/**
 * Hash filter emulation. Holds a borrowed program; per-line state is
 * internal scratch.
 */
class HashFilter
{
  public:
    explicit HashFilter(const FilterProgram *program)
        : program_(program) {}

    /**
     * Evaluates one line, streaming its tokens out of @p tokenizer
     * (which charges them) straight into the table lookups.
     *
     * @param line the line without its trailing newline
     * @return bitmask over original queries (bit q set when some
     *         intersection set owned by query q accepted the line);
     *         nonzero means "keep".
     */
    uint64_t evaluate(Tokenizer *tokenizer, std::string_view line);

    /** Cycles spent: one per consumed tokenized word. */
    uint64_t busyCycles() const { return busy_cycles_; }

    /** Lines evaluated / kept. */
    uint64_t linesIn() const { return lines_in_; }
    uint64_t linesKept() const { return lines_kept_; }

    void resetStats();

  private:
    const FilterProgram *program_;
    uint64_t busy_cycles_ = 0;
    uint64_t lines_in_ = 0;
    uint64_t lines_kept_ = 0;

    // Per-line scratch, cleared at line start.
    std::array<Bitmap, kFlagPairs> bitmaps_{};
};

} // namespace mithril::accel

#endif // MITHRIL_ACCEL_HASH_FILTER_H
