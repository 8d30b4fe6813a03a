#include "accel/hash_filter.h"

#include <bit>

namespace mithril::accel {

uint64_t
HashFilter::evaluate(Tokenizer *tokenizer, std::string_view line)
{
    // Line start: clear the per-set bitmaps and violation flags. Bit s
    // of a mask stands for intersection set s.
    const uint32_t sets = program_->active_sets;
    const uint8_t active = static_cast<uint8_t>((1u << sets) - 1);
    for (uint32_t s = 0; s < sets; ++s) {
        bitmaps_[s] = Bitmap{};
    }
    uint8_t violated = 0;

    LineCharge charge = tokenizer->run(
        line, [&](std::string_view token, uint16_t column) {
            auto row = program_->table.lookup(token, column);
            if (!row) {
                return;  // token of no interest to any query
            }
            const CuckooEntry &e = program_->table.entry(*row);
            uint8_t member = e.valid_mask & active;
            violated |= member & e.negative_mask;
            for (uint8_t m = member & ~e.negative_mask; m != 0;
                 m &= m - 1) {
                bitmaps_[std::countr_zero(m)][*row / 64] |=
                    1ull << (*row % 64);
            }
        });
    // The filter consumes every word the tokenizer emits: each word of
    // each token (multi-word tokens stream over multiple cycles,
    // Figure 4), or the end-of-line marker word of a line without
    // tokens.
    busy_cycles_ += charge.emit_words;

    // End of line: exact bitmap match per set, negatives veto.
    uint64_t accepted_queries = 0;
    for (uint32_t s = 0; s < sets; ++s) {
        if (violated & (1u << s)) {
            continue;
        }
        if (bitmaps_[s] == program_->query_bitmaps[s]) {
            accepted_queries |= 1ull << program_->set_owner[s];
        }
    }

    ++lines_in_;
    if (accepted_queries != 0) {
        ++lines_kept_;
    }
    return accepted_queries;
}

void
HashFilter::resetStats()
{
    busy_cycles_ = 0;
    lines_in_ = 0;
    lines_kept_ = 0;
}

} // namespace mithril::accel
