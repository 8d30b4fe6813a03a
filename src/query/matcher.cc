#include "query/matcher.h"

#include <algorithm>

#include "common/text.h"
#include "typed/extract.h"

namespace mithril::query {

SoftwareMatcher::SoftwareMatcher(const Query &q)
{
    // Pin token text first (views into token_storage_ must stay stable).
    std::vector<std::string> tokens = q.distinctTokens();
    token_storage_ = std::move(tokens);

    const auto &sets = q.sets();
    set_positive_needed_.clear();

    // Per-set positive slot numbering; a set may hold arbitrarily many
    // positive terms, so the found-bitmap is a span of 64-bit words in
    // one flattened scratch vector (the hardware analog is the R-bit
    // bitmap per intersection set of Figure 6).
    set_words_.resize(sets.size());
    set_offset_.resize(sets.size());
    size_t total_words = 0;
    std::vector<std::unordered_map<std::string_view, uint32_t>> slot_of(
        sets.size());
    set_typed_.assign(sets.size(), {});
    for (size_t i = 0; i < sets.size(); ++i) {
        uint32_t next_slot = 0;
        for (const Term &t : sets[i].terms) {
            if (t.isTyped()) {
                set_typed_[i].push_back(t.typed);
                any_typed_ = true;
                continue;
            }
            if (!t.negated && !slot_of[i].count(t.token)) {
                slot_of[i][t.token] = next_slot++;
            }
        }
        set_words_[i] = (next_slot + 63) / 64;
        set_offset_[i] = total_words;
        total_words += set_words_[i];
    }

    needed_.assign(total_words, 0);
    for (size_t i = 0; i < sets.size(); ++i) {
        for (const auto &[tok, slot] : slot_of[i]) {
            needed_[set_offset_[i] + slot / 64] |= 1ull << (slot % 64);
        }
        set_positive_needed_.push_back(slot_of[i].size());
    }

    for (size_t i = 0; i < sets.size(); ++i) {
        for (const Term &t : sets[i].terms) {
            if (t.isTyped()) {
                continue; // handled via set_typed_, no token to probe
            }
            // Key views must reference the pinned storage.
            auto it = std::find(token_storage_.begin(),
                                token_storage_.end(), t.token);
            std::string_view key = *it;
            Occurrence occ;
            occ.set = static_cast<uint32_t>(i);
            occ.negated = t.negated;
            occ.slot = t.negated ? 0 : slot_of[i][t.token];
            by_token_[key].push_back(occ);
        }
    }

    found_.resize(total_words);
    violated_.resize(sets.size());
}

bool
SoftwareMatcher::matches(std::string_view line) const
{
    std::fill(found_.begin(), found_.end(), 0);
    std::fill(violated_.begin(), violated_.end(), 0);
    tokens_scratch_.clear();

    forEachToken(line, [&](std::string_view tok, uint32_t) {
        if (any_typed_) {
            tokens_scratch_.push_back(tok);
        }
        auto it = by_token_.find(tok);
        if (it != by_token_.end()) {
            for (const Occurrence &occ : it->second) {
                if (occ.negated) {
                    violated_[occ.set] = 1;
                } else {
                    found_[set_offset_[occ.set] + occ.slot / 64] |=
                        1ull << (occ.slot % 64);
                }
            }
        }
        return true;
    });

    bool keys_ready = false;
    for (size_t i = 0; i < violated_.size(); ++i) {
        if (violated_[i]) {
            continue;
        }
        bool all = true;
        for (size_t w = 0; w < set_words_[i]; ++w) {
            if (found_[set_offset_[i] + w] != needed_[set_offset_[i] + w]) {
                all = false;
                break;
            }
        }
        if (!all) {
            continue;
        }
        // Keyword side satisfied; the set's typed predicates must also
        // hold. Keys are extracted at most once per line, on demand,
        // from the tokens of the pass above.
        for (const typed::Predicate &pred : set_typed_[i]) {
            if (!keys_ready) {
                keys_scratch_.clear();
                typed::extractTokens(tokens_scratch_,
                                     [&](const typed::TypedKey &k) {
                                         keys_scratch_.push_back(k);
                                     });
                keys_ready = true;
            }
            bool hit = false;
            for (const typed::TypedKey &key : keys_scratch_) {
                if (pred.matchesKey(key)) {
                    hit = true;
                    break;
                }
            }
            if (!hit) {
                all = false;
                break;
            }
        }
        if (all) {
            return true;
        }
    }
    return false;
}

std::vector<std::string_view>
SoftwareMatcher::filterLines(std::string_view text) const
{
    std::vector<std::string_view> out;
    forEachLine(text, [&](std::string_view line) {
        if (matches(line)) {
            out.push_back(line);
        }
    });
    return out;
}

} // namespace mithril::query
