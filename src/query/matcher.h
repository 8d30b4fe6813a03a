/**
 * @file
 * Reference software executor for the union-of-intersections semantics.
 *
 * SoftwareMatcher is the ground truth every other executor (the
 * accelerator emulation, the baselines' scan engines) is property-tested
 * against. It is also the fallback path for queries whose cuckoo table
 * construction fails (Section 4.2.1), and the inner loop of the
 * MonetDB-like ScanDb baseline.
 */
#ifndef MITHRIL_QUERY_MATCHER_H
#define MITHRIL_QUERY_MATCHER_H

#include <string_view>
#include <unordered_map>
#include <vector>

#include "query/query.h"
#include "typed/predicate.h"
#include "typed/typed_key.h"

namespace mithril::query {

/**
 * Pre-compiled matcher for one query.
 *
 * Compilation builds a token -> (set, polarity) multimap so matching a
 * line is one hash probe per line token plus per-set bookkeeping,
 * mirroring the work the hardware does per token.
 */
class SoftwareMatcher
{
  public:
    explicit SoftwareMatcher(const Query &q);

    /** True when @p line satisfies the query. */
    bool matches(std::string_view line) const;

    /**
     * Filters @p text (newline-separated) and returns matching lines.
     * Views point into @p text.
     */
    std::vector<std::string_view> filterLines(std::string_view text) const;

    /** Number of intersection sets in the compiled query. */
    size_t setCount() const { return set_positive_needed_.size(); }

  private:
    struct Occurrence {
        uint32_t set;       // intersection set index
        uint32_t slot;      // index among the set's positive terms
        bool negated;
    };

    // token -> occurrences across all intersection sets.
    std::unordered_map<std::string_view, std::vector<Occurrence>> by_token_;
    std::vector<std::string> token_storage_;

    // Flattened per-set found/needed bitmaps (software analog of the
    // hardware's R-bit bitmaps, Figure 6).
    std::vector<size_t> set_words_;
    std::vector<size_t> set_offset_;
    std::vector<uint64_t> needed_;
    std::vector<uint64_t> set_positive_needed_;  // positive term count

    // Per-set typed predicates (DESIGN.md §15): a set matches only if
    // every one of its predicates is satisfied by some key the
    // extractor registry finds in the line. Keyword machinery above
    // never sees typed terms (they carry no token).
    std::vector<std::vector<typed::Predicate>> set_typed_;
    bool any_typed_ = false;

    // Scratch reused across matches (sized once; matcher is not
    // thread-safe by design — clone per thread).
    mutable std::vector<uint64_t> found_;
    mutable std::vector<uint8_t> violated_;
    /** The line's tokens, kept only when the query has typed terms. */
    mutable std::vector<std::string_view> tokens_scratch_;
    mutable std::vector<typed::TypedKey> keys_scratch_;
};

} // namespace mithril::query

#endif // MITHRIL_QUERY_MATCHER_H
