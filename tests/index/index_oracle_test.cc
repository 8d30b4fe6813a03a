/**
 * @file
 * Property test: the inverted index against an exact oracle.
 *
 * The index is probabilistic — it may return extra pages (entry
 * sharing) but must NEVER miss a page a token truly occurs in
 * (Section 6.2: "this still results in correct operations since
 * unnecessary data will be filtered out"). A std::map oracle records
 * the true token -> pages mapping over randomized workloads across
 * configurations; every lookup must be a superset of the truth, and
 * intersections must be supersets of the true intersections.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/inverted_index.h"

namespace mithril::index {
namespace {

using storage::PageId;

struct Workload {
    std::map<std::string, std::vector<PageId>> truth;
    std::vector<std::string> tokens;
};

/** Random ingest: pages 0..n, each with a random token subset. */
Workload
runWorkload(InvertedIndex *idx, Rng *rng, size_t pages,
            size_t vocab_size)
{
    Workload w;
    for (size_t v = 0; v < vocab_size; ++v) {
        w.tokens.push_back("tok-" + std::to_string(v * 131));
    }
    for (PageId p = 0; p < pages; ++p) {
        std::set<size_t> chosen;
        size_t k = 1 + rng->below(8);
        for (size_t i = 0; i < k; ++i) {
            chosen.insert(rng->skewedBelow(vocab_size, 2.0));
        }
        std::vector<std::string_view> views;
        for (size_t v : chosen) {
            views.push_back(w.tokens[v]);
            w.truth[w.tokens[v]].push_back(p);
        }
        idx->addPage(p, views, p);
    }
    return w;
}

class IndexOracleTest
    : public ::testing::TestWithParam<std::tuple<int, bool, uint32_t>>
{
};

TEST_P(IndexOracleTest, LookupIsAlwaysSuperset)
{
    auto [seed, two_hash, entries] = GetParam();
    Rng rng(seed);
    storage::SsdModel ssd;
    IndexConfig cfg;
    cfg.hash_entries = entries;
    cfg.two_hash = two_hash;
    InvertedIndex idx(&ssd, cfg);

    Workload w = runWorkload(&idx, &rng, 400, 64);

    for (const auto &[token, true_pages] : w.truth) {
        std::vector<PageId> got = idx.lookup(token);
        ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
        // Superset check: every true page present.
        ASSERT_TRUE(std::includes(got.begin(), got.end(),
                                  true_pages.begin(), true_pages.end()))
            << token << " with " << entries << " entries";
    }
}

TEST_P(IndexOracleTest, IntersectionIsSupersetOfTrueIntersection)
{
    auto [seed, two_hash, entries] = GetParam();
    Rng rng(seed ^ 0x5555);
    storage::SsdModel ssd;
    IndexConfig cfg;
    cfg.hash_entries = entries;
    cfg.two_hash = two_hash;
    InvertedIndex idx(&ssd, cfg);

    Workload w = runWorkload(&idx, &rng, 300, 48);

    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::string> pick{
            w.tokens[rng.below(w.tokens.size())],
            w.tokens[rng.below(w.tokens.size())]};
        std::vector<PageId> got = idx.lookupAll(pick);

        std::vector<PageId> a = w.truth[pick[0]];
        std::vector<PageId> b = w.truth[pick[1]];
        std::vector<PageId> expected;
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(expected));
        ASSERT_TRUE(std::includes(got.begin(), got.end(),
                                  expected.begin(), expected.end()))
            << pick[0] << " & " << pick[1];
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, IndexOracleTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(true, false),
                       ::testing::Values(64u, 1024u, 1u << 14)));

} // namespace
} // namespace mithril::index
