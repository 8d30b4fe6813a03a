/**
 * @file
 * The open page's distinct-token set: it must hand the inverted index
 * exactly the tokens, and the order, a std::set<std::string> would,
 * since the index's two-hash balancing depends on arrival order; and
 * insert() must number tokens in first-arrival order, which the typed
 * key memo beside the set relies on.
 */
#include "core/page_tokens.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace mithril::core {
namespace {

std::vector<std::string>
asStrings(std::span<const std::string_view> views)
{
    return {views.begin(), views.end()};
}

TEST(PageTokenSetTest, MatchesStdSetAcrossPages)
{
    Rng rng(5);
    PageTokenSet set;
    for (int page = 0; page < 20; ++page) {
        std::set<std::string, std::less<>> expect;
        // insert() numbers tokens in first-arrival order, page by page.
        std::map<std::string, uint32_t> first_index;
        // Bytes above 0x7f check that the order is unsigned, as in
        // std::string comparison; long tokens cross arena chunks.
        for (int i = 0, n = 50 + static_cast<int>(rng.below(3000)); i < n;
             ++i) {
            size_t len = rng.chance(0.01) ? 3000 + rng.below(500)
                                          : 1 + rng.below(12);
            std::string tok;
            for (size_t b = 0; b < len; ++b) {
                tok += static_cast<char>(rng.chance(0.1)
                                             ? 0x80 + rng.below(0x80)
                                             : 'a' + rng.below(6));
            }
            expect.insert(tok);
            auto [it, added] = first_index.emplace(
                tok, static_cast<uint32_t>(first_index.size()));
            // Views must outlive this string.
            ASSERT_EQ(set.insert(tok), it->second)
                << "page " << page << (added ? ", new" : ", repeat");
        }
        EXPECT_EQ(set.size(), expect.size()) << "page " << page;
        EXPECT_EQ(asStrings(set.sorted()),
                  std::vector<std::string>(expect.begin(), expect.end()))
            << "page " << page;
        set.clear();
        EXPECT_EQ(set.size(), 0u);
    }
}

TEST(PageTokenSetTest, InsertReturnsFirstArrivalIndex)
{
    PageTokenSet set;
    EXPECT_EQ(set.insert("beta"), 0u);
    EXPECT_EQ(set.insert("alpha"), 1u);
    EXPECT_EQ(set.insert("beta"), 0u);
    EXPECT_EQ(set.insert("gamma"), 2u);
    EXPECT_EQ(set.insert("alpha"), 1u);
    EXPECT_EQ(set.size(), 3u);
    set.sorted();
    set.clear();
    EXPECT_EQ(set.insert("gamma"), 0u);  // numbering restarts per page
    EXPECT_EQ(set.insert("beta"), 1u);
}

TEST(PageTokenSetTest, TokenLargerThanAChunkKeepsEarlierViews)
{
    PageTokenSet set;
    set.insert("first");
    std::string huge(40 * 1024, 'z');
    set.insert(huge);
    set.insert("last");
    set.insert("first");
    EXPECT_EQ(asStrings(set.sorted()),
              (std::vector<std::string>{"first", "last", huge}));
}

} // namespace
} // namespace mithril::core
