/**
 * @file
 * TypedIndex posting-list tests: pending/flushed lookup equivalence,
 * the sealed-page directory, CRC-framed page round-trips through the
 * shared SsdModel, rebuilds that answer like the original, and
 * corruption surfacing as integrity_lost (DESIGN.md §15).
 */
#include "typed/typed_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/text.h"
#include "storage/ssd_model.h"
#include "typed/predicate.h"

namespace mithril::typed {
namespace {

Predicate
mustParse(std::string_view word)
{
    Predicate p;
    Status st = parsePredicate(word, &p);
    EXPECT_TRUE(st.isOk()) << st.toString();
    return p;
}

/** Lines 0..n-1: every 3rd mentions 10.0.0.1, every 5th 10.0.0.2,
 *  every 7th the hex id. */
void
fillIndex(TypedIndex *index, uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i) {
        std::string line = "line " + std::to_string(i);
        if (i % 3 == 0) {
            line += " src=10.0.0.1,";
        }
        if (i % 5 == 0) {
            line += " peer 10.0.0.2";
        }
        if (i % 7 == 0) {
            line += " [feedc0defeedbeef]";
        }
        index->addLine(splitTokens(line), i);
    }
}

std::vector<uint64_t>
expectedLines(uint64_t n, uint64_t step)
{
    std::vector<uint64_t> lines;
    for (uint64_t i = 0; i < n; i += step) {
        lines.push_back(i);
    }
    return lines;
}

TEST(TypedIndexTest, PendingLookupBeforeFlush)
{
    storage::SsdModel ssd;
    TypedIndex index(&ssd);
    fillIndex(&index, 100);
    LookupResult r = index.lookup(mustParse("ip:10.0.0.1"));
    EXPECT_EQ(r.lines, expectedLines(100, 3));
    EXPECT_EQ(r.pages_read, 0u);  // nothing flushed yet
    EXPECT_FALSE(r.integrity_lost);
}

TEST(TypedIndexTest, FlushedLookupReadsPostingPages)
{
    storage::SsdModel ssd;
    TypedIndex index(&ssd);
    fillIndex(&index, 1000);
    index.flush();
    LookupResult r = index.lookup(mustParse("ip:10.0.0.1"));
    EXPECT_EQ(r.lines, expectedLines(1000, 3));
    EXPECT_GT(r.pages_read, 0u);
    EXPECT_GT(r.bytes_read, 0u);
    EXPECT_FALSE(r.integrity_lost);

    // Postings added after a flush land in the pending tail and merge
    // with the flushed pages.
    index.addLine(splitTokens("late src=10.0.0.1,"), 1002);
    LookupResult merged = index.lookup(mustParse("ip:10.0.0.1"));
    std::vector<uint64_t> expected = expectedLines(1000, 3);
    expected.push_back(1002);
    EXPECT_EQ(merged.lines, expected);
}

TEST(TypedIndexTest, RangePredicateSpansKeys)
{
    storage::SsdModel ssd;
    TypedIndex index(&ssd);
    fillIndex(&index, 105);
    index.flush();
    // The /30 block {10.0.0.0..3} covers both planted addresses.
    LookupResult r = index.lookup(mustParse("ip:10.0.0.0/30"));
    std::vector<uint64_t> expected;
    for (uint64_t i = 0; i < 105; ++i) {
        if (i % 3 == 0 || i % 5 == 0) {
            expected.push_back(i);
        }
    }
    EXPECT_EQ(r.lines, expected);  // union, ascending, deduped
}

TEST(TypedIndexTest, HexIdLookup)
{
    storage::SsdModel ssd;
    TypedIndex index(&ssd);
    fillIndex(&index, 100);
    index.flush();
    LookupResult r = index.lookup(mustParse("id:feedc0defeedbeef"));
    EXPECT_EQ(r.lines, expectedLines(100, 7));
}

TEST(TypedIndexTest, SerializeDeserializeRoundTrip)
{
    // The typed index keeps no host-side state across an open: a mount
    // rebuilds it from the surviving data pages. A second index fed
    // the same lines on the same device must answer the same lookups.
    storage::SsdModel ssd;
    TypedIndex index(&ssd);
    fillIndex(&index, 500);
    index.flush();

    TypedIndex rebuilt(&ssd);
    fillIndex(&rebuilt, 500);
    rebuilt.flush();

    EXPECT_EQ(rebuilt.keyCount(), index.keyCount());
    for (const char *word :
         {"ip:10.0.0.1", "ip:10.0.0.0/30", "id:feedc0defeedbeef"}) {
        LookupResult before = index.lookup(mustParse(word));
        LookupResult after = rebuilt.lookup(mustParse(word));
        EXPECT_FALSE(after.lines.empty()) << word;
        EXPECT_EQ(after.lines, before.lines) << word;
        EXPECT_EQ(after.pages_read, before.pages_read) << word;
        EXPECT_EQ(after.bytes_read, before.bytes_read) << word;
    }
}

TEST(TypedIndexTest, CorruptPostingPageReportsIntegrityLost)
{
    storage::SsdModel ssd;
    TypedIndex index(&ssd);
    fillIndex(&index, 2000);
    index.flush();
    LookupResult clean = index.lookup(mustParse("ip:10.0.0.1"));
    ASSERT_FALSE(clean.integrity_lost);
    ASSERT_GT(clean.pages_read, 0u);

    // Smash every device page the posting lists could live on; the
    // damage is persistent (no fault plan), so retries cannot help and
    // the lookup must degrade loudly, not return silently short lists.
    for (storage::PageId id = 0; id < ssd.store().pageCount(); ++id) {
        auto page = ssd.store().mutablePage(id);
        for (size_t i = 0; i < 32; ++i) {
            page[i] ^= 0x5a;
        }
    }
    LookupResult damaged = index.lookup(mustParse("ip:10.0.0.1"));
    EXPECT_TRUE(damaged.integrity_lost);
}

} // namespace
} // namespace mithril::typed
