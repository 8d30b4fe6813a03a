#include "accel/cuckoo_table.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace mithril::accel {
namespace {

TEST(CuckooTableTest, InsertAndLookup)
{
    CuckooTable table;
    ASSERT_TRUE(table.insert("KERNEL", 0, false).isOk());
    auto row = table.lookup("KERNEL");
    ASSERT_TRUE(row.has_value());
    const CuckooEntry &e = table.entry(*row);
    EXPECT_EQ(e.valid_mask, 1u);
    EXPECT_EQ(e.negative_mask, 0u);
    EXPECT_EQ(e.token_len, 6);
}

TEST(CuckooTableTest, MissingTokenNotFound)
{
    CuckooTable table;
    ASSERT_TRUE(table.insert("aaa", 0, false).isOk());
    EXPECT_FALSE(table.lookup("bbb").has_value());
    EXPECT_FALSE(table.lookup("aa").has_value());
    EXPECT_FALSE(table.lookup("aaaa").has_value());
}

TEST(CuckooTableTest, MergesFlagsForRepeatedToken)
{
    CuckooTable table;
    ASSERT_TRUE(table.insert("tok", 0, false).isOk());
    ASSERT_TRUE(table.insert("tok", 3, true).isOk());
    auto row = table.lookup("tok");
    ASSERT_TRUE(row.has_value());
    const CuckooEntry &e = table.entry(*row);
    EXPECT_EQ(e.valid_mask, 0b1001u);
    EXPECT_EQ(e.negative_mask, 0b1000u);
    EXPECT_EQ(table.occupiedCount(), 1u);
}

TEST(CuckooTableTest, ConflictingPolaritySameSetRejected)
{
    CuckooTable table;
    ASSERT_TRUE(table.insert("tok", 0, false).isOk());
    EXPECT_EQ(table.insert("tok", 0, true).code(),
              StatusCode::kInvalidArgument);
}

TEST(CuckooTableTest, LongTokenUsesOverflow)
{
    CuckooTable table;
    std::string long_token(45, 'x');
    long_token += "END";
    ASSERT_TRUE(table.insert(long_token, 1, false).isOk());
    EXPECT_GT(table.overflowUsed(), 0u);
    EXPECT_TRUE(table.lookup(long_token).has_value());
    // A 16-byte prefix of it must not match.
    EXPECT_FALSE(table.lookup(long_token.substr(0, 16)).has_value());
    // Same length, different tail word.
    std::string other = long_token;
    other.back() = 'Z';
    EXPECT_FALSE(table.lookup(other).has_value());
}

TEST(CuckooTableTest, Exactly16ByteTokenHasNoOverflow)
{
    CuckooTable table;
    std::string tok(16, 'q');
    ASSERT_TRUE(table.insert(tok, 0, false).isOk());
    EXPECT_EQ(table.overflowUsed(), 0u);
    EXPECT_TRUE(table.lookup(tok).has_value());
    EXPECT_FALSE(table.lookup(tok + "q").has_value());
}

TEST(CuckooTableTest, OverflowTableExhaustionFails)
{
    CuckooTable table;
    Status last = Status::ok();
    // Each 64-byte token takes 3 overflow words; kOverflowWords = 128.
    for (int i = 0; i < 60 && last.isOk(); ++i) {
        std::string tok = std::string(60, 'a') + std::to_string(i);
        last = table.insert(tok, 0, false);
    }
    EXPECT_EQ(last.code(), StatusCode::kCapacityExceeded);
}

TEST(CuckooTableTest, HandlesEvictionsUpToHalfLoad)
{
    // Cuckoo hashing succeeds w.h.p. below 0.5 load factor
    // (Section 4.2.1); 128 tokens into 256 rows must all place.
    CuckooTable table(256);
    for (int i = 0; i < 128; ++i) {
        std::string tok = "token-" + std::to_string(i);
        ASSERT_TRUE(table.insert(tok, i % 8, i % 2 == 0).isOk())
            << "failed at " << i;
    }
    EXPECT_DOUBLE_EQ(table.loadFactor(), 0.5);
    for (int i = 0; i < 128; ++i) {
        std::string tok = "token-" + std::to_string(i);
        auto row = table.lookup(tok);
        ASSERT_TRUE(row.has_value()) << tok;
        EXPECT_TRUE(table.entry(*row).valid_mask & (1u << (i % 8)));
    }
}

TEST(CuckooTableTest, OverfullTableEventuallyFails)
{
    CuckooTable table(4);
    Status last = Status::ok();
    int placed = 0;
    for (int i = 0; i < 20 && last.isOk(); ++i) {
        last = table.insert("t" + std::to_string(i), 0, false);
        if (last.isOk()) {
            ++placed;
        }
    }
    EXPECT_EQ(last.code(), StatusCode::kCapacityExceeded);
    EXPECT_LE(placed, 4);
}

TEST(CuckooTableTest, InvalidArguments)
{
    CuckooTable table;
    EXPECT_EQ(table.insert("", 0, false).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(table.insert("x", kFlagPairs, false).code(),
              StatusCode::kInvalidArgument);
}

TEST(CuckooTableTest, ColumnConstraintMatching)
{
    CuckooTable table;
    ASSERT_TRUE(table.insert("RAS", 0, false, /*column=*/6).isOk());
    EXPECT_TRUE(table.lookup("RAS", 6).has_value());
    EXPECT_FALSE(table.lookup("RAS", 5).has_value());
}

TEST(CuckooTableTest, ConflictingColumnRejected)
{
    CuckooTable table;
    ASSERT_TRUE(table.insert("RAS", 0, false, 6).isOk());
    EXPECT_EQ(table.insert("RAS", 1, false, 7).code(),
              StatusCode::kUnsupported);
}

/** Today's lookup rule, by scanning every row: the row whose stored
 *  token (first word plus overflow words) equals @p token, unless its
 *  column constraint excludes @p column. */
std::optional<uint32_t>
scanRows(const CuckooTable &table, std::string_view token, uint16_t column)
{
    for (uint32_t r = 0; r < table.rows(); ++r) {
        const CuckooEntry &e = table.entry(r);
        if (!e.occupied || e.token_len != token.size()) {
            continue;
        }
        std::string stored(e.token_word.begin(), e.token_word.end());
        for (uint16_t w = 0; w < e.overflow_words; ++w) {
            const Slot &slot = table.overflowWord(e.overflow_offset + w);
            stored.append(slot.begin(), slot.end());
        }
        stored.resize(e.token_len);
        if (stored != token) {
            continue;
        }
        if (e.column != kAnyColumn && e.column != column) {
            return std::nullopt;
        }
        return r;
    }
    return std::nullopt;
}

/** A token of @p len bytes over a small alphabet (with bytes above
 *  0x7f), so first, middle and last bytes often coincide. */
std::string
randomToken(Rng *rng, size_t len)
{
    static constexpr char kAlphabet[] = {'a', 'b', 'c', '7', ':',
                                         '\x80', '\xfe'};
    std::string tok;
    for (size_t i = 0; i < len; ++i) {
        tok += kAlphabet[rng->below(std::size(kAlphabet))];
    }
    return tok;
}

/** @p tok with one byte other than its first, middle and last changed
 *  (so its length and those bytes stay); @p tok itself when it has no
 *  such byte. */
std::string
sameEnds(Rng *rng, std::string tok)
{
    if (tok.size() < 4) {
        return tok;
    }
    size_t i;
    do {
        i = 1 + rng->below(tok.size() - 2);
    } while (i == tok.size() / 2);
    tok[i] = tok[i] == 'x' ? 'y' : 'x';
    return tok;
}

TEST(CuckooTableTest, LookupMatchesRowScan)
{
    Rng rng(2021);
    uint64_t members_checked = 0;
    uint64_t hits = 0;
    for (double load : {0.1, 0.2, 0.3, 0.4, 0.5}) {
        for (int table_seed = 0; table_seed < 8; ++table_seed) {
            CuckooTable table;
            std::vector<std::string> members;
            std::set<std::string> distinct;
            size_t target = static_cast<size_t>(load * table.rows());
            while (table.occupiedCount() < target) {
                // Every third token is a variant of an earlier one that
                // keeps its length and first, middle and last bytes.
                std::string tok =
                    !members.empty() && rng.below(3) == 0
                        ? sameEnds(&rng, members[rng.below(members.size())])
                        : randomToken(&rng, 1 + rng.below(40));
                // Long tokens fill the overflow table; past half of it,
                // only one-word tokens are drawn.
                if (tok.size() > kDatapathBytes &&
                    table.overflowUsed() > kOverflowWords / 2) {
                    tok.resize(1 + rng.below(kDatapathBytes));
                }
                if (!distinct.insert(tok).second) {
                    continue;
                }
                uint16_t column = rng.below(4) == 0
                                      ? static_cast<uint16_t>(rng.below(4))
                                      : kAnyColumn;
                Status st = table.insert(tok, rng.below(kFlagPairs),
                                         rng.chance(0.3), column);
                members.push_back(tok);
                if (!st.isOk()) {
                    // A cycled eviction chain drops one member; lookups
                    // must still agree with the rows as they are.
                    ASSERT_EQ(st.code(), StatusCode::kCapacityExceeded);
                    break;
                }
            }

            for (const std::string &m : members) {
                for (uint16_t column = 0; column < 4; ++column) {
                    auto want = scanRows(table, m, column);
                    ASSERT_EQ(table.lookup(m, column), want)
                        << "member '" << m << "' column " << column;
                    hits += want.has_value();
                    ++members_checked;
                }
            }
            // Non-members: random tokens, members' same-ends variants,
            // and members one byte shorter or longer.
            for (int i = 0; i < 10000; ++i) {
                std::string tok;
                switch (i % 4) {
                case 0:
                    tok = randomToken(&rng, 1 + rng.below(40));
                    break;
                case 1:
                    tok = sameEnds(&rng, members[i % members.size()]);
                    break;
                case 2:
                    tok = members[i % members.size()] + "a";
                    break;
                default:
                    tok = members[i % members.size()];
                    tok.pop_back();
                    break;
                }
                if (distinct.count(tok) != 0) {
                    continue;
                }
                uint16_t column = static_cast<uint16_t>(rng.below(4));
                ASSERT_EQ(table.lookup(tok, column), std::nullopt)
                    << "non-member '" << tok << "'";
                ASSERT_EQ(scanRows(table, tok, column), std::nullopt);
            }
        }
    }
    EXPECT_GT(hits, members_checked / 2);
}

} // namespace
} // namespace mithril::accel
