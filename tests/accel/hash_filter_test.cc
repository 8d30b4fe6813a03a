#include "accel/hash_filter.h"

#include <gtest/gtest.h>

#include "accel/query_compiler.h"
#include "accel/tokenizer.h"
#include "query/parser.h"

namespace mithril::accel {
namespace {

FilterProgram
program(std::string_view query_text,
        std::string_view query_text2 = "")
{
    std::vector<query::Query> queries(1);
    Status st = query::parseQuery(query_text, &queries[0]);
    EXPECT_TRUE(st.isOk()) << st.toString();
    if (!query_text2.empty()) {
        queries.emplace_back();
        st = query::parseQuery(query_text2, &queries[1]);
        EXPECT_TRUE(st.isOk()) << st.toString();
    }
    FilterProgram p;
    st = compileQueries(queries, &p);
    EXPECT_TRUE(st.isOk()) << st.toString();
    return p;
}

uint64_t
evalLine(const FilterProgram &p, std::string_view line)
{
    Tokenizer t;
    HashFilter f(&p);
    return f.evaluate(&t, line);
}

TEST(HashFilterTest, AcceptsMatchingLine)
{
    FilterProgram p = program("RAS & KERNEL");
    EXPECT_EQ(evalLine(p, "x RAS y KERNEL z"), 1u);
    EXPECT_EQ(evalLine(p, "x RAS y z"), 0u);
}

TEST(HashFilterTest, NegativeTermVetoes)
{
    FilterProgram p = program("RAS & !FATAL");
    EXPECT_EQ(evalLine(p, "RAS INFO ok"), 1u);
    EXPECT_EQ(evalLine(p, "RAS FATAL bad"), 0u);
}

TEST(HashFilterTest, ExactBitmapMatchRequired)
{
    // Line has only a subset of required tokens -> bitmap mismatch.
    FilterProgram p = program("a & b & c");
    EXPECT_EQ(evalLine(p, "a b"), 0u);
    EXPECT_EQ(evalLine(p, "a b c"), 1u);
    EXPECT_EQ(evalLine(p, "a b c d"), 1u);  // extras are ignored
}

TEST(HashFilterTest, TwoQueriesReportDistinctOwners)
{
    FilterProgram p = program("alpha", "beta");
    EXPECT_EQ(evalLine(p, "alpha here"), 0b01u);
    EXPECT_EQ(evalLine(p, "beta there"), 0b10u);
    EXPECT_EQ(evalLine(p, "alpha beta"), 0b11u);
    EXPECT_EQ(evalLine(p, "gamma"), 0u);
}

TEST(HashFilterTest, CyclesCountTokenWords)
{
    FilterProgram p = program("z");
    Tokenizer t;
    HashFilter f(&p);
    f.evaluate(&t, "short tokens here");  // 3 words
    EXPECT_EQ(f.busyCycles(), 3u);
    std::string long_tok(33, 'w');  // 3 words
    f.evaluate(&t, long_tok);
    EXPECT_EQ(f.busyCycles(), 6u);
}

TEST(HashFilterTest, LineStatsTrack)
{
    FilterProgram p = program("hit");
    Tokenizer t;
    HashFilter f(&p);
    f.evaluate(&t, "hit one");
    f.evaluate(&t, "miss");
    EXPECT_EQ(f.linesIn(), 2u);
    EXPECT_EQ(f.linesKept(), 1u);
    f.resetStats();
    EXPECT_EQ(f.linesIn(), 0u);
}

TEST(HashFilterTest, EmptyLineMatchesOnlyPureNegative)
{
    FilterProgram pos = program("a");
    EXPECT_EQ(evalLine(pos, ""), 0u);
    FilterProgram neg = program("!a");
    EXPECT_EQ(evalLine(neg, ""), 1u);
}

TEST(HashFilterTest, LongTokenExactMatch)
{
    std::string tok(40, 'k');
    FilterProgram p = program(tok);
    EXPECT_EQ(evalLine(p, "prefix " + tok + " suffix"), 1u);
    EXPECT_EQ(evalLine(p, "prefix " + tok.substr(0, 39) + " suffix"), 0u);
}

} // namespace
} // namespace mithril::accel
