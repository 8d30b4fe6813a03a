#include "common/text.h"

#include <gtest/gtest.h>

namespace mithril {
namespace {

TEST(SplitTokensTest, BasicSplit)
{
    auto toks = splitTokens("RAS KERNEL INFO");
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_EQ(toks[0], "RAS");
    EXPECT_EQ(toks[1], "KERNEL");
    EXPECT_EQ(toks[2], "INFO");
}

TEST(SplitTokensTest, CollapsesRuns)
{
    auto toks = splitTokens("  a \t b  ");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0], "a");
    EXPECT_EQ(toks[1], "b");
}

TEST(SplitTokensTest, EmptyAndAllDelims)
{
    EXPECT_TRUE(splitTokens("").empty());
    EXPECT_TRUE(splitTokens("   \t ").empty());
}

TEST(SplitTokensTest, DelimitersAreSpaceTabAndCarriageReturn)
{
    constexpr std::string_view kDelims = " \t\r";
    for (int b = 0; b < 256; ++b) {
        const char c = static_cast<char>(b);
        const bool delim = kDelims.find(c) != std::string_view::npos;
        EXPECT_EQ(isDelimiter(c), delim) << "byte " << b;
        const std::string line = std::string("a") + c + "b";
        const size_t want = delim ? 2 : 1;
        EXPECT_EQ(splitTokens(line).size(), want) << "byte " << b;
    }
}

TEST(ForEachTokenTest, ColumnsCount)
{
    std::vector<uint32_t> cols;
    forEachToken("a b c", [&](std::string_view, uint32_t col) {
        cols.push_back(col);
        return true;
    });
    EXPECT_EQ(cols, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(ForEachTokenTest, EarlyStop)
{
    int seen = 0;
    forEachToken("a b c", [&](std::string_view, uint32_t) {
        ++seen;
        return seen < 2;
    });
    EXPECT_EQ(seen, 2);
}

TEST(SplitLinesTest, TerminatorsExcluded)
{
    auto lines = splitLines("a\nbb\nccc\n");
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[2], "ccc");
}

TEST(SplitLinesTest, TrailingUnterminatedLineIncluded)
{
    auto lines = splitLines("a\nb");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1], "b");
}

TEST(SplitLinesTest, EmptyLinesPreserved)
{
    auto lines = splitLines("a\n\nb\n");
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[1], "");
}

TEST(HumanFormatTest, Bytes)
{
    EXPECT_EQ(humanBytes(512), "512 B");
    EXPECT_EQ(humanBytes(1500), "1.50 KB");
    EXPECT_EQ(humanBytes(11.55e9), "11.55 GB");
}

TEST(HumanFormatTest, Bandwidth)
{
    EXPECT_EQ(humanBandwidth(3.2e9), "3.20 GB/s");
}

TEST(StrprintfTest, Formats)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strprintf("%.2f", 1.005), "1.00");
}

} // namespace
} // namespace mithril
