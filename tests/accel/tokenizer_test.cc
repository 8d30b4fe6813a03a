#include "accel/tokenizer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mithril::accel {
namespace {

/** One token as the tokenizer streamed it. */
struct Emitted {
    std::string_view text;
    uint16_t column;
};

/** Runs @p line through @p t, collecting the streamed tokens. */
LineCharge
runCollect(Tokenizer &t, std::string_view line, std::vector<Emitted> *out)
{
    return t.run(line, [out](std::string_view tok, uint16_t column) {
        out->push_back({tok, column});
    });
}

/** Runs @p line through @p t for its charge alone. */
LineCharge
run(Tokenizer &t, std::string_view line)
{
    return t.run(line, [](std::string_view, uint16_t) {});
}

TEST(TokenizerTest, EmitsTokensWithFlags)
{
    // The last-of-line flag is the end of run(): every token streams
    // out, in line order, before it returns.
    Tokenizer t;
    std::vector<Emitted> tokens;
    LineCharge c = runCollect(t, "RAS APP FATAL", &tokens);
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[0].text, "RAS");
    EXPECT_EQ(tokens[1].text, "APP");
    EXPECT_EQ(tokens[2].text, "FATAL");
    EXPECT_EQ(c.emit_words, 3u);
}

TEST(TokenizerTest, ColumnsIncrement)
{
    Tokenizer t;
    std::vector<Emitted> tokens;
    runCollect(t, "a b c d", &tokens);
    ASSERT_EQ(tokens.size(), 4u);
    for (size_t i = 0; i < tokens.size(); ++i) {
        EXPECT_EQ(tokens[i].column, i);
    }
}

TEST(TokenizerTest, ShortTokensOneWordEach)
{
    Tokenizer t;
    LineCharge c = run(t, "ab cd");
    EXPECT_EQ(c.emit_words, 2u);
    EXPECT_EQ(c.useful_bytes, 4u);
}

TEST(TokenizerTest, LongTokenSpansWords)
{
    Tokenizer t;
    std::string tok(40, 'x');  // ceil(40/16) = 3 words
    std::vector<Emitted> tokens;
    LineCharge c = runCollect(t, tok, &tokens);
    ASSERT_EQ(tokens.size(), 1u);
    EXPECT_EQ(c.emit_words, 3u);
    EXPECT_EQ(c.useful_bytes, 40u);
}

TEST(TokenizerTest, IngestCyclesAtTwoBytesPerCycle)
{
    Tokenizer t;
    // "abcdef" (6 chars) -> one 16-byte padded word -> 8 cycles.
    EXPECT_EQ(run(t, "abcdef").ingest_cycles, 8u);
    // 31 chars + '\n' = two words = 16 cycles.
    EXPECT_EQ(run(t, std::string(31, 'y')).ingest_cycles, 16u);
}

TEST(TokenizerTest, EmptyLineEmitsMarkerWord)
{
    Tokenizer t;
    std::vector<Emitted> tokens;
    LineCharge c = runCollect(t, "", &tokens);
    EXPECT_TRUE(tokens.empty());
    EXPECT_EQ(c.emit_words, 1u);
}

TEST(TokenizerTest, UsefulRatioTracksPadding)
{
    Tokenizer t;
    // 4-byte tokens in 16-byte words: exactly 25% useful.
    for (int i = 0; i < 100; ++i) {
        run(t, "abcd efgh ijkl");
    }
    EXPECT_NEAR(t.usefulRatio(), 0.25, 0.01);
}

TEST(TokenizerTest, BusyCyclesIsMaxOfIngestAndEmit)
{
    Tokenizer t;
    // Short line dominated by ingest: 16 B padded / 2 = 8 cycles vs 2
    // emitted words.
    run(t, "ab cd");
    EXPECT_EQ(t.busyCycles(), 8u);
    t.resetStats();
    // Many tiny tokens: 32 one-byte tokens = 32 emit words vs
    // padded ingest 64/2 = 32 — equal here; add one more token to tip.
    std::string line;
    for (int i = 0; i < 40; ++i) {
        line += "a ";
    }
    LineCharge c = run(t, line);
    EXPECT_EQ(c.emit_words, 40u);
    EXPECT_EQ(t.busyCycles(), std::max(c.ingest_cycles, c.emit_words));
}

TEST(TokenizerTest, StatsAccumulateAndReset)
{
    Tokenizer t;
    run(t, "one two");
    run(t, "three");
    EXPECT_EQ(t.wordsEmitted(), 3u);
    EXPECT_EQ(t.usefulBytes(), 11u);
    t.resetStats();
    EXPECT_EQ(t.wordsEmitted(), 0u);
    EXPECT_EQ(t.busyCycles(), 0u);
}

TEST(TokenizerTest, DelimiterRunsSkipped)
{
    Tokenizer t;
    std::vector<Emitted> tokens;
    runCollect(t, "  a \t\t b  ", &tokens);
    ASSERT_EQ(tokens.size(), 2u);
    EXPECT_EQ(tokens[0].text, "a");
    EXPECT_EQ(tokens[1].text, "b");
}

} // namespace
} // namespace mithril::accel
