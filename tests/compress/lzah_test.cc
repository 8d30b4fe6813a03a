#include "compress/lzah.h"

#include <gtest/gtest.h>

#include <iterator>

#include "common/bits.h"
#include "common/hash.h"
#include "common/rng.h"
#include "storage/page.h"

namespace mithril::compress {
namespace {

std::string
decodeAll(const std::vector<Bytes> &pages, bool padded)
{
    Bytes out;
    for (const Bytes &page : pages) {
        Status st = lzahDecodePage(page, padded, &out);
        EXPECT_TRUE(st.isOk()) << st.toString();
    }
    return std::string(out.begin(), out.end());
}

TEST(LzahHashTest, DeterministicAndInRange)
{
    Word w{};
    w[0] = 'R';
    w[1] = 'A';
    w[2] = 'S';
    EXPECT_EQ(lzahHash(w), lzahHash(w));
    EXPECT_LT(lzahHash(w), kLzahTableEntries);
}

TEST(LzahPageEncoderTest, SingleLineRoundTrip)
{
    LzahPageEncoder enc;
    ASSERT_EQ(enc.addLine("hello log world"), AddLineResult::kAppended);
    enc.flush();
    ASSERT_EQ(enc.pages().size(), 1u);
    EXPECT_EQ(enc.pages()[0].size(), storage::kPageSize);
    EXPECT_EQ(decodeAll(enc.pages(), false), "hello log world\n");
}

TEST(LzahPageEncoderTest, EmptyLineRoundTrip)
{
    LzahPageEncoder enc;
    ASSERT_EQ(enc.addLine(""), AddLineResult::kAppended);
    ASSERT_EQ(enc.addLine("x"), AddLineResult::kAppended);
    enc.flush();
    EXPECT_EQ(decodeAll(enc.pages(), false), "\nx\n");
}

TEST(LzahPageEncoderTest, ExactWordMultipleLine)
{
    LzahPageEncoder enc;
    std::string line(32, 'a');  // exactly two words + terminator word
    ASSERT_EQ(enc.addLine(line), AddLineResult::kAppended);
    enc.flush();
    EXPECT_EQ(decodeAll(enc.pages(), false), line + "\n");
}

TEST(LzahPageEncoderTest, RepeatedLinesCompress)
{
    LzahPageEncoder enc;
    std::string line =
        "- 117 2005.06.03 R24-M0-N0 RAS KERNEL INFO cache parity";
    for (int i = 0; i < 40; ++i) {
        ASSERT_NE(enc.addLine(line), AddLineResult::kRejected);
    }
    enc.flush();
    // 40 identical ~57-byte lines (~2.3 KB raw) must fit one page with
    // plenty of headroom, since repeats cost 2 bytes per word.
    EXPECT_EQ(enc.pages().size(), 1u);
    std::string expect;
    for (int i = 0; i < 40; ++i) {
        expect += line;
        expect += '\n';
    }
    EXPECT_EQ(decodeAll(enc.pages(), false), expect);
}

TEST(LzahPageEncoderTest, RejectsOverlongLine)
{
    LzahPageEncoder enc;
    std::string giant(LzahPageEncoder::kMaxLineBytes + 1, 'x');
    EXPECT_EQ(enc.addLine(giant), AddLineResult::kRejected);
}

TEST(LzahPageEncoderTest, MaxLineAlwaysFitsFreshPage)
{
    LzahPageEncoder enc;
    // Fill the open page with ~2 KB of unique (incompressible) lines,
    // then push an incompressible max-length line: the page must seal
    // and the line must land whole in a fresh page.
    Rng rng(1);
    std::string expect;
    auto random_line = [&](size_t len) {
        std::string line;
        for (size_t i = 0; i < len; ++i) {
            line += static_cast<char>('A' + rng.below(26));
        }
        return line;
    };
    for (int i = 0; i < 60; ++i) {
        std::string starter = random_line(30);
        ASSERT_EQ(enc.addLine(starter), AddLineResult::kAppended) << i;
        expect += starter + "\n";
    }
    std::string line = random_line(LzahPageEncoder::kMaxLineBytes);
    EXPECT_EQ(enc.addLine(line), AddLineResult::kSealedAndAppended);
    enc.flush();
    ASSERT_EQ(enc.pages().size(), 2u);
    EXPECT_EQ(decodeAll(enc.pages(), false), expect + line + "\n");
}

TEST(LzahPageEncoderTest, PagesDecodeIndependently)
{
    LzahPageEncoder enc;
    std::string a = "alpha beta gamma delta epsilon zeta eta theta";
    for (int i = 0; i < 600; ++i) {
        ASSERT_NE(enc.addLine(a + std::to_string(i)),
                  AddLineResult::kRejected);
    }
    enc.flush();
    ASSERT_GT(enc.pages().size(), 1u);
    // Decode only the second page: must succeed standalone.
    Bytes out;
    Status st = lzahDecodePage(enc.pages()[1], false, &out);
    EXPECT_TRUE(st.isOk()) << st.toString();
    EXPECT_FALSE(out.empty());
    // Its first byte starts a fresh line (the previous page ended one).
    std::string text(out.begin(), out.end());
    EXPECT_EQ(text.substr(0, 5), "alpha");
}

/** Sealed pages of @p lines, encoded in order and flushed. */
std::vector<Bytes>
encodePages(const std::vector<std::string> &lines)
{
    LzahPageEncoder enc;
    for (const std::string &line : lines) {
        EXPECT_NE(enc.addLine(line), AddLineResult::kRejected);
    }
    enc.flush();
    return enc.pages();
}

/** hash64 over the concatenation of @p pages. */
uint64_t
pagesDigest(const std::vector<Bytes> &pages)
{
    Bytes all;
    for (const Bytes &page : pages) {
        all.insert(all.end(), page.begin(), page.end());
    }
    return hash64(all.data(), all.size());
}

/** Item count stamped in a sealed page's header word. */
uint32_t
pageItems(const Bytes &page)
{
    return getLe<uint32_t>(page.data());
}

/** A line of exactly @p len bytes drawn from a small log vocabulary,
 *  so words repeat at equal offsets across lines (LZAH matches). */
std::string
vocabularyLine(Rng &rng, size_t len)
{
    static const char *const kWords[] = {
        "RAS", "KERNEL", "INFO", "FATAL", "node-17", "0x1f2e",
        "instruction", "cache", "parity", "error", "corrected",
        "R02-M1-N0", "ciod:", "failed", "to", "read", "message",
    };
    std::string line;
    while (line.size() < len) {
        line += kWords[rng.below(std::size(kWords))];
        line += ' ';
    }
    line.resize(len);
    return line;
}

std::string
randomLine(Rng &rng, size_t len)
{
    std::string line;
    for (size_t i = 0; i < len; ++i) {
        line += static_cast<char>(' ' + 1 + rng.below(94));
    }
    return line;
}

/**
 * The sealed page bytes are part of the device format: any encoder
 * change (page sizing, rollback, chunk packing) must reproduce them
 * exactly. Each stream's pages hash to a value recorded when the
 * encoder sized pages by re-walking every item of the open page.
 */
TEST(LzahPageEncoderTest, PageDigestsAreStable)
{
    // Lengths cycling 0..kMaxLineBytes (stride 7 reaches both ends).
    Rng rng(101);
    std::vector<std::string> cycling;
    for (size_t len = 0; len <= LzahPageEncoder::kMaxLineBytes; len += 7) {
        cycling.push_back(vocabularyLine(rng, len));
    }
    // Every multiple of the word size up to 512: each line's
    // terminator takes a word of its own.
    std::vector<std::string> multiples;
    for (int round = 0; round < 6; ++round) {
        for (size_t len = 0; len <= 512; len += kLzahWord) {
            multiples.push_back(round % 2 == 0 ? vocabularyLine(rng, len)
                                               : randomLine(rng, len));
        }
    }
    // A repetitive vocabulary: most items are table matches.
    std::vector<std::string> repetitive;
    for (int i = 0; i < 3000; ++i) {
        repetitive.push_back(
            "2005.06.03 R02-M1-N0-C:J12-U11 RAS KERNEL INFO "
            "instruction cache parity error corrected "
            + std::to_string(rng.below(16)));
    }
    // Rollback: incompressible lines of 100, 200, 40 and 20 items fill
    // 253-item pages so the 128- and 256-item chunk boundaries fall
    // inside lines that then overflow; a seeded tail mixes literal and
    // repeated long lines.
    std::vector<std::string> rollback = {
        randomLine(rng, 1590), randomLine(rng, 3190),
        randomLine(rng, 630), randomLine(rng, 310)};
    for (int i = 0; i < 300; ++i) {
        size_t len = 1000 + rng.below(LzahPageEncoder::kMaxLineBytes - 999);
        if (i % 2 == 0) {
            rollback.push_back(randomLine(rng, len));
        } else {
            // The previous line's head again: its words are matches.
            std::string head = rollback.back();
            head.resize(std::min(len, head.size()));
            rollback.push_back(head);
        }
    }

    std::vector<Bytes> rollback_pages = encodePages(rollback);
    ASSERT_GE(rollback_pages.size(), 3u);
    EXPECT_EQ(pageItems(rollback_pages[0]), 100u);  // B overflowed at 100
    EXPECT_EQ(pageItems(rollback_pages[1]), 240u);  // D overflowed at 240

    EXPECT_EQ(pagesDigest(encodePages(cycling)),
              0xac750dc36f0ef8f5ull);
    EXPECT_EQ(pagesDigest(encodePages(multiples)),
              0x8d2e47b8b1bd0b51ull);
    EXPECT_EQ(pagesDigest(encodePages(repetitive)),
              0x8f6ad7cd7466ca05ull);
    EXPECT_EQ(pagesDigest(rollback_pages), 0x5e3b9a802ef6db2full);
}

TEST(LzahPaddedModeTest, WordsAreLineAligned)
{
    LzahPageEncoder enc;
    ASSERT_EQ(enc.addLine("ab"), AddLineResult::kAppended);
    ASSERT_EQ(enc.addLine("cd"), AddLineResult::kAppended);
    enc.flush();
    Bytes out;
    ASSERT_TRUE(lzahDecodePage(enc.pages()[0], true, &out).isOk());
    ASSERT_EQ(out.size(), 2 * kLzahWord);
    EXPECT_EQ(out[0], 'a');
    EXPECT_EQ(out[2], '\n');
    EXPECT_EQ(out[3], 0);  // zero padding after the newline
    EXPECT_EQ(out[16], 'c');
}

TEST(LzahDecompressorModelTest, OneCyclePerWord)
{
    LzahPageEncoder enc;
    for (int i = 0; i < 100; ++i) {
        ASSERT_NE(enc.addLine("some log line with several tokens " +
                              std::to_string(i)),
                  AddLineResult::kRejected);
    }
    enc.flush();
    LzahDecompressorModel model;
    Bytes out;
    for (const Bytes &page : enc.pages()) {
        ASSERT_TRUE(model.decodePage(page, &out).isOk());
    }
    EXPECT_EQ(model.cycles() * kLzahWord, out.size());
    EXPECT_EQ(model.bytesOut(), out.size());
}

TEST(LzahCodecTest, WholeBufferRoundTripSimple)
{
    Lzah codec;
    std::string text = "one two three\nfour five six\nseven\n";
    Bytes compressed = codec.compress(asBytes(text));
    Bytes out;
    ASSERT_TRUE(codec.decompress(compressed, &out).isOk());
    EXPECT_EQ(std::string(out.begin(), out.end()), text);
}

TEST(LzahCodecTest, NoTrailingNewline)
{
    Lzah codec;
    std::string text = "line one\nline two";  // no final terminator
    Bytes compressed = codec.compress(asBytes(text));
    Bytes out;
    ASSERT_TRUE(codec.decompress(compressed, &out).isOk());
    EXPECT_EQ(std::string(out.begin(), out.end()), text);
}

TEST(LzahCodecTest, EmptyInput)
{
    Lzah codec;
    Bytes compressed = codec.compress({});
    Bytes out;
    ASSERT_TRUE(codec.decompress(compressed, &out).isOk());
    EXPECT_TRUE(out.empty());
}

TEST(LzahCodecTest, VeryLongLineSplitsAndRejoins)
{
    Lzah codec;
    Rng rng(3);
    std::string line;
    for (int i = 0; i < 9000; ++i) {
        line += static_cast<char>('a' + rng.below(26));
    }
    std::string text = "short\n" + line + "\ntail\n";
    Bytes compressed = codec.compress(asBytes(text));
    Bytes out;
    ASSERT_TRUE(codec.decompress(compressed, &out).isOk());
    EXPECT_EQ(std::string(out.begin(), out.end()), text);
}

TEST(LzahCodecTest, CompressesRepetitiveLogs)
{
    Lzah codec;
    std::string text;
    for (int i = 0; i < 2000; ++i) {
        text += "Jun 3 15:42:50 node-7 kernel: eth0 link up 1000Mbps\n";
    }
    Bytes compressed = codec.compress(asBytes(text));
    double ratio = compressionRatio(text.size(), compressed.size());
    // Identical lines approach the format's ~8x bound.
    EXPECT_GT(ratio, 5.0);
    Bytes out;
    ASSERT_TRUE(codec.decompress(compressed, &out).isOk());
    EXPECT_EQ(out.size(), text.size());
}

/**
 * Property sweep: the page encoder round-trips random line streams
 * across length regimes — empty-heavy, short, word-boundary-aligned,
 * long, and mixed — for several seeds.
 */
class LzahLineSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(LzahLineSweep, PageEncoderRoundTrips)
{
    auto [regime, seed] = GetParam();
    Rng rng(static_cast<uint64_t>(seed) * 7919 + regime);

    auto line_length = [&]() -> size_t {
        switch (regime) {
          case 0:  // empty-heavy
            return rng.chance(0.5) ? 0 : rng.below(4);
          case 1:  // short tokensy lines
            return 1 + rng.below(24);
          case 2:  // around word-size multiples
            return 16 * (1 + rng.below(4)) + rng.below(3) - 1;
          case 3:  // long lines
            return 200 + rng.below(1200);
          default:  // mixed
            return rng.below(400);
        }
    };

    LzahPageEncoder enc;
    std::string expect;
    for (int i = 0; i < 400; ++i) {
        std::string line;
        size_t len = line_length();
        for (size_t b = 0; b < len; ++b) {
            // Printable, no newline/NUL (LZAH's input contract).
            line += static_cast<char>(' ' + rng.below(95));
        }
        ASSERT_NE(enc.addLine(line), AddLineResult::kRejected);
        expect += line;
        expect += '\n';
    }
    enc.flush();
    EXPECT_EQ(decodeAll(enc.pages(), false), expect);
    // Padded form is consistent word-wise with the unpadded form.
    Bytes padded;
    uint64_t words = 0;
    for (const Bytes &page : enc.pages()) {
        ASSERT_TRUE(lzahDecodePage(page, true, &padded, &words).isOk());
    }
    EXPECT_EQ(padded.size(), words * kLzahWord);
    EXPECT_GE(padded.size(), expect.size());
}

INSTANTIATE_TEST_SUITE_P(
    RegimesAndSeeds, LzahLineSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(1, 2, 3)));

TEST(LzahCodecTest, RejectsCorruptMagic)
{
    Lzah codec;
    std::string text = "a line of text\n";
    Bytes compressed = codec.compress(asBytes(text));
    // Flip a byte inside the first page's header magic region.
    ASSERT_GT(compressed.size(), 32u);
    compressed[13 + 4 + 8] ^= 0xff;
    Bytes out;
    EXPECT_FALSE(codec.decompress(compressed, &out).isOk());
}

TEST(LzahCodecTest, RejectsTruncatedFrame)
{
    Lzah codec;
    Bytes out;
    Bytes tiny{1, 2, 3};
    EXPECT_EQ(codec.decompress(tiny, &out).code(),
              StatusCode::kCorruptData);
}

} // namespace
} // namespace mithril::compress
