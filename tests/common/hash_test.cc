#include "common/hash.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

namespace mithril {
namespace {

TEST(Mix64Test, IsDeterministic)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(Mix64Test, AvalanchesSingleBitFlips)
{
    // Flipping one input bit should flip a substantial number of output
    // bits (a weak but effective sanity test for mixers).
    for (int bit = 0; bit < 64; ++bit) {
        uint64_t a = mix64(0x1234567890abcdefull);
        uint64_t b = mix64(0x1234567890abcdefull ^ (1ull << bit));
        int flipped = __builtin_popcountll(a ^ b);
        EXPECT_GE(flipped, 16) << "bit " << bit;
        EXPECT_LE(flipped, 48) << "bit " << bit;
    }
}

TEST(Hash64Test, EmptyInputIsStable)
{
    EXPECT_EQ(hash64("", 0), hash64("", 0));
    EXPECT_NE(hash64("", 0), hash64("", 1));
}

TEST(Hash64Test, SeedChangesResult)
{
    EXPECT_NE(hash64("token", 1), hash64("token", 2));
}

TEST(Hash64Test, LengthExtensionDiffers)
{
    // "ab" + "c" vs "abc" with different boundaries must differ from
    // plain prefixes.
    EXPECT_NE(hash64("abc"), hash64("ab"));
    EXPECT_NE(hash64("abc"), hash64("abcd"));
}

TEST(Hash64Test, TailBytesMatter)
{
    // Inputs differing only in the last byte past an 8-byte boundary.
    std::string a = "12345678X";
    std::string b = "12345678Y";
    EXPECT_NE(hash64(a), hash64(b));
}

TEST(Hash64Test, DistributionOverBucketsIsRoughlyUniform)
{
    constexpr int kBuckets = 64;
    constexpr int kSamples = 64000;
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kSamples; ++i) {
        std::string key = "token-" + std::to_string(i);
        ++counts[hash64(key) % kBuckets];
    }
    for (int c : counts) {
        EXPECT_GT(c, kSamples / kBuckets / 2);
        EXPECT_LT(c, kSamples / kBuckets * 2);
    }
}

TEST(Crc32Test, MatchesKnownVectors)
{
    // Standard IEEE CRC-32 check values.
    EXPECT_EQ(crc32("", 0), 0u);
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog", 43),
              0x414fa339u);
}

TEST(Crc32Test, SeedContinuesAcrossRanges)
{
    const char *msg = "123456789";
    uint32_t split = crc32(msg + 4, 5, crc32(msg, 4));
    EXPECT_EQ(split, crc32(msg, 9));
}

/** Bit-at-a-time reflected CRC-32 (polynomial 0xEDB88320), written
 *  independently of the table-driven implementation under test. */
uint32_t
bytewiseCrc32(const uint8_t *p, size_t len, uint32_t seed = 0)
{
    uint32_t c = ~seed;
    for (size_t i = 0; i < len; ++i) {
        c ^= p[i];
        for (int bit = 0; bit < 8; ++bit) {
            c = (c >> 1) ^ ((c & 1u) ? 0xedb88320u : 0u);
        }
    }
    return ~c;
}

TEST(Crc32Test, MatchesBytewiseReference)
{
    // Every length 0..72 at every start offset 0..7: covers the head
    // bytes before an 8-byte stride, whole strides and every tail.
    std::vector<uint8_t> buf(8 + 72);
    for (size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    for (size_t off = 0; off < 8; ++off) {
        for (size_t len = 0; len <= 72; ++len) {
            EXPECT_EQ(crc32(buf.data() + off, len),
                      bytewiseCrc32(buf.data() + off, len))
                << "offset " << off << " length " << len;
        }
    }

    // One storage page of non-repeating bytes.
    std::vector<uint8_t> page(4096);
    uint64_t x = 0x243f6a8885a308d3ull;
    for (uint8_t &b : page) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        b = static_cast<uint8_t>(x >> 56);
    }
    EXPECT_EQ(crc32(page.data(), page.size()),
              bytewiseCrc32(page.data(), page.size()));

    // A seed carried across a split at every offset of a 64-byte
    // message equals the one-shot CRC of the whole message.
    const uint8_t *msg = page.data() + 3;
    const uint32_t whole = bytewiseCrc32(msg, 64);
    for (size_t cut = 0; cut <= 64; ++cut) {
        EXPECT_EQ(crc32(msg + cut, 64 - cut, crc32(msg, cut)), whole)
            << "split at " << cut;
    }
}

TEST(Crc32Test, DetectsSingleBitFlips)
{
    std::vector<uint8_t> buf(4096, 0x5a);
    uint32_t clean = crc32(buf.data(), buf.size());
    for (size_t bit : {size_t{0}, size_t{17}, size_t{4096 * 8 - 1}}) {
        buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_NE(crc32(buf.data(), buf.size()), clean) << "bit " << bit;
        buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    EXPECT_EQ(crc32(buf.data(), buf.size()), clean);
}

TEST(HashPairTest, ProducesIndicesInRange)
{
    HashPair pair(256);
    for (int i = 0; i < 1000; ++i) {
        std::string key = "k" + std::to_string(i);
        EXPECT_LT(pair.h0(key), 256u);
        EXPECT_LT(pair.h1(key), 256u);
    }
}

TEST(HashPairTest, TwoFunctionsAreIndependent)
{
    // h0 == h1 for a random key should happen about 1/rows of the time.
    HashPair pair(256);
    int collisions = 0;
    constexpr int kSamples = 10000;
    for (int i = 0; i < kSamples; ++i) {
        std::string key = "key-" + std::to_string(i);
        if (pair.h0(key) == pair.h1(key)) {
            ++collisions;
        }
    }
    // Expected ~39; allow a wide band.
    EXPECT_LT(collisions, 120);
}

TEST(HashPairTest, DeterministicAcrossInstances)
{
    HashPair a(1024), b(1024);
    EXPECT_EQ(a.h0("RAS"), b.h0("RAS"));
    EXPECT_EQ(a.h1("RAS"), b.h1("RAS"));
}

} // namespace
} // namespace mithril
