/**
 * @file
 * Extractor-registry tests (DESIGN.md §15), centered on the boundary
 * forms real logs glue values into: `src=10.1.2.3,`, `[deadbeef01]`,
 * `host:10.0.0.1`. These are exact-byte regression tests — each input
 * line pins the exact key sequence extractLine() must emit, so any
 * ladder or trimming change that shifts extraction shows up here
 * before it silently splits the ingest-time and query-time views.
 */
#include "typed/extract.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/text.h"
#include "loggen/datasets.h"
#include "loggen/incident.h"
#include "loggen/log_generator.h"
#include "typed/typed_key.h"

namespace mithril::typed {
namespace {

std::vector<TypedKey>
keysOf(std::string_view line)
{
    std::vector<TypedKey> keys;
    extractLine(line, [&](const TypedKey &k) { keys.push_back(k); });
    return keys;
}

TEST(ExtractTest, PlainTokens)
{
    auto keys = keysOf("connection from 10.1.2.3 established");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], ip4Key({10, 1, 2, 3}));

    keys = keysOf("session deadbeef01 opened");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], hexIdKey("deadbeef01"));
}

TEST(ExtractTest, KeyValueWithTrailingComma)
{
    // The satellite form: `src=10.1.2.3,` — '=' ladder rung plus
    // trailing-punctuation trim, in one token.
    auto keys = keysOf("fw: DROP src=10.1.2.3, dst=10.0.0.5 proto=tcp");
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], ip4Key({10, 1, 2, 3}));
    EXPECT_EQ(keys[1], ip4Key({10, 0, 0, 5}));
}

TEST(ExtractTest, BracketedHexId)
{
    // The satellite form: `[deadbeef01]` — surrounding punctuation.
    auto keys = keysOf("auth: session [f00dfeed8badc0de] opened");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], hexIdKey("f00dfeed8badc0de"));
}

TEST(ExtractTest, ColonPrefixedValue)
{
    auto keys = keysOf("peer host:10.9.8.7 ready");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], ip4Key({10, 9, 8, 7}));
}

TEST(ExtractTest, SentencePunctuation)
{
    // Trailing sentence dot after a dotted quad: strip exactly one.
    auto keys = keysOf("unreachable peer 10.1.2.3.");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], ip4Key({10, 1, 2, 3}));

    keys = keysOf("was it 10.1.2.3?");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], ip4Key({10, 1, 2, 3}));

    keys = keysOf("(10.1.2.3)");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], ip4Key({10, 1, 2, 3}));
}

TEST(ExtractTest, MacBeforeIp6Disambiguation)
{
    // A MAC is also lexable as IPv6 hex groups; the registry order
    // must classify the 17-byte two-nibble form as a MAC.
    auto keys = keysOf("link aa:bb:cc:dd:ee:ff up");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], macKey({0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}));

    keys = keysOf("addr 2001:db8::1 reachable");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0].kind, TypedKind::kIp6);
}

TEST(ExtractTest, SyslogHeaderSpansTokens)
{
    uint64_t epoch = 0;
    ASSERT_TRUE(parseSyslogTime("Jun", "3", "22:02:50", &epoch));
    auto keys = keysOf("- 1117836170 sn42 Jun 3 22:02:50 src@sn42 up");
    // The three-token header is found at line level; the epoch-like
    // number is a pure digit run (not a hex id, not an address).
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], timestampKey(epoch));
}

TEST(ExtractTest, OneKeyPerToken)
{
    // First ladder hit wins: the raw token parses as an RFC 3339
    // timestamp; the ladder must not also emit for later rungs.
    auto keys = keysOf("at 2026-08-09T12:34:56Z exactly");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0].kind, TypedKind::kTimestamp);
}

TEST(ExtractTest, NonValuesEmitNothing)
{
    EXPECT_TRUE(keysOf("").empty());
    EXPECT_TRUE(keysOf("plain words only here").empty());
    EXPECT_TRUE(keysOf("version 1.2.3 released").empty());  // 3 octets
    EXPECT_TRUE(keysOf("error code 404 at line 12345678").empty());
}

/** The first @p count lines of HPC4 generator @p dataset. */
std::vector<std::string>
hpc4Lines(size_t dataset, size_t count)
{
    loggen::LogGenerator gen(loggen::hpc4Datasets()[dataset]);
    std::vector<std::string> lines;
    for (size_t i = 0; i < count; ++i) {
        lines.push_back(gen.line());
    }
    return lines;
}

std::vector<std::string>
incidentLines()
{
    loggen::IncidentGroundTruth truth;
    std::string text =
        loggen::generateIncident(loggen::IncidentSpec{}, &truth);
    std::vector<std::string> lines;
    forEachLine(text, [&](std::string_view line) {
        lines.emplace_back(line);
    });
    return lines;
}

/**
 * Seeded lines of values glued to log syntax: brackets, trailing '.'
 * and ',', k=v, host:v, 0x prefixes, near-miss addresses, and 1-8
 * byte tokens with and without ':' (the short-token skip's edge).
 */
std::vector<std::string>
fuzzLines(size_t count)
{
    Rng rng(0x7e57);
    auto pick = [&](std::string_view alphabet, size_t len) {
        std::string s;
        for (size_t i = 0; i < len; ++i) {
            s += alphabet[rng.below(alphabet.size())];
        }
        return s;
    };
    auto octet = [&]() {
        // Mostly valid, sometimes a leading zero or an overflow.
        switch (rng.below(8)) {
        case 0:
            return std::string("0") + std::to_string(rng.below(10));
        case 1:
            return std::to_string(256 + rng.below(100));
        default:
            return std::to_string(rng.below(256));
        }
    };
    auto value = [&]() -> std::string {
        switch (rng.below(10)) {
        case 0:
            return octet() + "." + octet() + "." + octet() + "." + octet();
        case 1: {
            std::string v = pick("0123456789abcdefABCDEF", 1 + rng.below(4));
            for (size_t g = 0, n = rng.below(8); g < n; ++g) {
                v += (rng.chance(0.2) ? "::" : ":")
                     + pick("0123456789abcdef", 1 + rng.below(4));
            }
            return rng.chance(0.2) ? "::ffff:" + octet() + ".1.2."
                                         + octet()
                                   : v;
        }
        case 2: {
            const char *sep = rng.chance(0.5) ? ":" : "-";
            std::string v = pick("0123456789abcdefABCDEF", 2);
            for (int g = 0; g < 5; ++g) {
                v += (rng.chance(0.05) ? "." : sep)
                     + pick("0123456789abcdefABCDEF", 2);
            }
            return v;
        }
        case 3:
            return (rng.chance(0.3) ? "0x" : "")
                   + pick(rng.chance(0.3) ? "0123456789"
                                          : "0123456789abcdefABCDEF",
                          4 + rng.below(66));
        case 4:
            return "20" + pick("0123456789", 2) + "-"
                   + pick("01", 1) + pick("0123456789", 1) + "-"
                   + pick("0123", 1) + pick("0123456789", 1) + "T"
                   + pick("012", 1) + pick("0123456789", 1) + ":"
                   + pick("012345", 1) + pick("0123456789", 1) + ":"
                   + pick("012345", 1) + pick("0123456789", 1)
                   + (rng.chance(0.3) ? "." + pick("0123456789", 3) : "")
                   + (rng.chance(0.5) ? "Z" : "+05:30");
        case 5:
        case 6:
            // 1-8 bytes, with and without ':'.
            return pick(rng.chance(0.5) ? "0123456789abcdefx.:"
                                        : "0123456789abcdefx.",
                        1 + rng.below(8));
        default:
            return pick("abcdefghijklmnopqrstuvwxyz0123456789.-_/",
                        1 + rng.below(12));
        }
    };
    auto glue = [&](const std::string &v) -> std::string {
        switch (rng.below(12)) {
        case 0:
            return "[" + v + "]";
        case 1:
            return "(" + v + "),";
        case 2:
            return v + ".";
        case 3:
            return v + ",";
        case 4:
            return "src=" + v;
        case 5:
            return "dst=" + v + ",";
        case 6:
            return "host:" + v;
        case 7:
            return "\"" + v + "\";";
        case 8:
            return "k=[" + v + "]!";
        default:
            return v;
        }
    };
    static const char *const kSyslog[] = {"Aug  9 12:34:56", "Jun 3 22:02:50",
                                          "Dec 31 23:59:60", "Feb 30 1:2:3"};
    std::vector<std::string> lines;
    for (size_t i = 0; i < count; ++i) {
        std::string line;
        if (rng.chance(0.15)) {
            line += kSyslog[rng.below(std::size(kSyslog))];
        }
        for (size_t t = 0, n = 1 + rng.below(8); t < n; ++t) {
            if (!line.empty()) {
                line += rng.chance(0.8) ? " " : "\t ";
            }
            line += glue(value());
        }
        lines.push_back(std::move(line));
    }
    return lines;
}

/** hash64 of the (line number, kind, key bytes) stream extractLine()
 *  emits over @p lines; *keys receives the number of keys. */
uint64_t
keyStreamDigest(const std::vector<std::string> &lines, size_t *keys)
{
    std::vector<uint8_t> stream;
    *keys = 0;
    for (size_t n = 0; n < lines.size(); ++n) {
        extractLine(lines[n], [&](const TypedKey &k) {
            putLe<uint64_t>(stream, n);
            putLe<uint8_t>(stream, static_cast<uint8_t>(k.kind));
            putLe<uint32_t>(stream, static_cast<uint32_t>(k.bytes.size()));
            stream.insert(stream.end(), k.bytes.begin(), k.bytes.end());
            ++*keys;
        });
    }
    return hash64(stream.data(), stream.size());
}

/**
 * The typed key stream is part of the posting-list format: any change
 * to the ladder, the trimming or a parser's fast path must emit the
 * same keys, in the same order, for every line. The constants were
 * recorded from the extractor that split each line itself and tried
 * every parser on every candidate.
 */
TEST(ExtractTest, KeyStreamDigestIsStable)
{
    struct Input {
        const char *name;
        std::vector<std::string> lines;
        uint64_t digest;
    };
    const Input inputs[] = {
        {"hpc4[0]", hpc4Lines(0, 20000), 0x5d5a19741e5893d3ull},
        {"hpc4[1]", hpc4Lines(1, 20000), 0x5d9d82a6219fe0e8ull},
        {"hpc4[2]", hpc4Lines(2, 20000), 0x9be9bbf967079a60ull},
        {"hpc4[3]", hpc4Lines(3, 20000), 0xb0873b3f303bfb94ull},
        {"incident", incidentLines(), 0x34bd4d96dad95d09ull},
        {"fuzz", fuzzLines(20000), 0xf9c69d3857f9ffd6ull},
    };
    for (const Input &in : inputs) {
        size_t keys = 0;
        uint64_t digest = keyStreamDigest(in.lines, &keys);
        EXPECT_EQ(digest, in.digest)
            << in.name << ": " << keys << " keys over " << in.lines.size()
            << " lines, digest 0x" << std::hex << digest;
        EXPECT_GT(keys, 0u) << in.name;
    }
}

/**
 * Ingest extracts from the token list of its one tokenizer pass
 * (forEachToken into a vector reused from line to line); queries and
 * oracles call extractLine(). Both must see the same keys on every
 * line of the digest inputs.
 */
TEST(ExtractTest, TokenListEntryMatchesExtractLine)
{
    std::vector<std::vector<std::string>> inputs = {
        hpc4Lines(0, 20000), hpc4Lines(1, 20000), hpc4Lines(2, 20000),
        hpc4Lines(3, 20000), incidentLines(), fuzzLines(20000)};
    std::vector<std::string_view> tokens;
    size_t lines = 0;
    for (const std::vector<std::string> &input : inputs) {
        for (const std::string &line : input) {
            tokens.clear();
            forEachToken(line, [&](std::string_view tok, uint32_t) {
                tokens.push_back(tok);
                return true;
            });
            std::vector<TypedKey> from_tokens;
            extractTokens(tokens, [&](const TypedKey &k) {
                from_tokens.push_back(k);
            });
            ASSERT_EQ(from_tokens, keysOf(line)) << line;
            ++lines;
        }
    }
    EXPECT_GT(lines, 100000u);
}

TEST(ExtractTest, LineContainsKey)
{
    TypedKey key = ip4Key({10, 1, 2, 3});
    EXPECT_TRUE(lineContainsKey("src=10.1.2.3, ok", key));
    EXPECT_FALSE(lineContainsKey("src=10.1.2.4, ok", key));
}

} // namespace
} // namespace mithril::typed
