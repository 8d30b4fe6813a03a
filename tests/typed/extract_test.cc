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

#include <array>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/hash.h"
#include "common/text.h"
#include "key_corpora.h"
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

// Keys taken from the parsers themselves, for the screen table below.
TypedKey
ip4(std::string_view text)
{
    std::array<uint8_t, 4> v{};
    EXPECT_TRUE(parseIp4(text, &v)) << text;
    return ip4Key(v);
}

TypedKey
ip6(std::string_view text)
{
    std::array<uint8_t, 16> v{};
    EXPECT_TRUE(parseIp6(text, &v)) << text;
    return ip6Key(v);
}

TypedKey
mac(std::string_view text)
{
    std::array<uint8_t, 6> v{};
    EXPECT_TRUE(parseMac(text, &v)) << text;
    return macKey(v);
}

TypedKey
hexId(std::string_view text)
{
    std::string nibbles;
    EXPECT_TRUE(parseHexId(text, &nibbles)) << text;
    return hexIdKey(nibbles);
}

TypedKey
rfc3339(std::string_view text)
{
    uint64_t epoch_s = 0;
    EXPECT_TRUE(parseRfc3339(text, &epoch_s)) << text;
    return timestampKey(epoch_s);
}

/** tokenKey(@p token) as a key, kNone when it finds none; extractLine()
 *  must agree on a line of that one token. */
TypedKey
screened(const std::string &token)
{
    TypedKey key;
    bool found = tokenKey(token, &key);
    EXPECT_EQ(found, key.valid()) << token;
    std::vector<TypedKey> line = keysOf(token);
    EXPECT_EQ(line, found ? std::vector<TypedKey>{key}
                          : std::vector<TypedKey>{})
        << token;
    return key;
}

/**
 * The screens in front of the parsers are exact: each family's shortest
 * and longest forms, glued to every mark trimPunct strips, after `=` and
 * after `:`, still yield the key the family's parser gives, and the
 * near misses yield none.
 */
TEST(ExtractTest, ScreensAreExact)
{
    const std::string hex64 =
        "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";
    struct Row {
        std::string value;
        TypedKey key;
    };
    const Row rows[] = {
        {"1.2.3.4", ip4("1.2.3.4")},
        {"255.255.255.255", ip4("255.255.255.255")},
        {"aa:bb:cc:dd:ee:ff", mac("aa:bb:cc:dd:ee:ff")},
        {"AA-BB-CC-DD-EE-FF", mac("AA-BB-CC-DD-EE-FF")},
        {"::", ip6("::")},
        {"ffff:ffff:ffff:ffff:ffff:ffff:255.255.255.255",
         ip6("ffff:ffff:ffff:ffff:ffff:ffff:255.255.255.255")},
        {"deadbeef", hexId("deadbeef")},
        {hex64, hexId(hex64)},
        {"0x" + hex64, hexId("0x" + hex64)},
        {"DEADBEEF01", hexId("DEADBEEF01")},
        {"0XFEEDC0DE", hexId("0XFEEDC0DE")},
        {"2026-08-09T12:34:56Z", rfc3339("2026-08-09T12:34:56Z")},
        {"2026-08-09T12:34:56.123456789+05:30",
         rfc3339("2026-08-09T12:34:56.123456789+05:30")},
    };
    for (const Row &row : rows) {
        ASSERT_TRUE(row.key.valid()) << row.value;
        EXPECT_EQ(screened(row.value), row.key) << row.value;
        for (char mark : std::string_view("()[]{}<>\"',;")) {
            EXPECT_EQ(screened(mark + row.value), row.key)
                << mark << row.value;
            EXPECT_EQ(screened(row.value + mark), row.key)
                << row.value << mark;
        }
        for (char mark : std::string_view(".!?")) {
            EXPECT_EQ(screened(row.value + mark), row.key)
                << row.value << mark;
        }
        EXPECT_EQ(screened("src=" + row.value), row.key) << row.value;
        EXPECT_EQ(screened("k=[" + row.value + "],"), row.key)
            << row.value;
        if (row.value.find(':') == std::string::npos) {
            // After the last ':' only; a value with its own ':' is cut.
            EXPECT_EQ(screened("host:" + row.value), row.key)
                << row.value;
        }
    }

    const std::string near_misses[] = {
        "deadbee",                 // 7 nibbles
        hex64 + "a",               // 65 nibbles
        "0x" + hex64 + "a",
        "12345678",                // all-digit runs are numbers
        "0x12345678",
        "1234567890123456",
        "aa:bb:cc:dd:ee:f",        // 16-byte MACs
        "aa-bb-cc-dd-ee-f",
        "1.2.3",                   // 3 octets
        "01.2.3.4",                // leading zero
        "2026-08-09T12:34:56",     // 19 bytes, no zone
        "dead-beef",               // separators cut the hex run
        "x=deadbee.",
    };
    for (const std::string &token : near_misses) {
        EXPECT_FALSE(screened(token).valid()) << token;
    }
}

/** headerKey() finds a syslog header that starts at one of the first
 *  four tokens, reads no further than kHeaderTokens, and takes only a
 *  3-byte month name. */
TEST(ExtractTest, HeaderKeyReadsTheFirstSixTokens)
{
    uint64_t epoch = 0;
    ASSERT_TRUE(parseSyslogTime("Aug", "9", "12:34:56", &epoch));
    std::string lead;
    for (size_t at = 0; at <= 5; ++at) {
        std::string line = lead + "Aug  9 12:34:56 up";
        std::vector<std::string_view> tokens = splitTokens(line);
        TypedKey key;
        bool found = headerKey(tokens, &key);
        EXPECT_EQ(found, at < 4) << line;
        if (found) {
            EXPECT_EQ(key, timestampKey(epoch)) << line;
        }
        lead += "w" + std::to_string(at) + " ";
    }
    TypedKey key;
    std::vector<std::string_view> august =
        splitTokens("Augu 9 12:34:56 up");
    EXPECT_FALSE(headerKey(august, &key));
    std::vector<std::string_view> lower = splitTokens("aug 9 12:34:56");
    EXPECT_FALSE(headerKey(lower, &key));
    EXPECT_FALSE(key.valid());
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
