#include "typed/extract.h"

#include <algorithm>

#include "common/text.h"

namespace mithril::typed {

namespace {

bool
tryIp4(std::string_view candidate, TypedKey *out)
{
    std::array<uint8_t, 4> octets{};
    if (!parseIp4(candidate, &octets)) {
        return false;
    }
    *out = ip4Key(octets);
    return true;
}

bool
tryMac(std::string_view candidate, TypedKey *out)
{
    std::array<uint8_t, 6> octets{};
    if (!parseMac(candidate, &octets)) {
        return false;
    }
    *out = macKey(octets);
    return true;
}

bool
tryIp6(std::string_view candidate, TypedKey *out)
{
    std::array<uint8_t, 16> groups{};
    if (!parseIp6(candidate, &groups)) {
        return false;
    }
    *out = ip6Key(groups);
    return true;
}

bool
tryHexId(std::string_view candidate, TypedKey *out)
{
    std::string nibbles;
    if (!parseHexId(candidate, &nibbles)) {
        return false;
    }
    *out = hexIdKey(nibbles);
    return true;
}

bool
tryRfc3339(std::string_view candidate, TypedKey *out)
{
    uint64_t epoch_s = 0;
    if (!parseRfc3339(candidate, &epoch_s)) {
        return false;
    }
    *out = timestampKey(epoch_s);
    return true;
}

bool
isHexDigit(char c)
{
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
           || (c >= 'A' && c <= 'F');
}

/** The length of a candidate and which of the separators '.', ':' and
 *  '-' it holds: what the registry's screens read. */
struct Shape {
    size_t size = 0;
    bool dot = false;
    bool colon = false;
    bool dash = false;
};

Shape
shapeOf(std::string_view candidate)
{
    Shape shape{candidate.size()};
    for (char c : candidate) {
        shape.dot |= c == '.';
        shape.colon |= c == ':';
        shape.dash |= c == '-';
    }
    return shape;
}

/** One value family: its parser behind a screen. Each screen is a
 *  necessary condition of its parser, so a candidate it turns away is
 *  one the parser would have rejected. */
struct Extractor {
    bool (*admits)(const Shape &);
    bool (*parse)(std::string_view, TypedKey *);
};

// The registry, in ladder order (tried first to last per candidate).
// Each extractor tries the whole candidate token and returns false when
// it is not its value family.
// MAC before IPv6: "aa:bb:cc:dd:ee:ff" is also parseable as hex
// groups, and the 17-byte two-nibble form is the stronger signal.
// IPv4 before hex id keeps "10101010" unambiguous (it has no dots, so
// the order only matters for documentation).
constexpr Extractor kRegistry[] = {
    // Four octets joined by '.'.
    {[](const Shape &s) { return s.dot; }, tryIp4},
    // Six two-nibble groups joined by ':' or '-'.
    {[](const Shape &s) { return s.size == 17 && (s.colon || s.dash); },
     tryMac},
    // Groups joined by ':'; requiring one also keeps plain hex ids
    // away from the (permissive) IPv6 grammar.
    {[](const Shape &s) { return s.colon; }, tryIp6},
    // 8..64 nibbles after an optional "0x", so no separator at all.
    {[](const Shape &s) {
         return s.size >= 8 && !s.dot && !s.colon && !s.dash;
     },
     tryHexId},
    // YYYY-MM-DDThh:mm:ssZ, 20 bytes, is the shortest form.
    {[](const Shape &s) { return s.size >= 20 && s.dash && s.colon; },
     tryRfc3339},
};

bool
isTrimmable(char c)
{
    switch (c) {
    case '(':
    case ')':
    case '[':
    case ']':
    case '{':
    case '}':
    case '<':
    case '>':
    case '"':
    case '\'':
    case ',':
    case ';':
        return true;
    default:
        return false;
    }
}

/** Strips surrounding punctuation plus a trailing sentence '.' — but
 *  never a '.' that would cut into a dotted quad ("10.1.2.3." trims,
 *  "10.1.2.3" does not). */
std::string_view
trimPunct(std::string_view token)
{
    while (!token.empty() && isTrimmable(token.front())) {
        token.remove_prefix(1);
    }
    while (!token.empty()
           && (isTrimmable(token.back()) || token.back() == '.'
               || token.back() == '!' || token.back() == '?')) {
        if (token.back() == '.' && token.size() >= 2
            && token[token.size() - 2] >= '0'
            && token[token.size() - 2] <= '9'
            && token.find('.') != token.size() - 1) {
            // "10.1.2.3." — strip exactly the one trailing dot.
            token.remove_suffix(1);
            break;
        }
        token.remove_suffix(1);
    }
    return token;
}

/** True when @p c can start a value of some registered family: IPv4,
 *  RFC 3339 and `0x`-prefixed ids start with a decimal digit, MACs,
 *  IPv6 groups and bare ids with a hex digit, and a compressed IPv6
 *  address with ':'. */
bool
mayStartValue(char c)
{
    return isHexDigit(c) || c == ':';
}

/**
 * False only when no candidate of @p token can yield a key. Every
 * candidate is a substring of the token. Every family but the hex id
 * needs a '.', ':' or '-'; without a ':' the shortest such value is a
 * 7-byte dotted quad ("1.2.3.4"), and IPv6 needs a ':'. A hex id needs
 * a run of at least 8 hex digits with a letter among them.
 */
bool
mayHoldKey(std::string_view token)
{
    if (token.size() < 7) {
        return token.find(':') != std::string_view::npos;
    }
    size_t run = 0;
    bool letter = false;
    for (char c : token) {
        if (c == '.' || c == ':' || c == '-') {
            return true;
        }
        if (!isHexDigit(c)) {
            run = 0;
            letter = false;
            continue;
        }
        ++run;
        letter |= c > '9';
        if (run >= 8 && letter) {
            return true;
        }
    }
    return false;
}

/** Tries every registered extractor that admits one candidate. */
bool
tryCandidate(std::string_view candidate, TypedKey *out)
{
    if (candidate.empty() || !mayStartValue(candidate.front())) {
        return false;
    }
    Shape shape = shapeOf(candidate);
    for (const Extractor &e : kRegistry) {
        if (e.admits(shape) && e.parse(candidate, out)) {
            return true;
        }
    }
    return false;
}

} // namespace

bool
headerKey(std::span<const std::string_view> tokens, TypedKey *key)
{
    size_t n = std::min(tokens.size(), kHeaderTokens);
    for (size_t i = 0; i + 2 < n; ++i) {
        uint64_t epoch_s = 0;
        // Every month name is 3 bytes.
        if (tokens[i].size() == 3
            && parseSyslogTime(tokens[i], tokens[i + 1], tokens[i + 2],
                               &epoch_s)) {
            *key = timestampKey(epoch_s);
            return true;
        }
    }
    return false;
}

bool
tokenKey(std::string_view token, TypedKey *key)
{
    if (!mayHoldKey(token)) {
        return false;
    }
    // Boundary-candidate ladder: raw token, punctuation-trimmed, value
    // after '=', value after the last ':'. First hit wins.
    if (tryCandidate(token, key)) {
        return true;
    }
    std::string_view trimmed = trimPunct(token);
    if (trimmed != token && tryCandidate(trimmed, key)) {
        return true;
    }
    size_t eq = trimmed.rfind('=');
    if (eq != std::string_view::npos
        && tryCandidate(trimPunct(trimmed.substr(eq + 1)), key)) {
        return true;
    }
    size_t colon = trimmed.rfind(':');
    return colon != std::string_view::npos
           && tryCandidate(trimPunct(trimmed.substr(colon + 1)), key);
}

void
extractTokens(std::span<const std::string_view> tokens, const KeySink &sink)
{
    TypedKey key;
    if (headerKey(tokens, &key)) {
        sink(key);
    }
    for (std::string_view token : tokens) {
        if (tokenKey(token, &key)) {
            sink(key);
        }
    }
}

void
extractLine(std::string_view line, const KeySink &sink)
{
    extractTokens(splitTokens(line), sink);
}

bool
lineContainsKey(std::string_view line, const TypedKey &key)
{
    bool found = false;
    extractLine(line, [&](const TypedKey &k) {
        if (k == key) {
            found = true;
        }
    });
    return found;
}

} // namespace mithril::typed
