#include "typed/extract.h"

#include <vector>

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
    // Require at least one ':' so plain hex ids never reach the
    // (permissive) IPv6 grammar.
    if (candidate.find(':') == std::string_view::npos) {
        return false;
    }
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

// The registry, in ladder order (tried first to last per candidate).
// Each extractor tries the whole candidate token and returns false when
// it is not its value family.
// MAC before IPv6: "aa:bb:cc:dd:ee:ff" is also parseable as hex
// groups, and the 17-byte two-nibble form is the stronger signal.
// IPv4 before hex id keeps "10101010" unambiguous (it has no dots, so
// the order only matters for documentation).
constexpr bool (*kRegistry[])(std::string_view, TypedKey *) = {
    tryIp4, tryMac, tryIp6, tryHexId, tryRfc3339,
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
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
           || (c >= 'A' && c <= 'F') || c == ':';
}

/** True when no rung of the ladder can yield a key for @p token. Every
 *  candidate is a substring of the token; without a ':' the shortest
 *  value of any family is a 7-byte dotted quad ("1.2.3.4"), and IPv6
 *  needs a ':'. */
bool
tooShortForAnyKey(std::string_view token)
{
    return token.size() < 7 && token.find(':') == std::string_view::npos;
}

/** Tries every registered extractor against one candidate. */
bool
tryCandidate(std::string_view candidate, TypedKey *out)
{
    if (candidate.empty() || !mayStartValue(candidate.front())) {
        return false;
    }
    for (auto parse : kRegistry) {
        if (parse(candidate, out)) {
            return true;
        }
    }
    return false;
}

} // namespace

void
extractTokens(std::span<const std::string_view> tokens, const KeySink &sink)
{
    // Line-level pass: the syslog header ("Aug  9 12:34:56") spans
    // three whitespace tokens, so it cannot be recognized token-wise.
    for (size_t i = 0; i + 2 < tokens.size() && i < 4; ++i) {
        uint64_t epoch_s = 0;
        if (parseSyslogTime(tokens[i], tokens[i + 1], tokens[i + 2],
                            &epoch_s)) {
            sink(timestampKey(epoch_s));
            break;
        }
    }

    for (std::string_view token : tokens) {
        if (tooShortForAnyKey(token)) {
            continue;
        }
        TypedKey key;
        // Boundary-candidate ladder: raw token, punctuation-trimmed,
        // value after '=', value after the last ':'. First hit wins.
        if (tryCandidate(token, &key)) {
            sink(key);
            continue;
        }
        std::string_view trimmed = trimPunct(token);
        if (trimmed != token && tryCandidate(trimmed, &key)) {
            sink(key);
            continue;
        }
        size_t eq = trimmed.rfind('=');
        if (eq != std::string_view::npos
            && tryCandidate(trimPunct(trimmed.substr(eq + 1)), &key)) {
            sink(key);
            continue;
        }
        size_t colon = trimmed.rfind(':');
        if (colon != std::string_view::npos
            && tryCandidate(trimPunct(trimmed.substr(colon + 1)),
                            &key)) {
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
