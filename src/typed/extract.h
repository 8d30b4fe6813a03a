/**
 * @file
 * The typed-field extractor registry (DESIGN.md §15).
 *
 * Extraction is a pure function of the line bytes: every component that
 * needs typed values — the ingest pipeline feeding the posting lists,
 * the software matcher evaluating typed predicates, the degraded
 * full-scan path, and the test oracles — gets the key stream
 * extractLine() emits. extractTokens() emits it from a line's token
 * list; ingest, which sees each distinct token of a page many times,
 * calls tokenKey() once per distinct token and headerKey() once per
 * line, which yields the same keys. Ad-hoc parsing of line bytes outside
 * src/typed/ is forbidden by the `typed-extractor` lint rule, for the
 * same reason the delimiter set lives in exactly one place: divergence
 * would silently break the index-vs-scan equivalence invariant.
 *
 * Tokens are delimited by the shared whitespace set, then each raw
 * token walks a boundary-candidate ladder (raw, punctuation-trimmed,
 * after `=`, after the last `:`) so values glued to log syntax —
 * `src=10.1.2.3,` or `[deadbeef01]` — still extract cleanly; the first
 * candidate any extractor accepts wins, so one token yields at most one
 * key. Timestamps are additionally matched at line level (the classic
 * syslog header spans three tokens). Exact screens stand in front of
 * the parsers: a token with none of `.`, `:`, `-` and no run of 8 hex
 * digits holding a letter skips the ladder, each family's parser runs
 * only on a candidate with the length and separators it needs, and the
 * header pass tries only 3-byte month tokens.
 */
#ifndef MITHRIL_TYPED_EXTRACT_H
#define MITHRIL_TYPED_EXTRACT_H

#include <cstddef>
#include <functional>
#include <span>
#include <string_view>

#include "typed/typed_key.h"

namespace mithril::typed {

/** Receives each extracted key; occurrence order follows the line. */
using KeySink = std::function<void(const TypedKey &)>;

/** headerKey() reads only a line's first kHeaderTokens tokens: a syslog
 *  header starts at one of the first four. */
inline constexpr size_t kHeaderTokens = 6;

/**
 * The line-level pass: when a syslog header (`Aug  9 12:34:56`, three
 * whitespace tokens) starts at one of the first four of @p tokens,
 * stores its timestamp key in @p key and returns true; otherwise
 * leaves @p key as it was.
 */
bool headerKey(std::span<const std::string_view> tokens, TypedKey *key);

/**
 * The token-level pass: runs the boundary-candidate ladder over one
 * whitespace @p token. Stores the first key any candidate yields in
 * @p key and returns true; otherwise leaves @p key as it was. A pure
 * function of the token's bytes.
 */
bool tokenKey(std::string_view token, TypedKey *key);

/**
 * Runs the full registry over a line already split into its
 * whitespace @p tokens (splitTokens() order), invoking @p sink for
 * every extracted key: headerKey(), then tokenKey() for each token in
 * order. extractLine() splits and calls it.
 */
void extractTokens(std::span<const std::string_view> tokens,
                   const KeySink &sink);

/**
 * Runs the full registry over @p line, invoking @p sink for every
 * extracted key. Deterministic in the line bytes alone.
 */
void extractLine(std::string_view line, const KeySink &sink);

/** True when extractLine(@p line) would emit a key matching @p key. */
bool lineContainsKey(std::string_view line, const TypedKey &key);

} // namespace mithril::typed

#endif // MITHRIL_TYPED_EXTRACT_H
