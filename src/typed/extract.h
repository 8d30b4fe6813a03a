/**
 * @file
 * The typed-field extractor registry (DESIGN.md §15).
 *
 * Extraction is a pure function of the line bytes: every component that
 * needs typed values — the ingest pipeline feeding the posting lists,
 * the software matcher evaluating typed predicates, the degraded
 * full-scan path, and the test oracles — calls extractLine(), or
 * extractTokens() with the line's token list, and gets the identical
 * key stream. Ad-hoc parsing of line bytes outside
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
 * syslog header spans three tokens).
 */
#ifndef MITHRIL_TYPED_EXTRACT_H
#define MITHRIL_TYPED_EXTRACT_H

#include <functional>
#include <span>
#include <string_view>

#include "typed/typed_key.h"

namespace mithril::typed {

/** Receives each extracted key; occurrence order follows the line. */
using KeySink = std::function<void(const TypedKey &)>;

/**
 * Runs the full registry over a line already split into its
 * whitespace @p tokens (splitTokens() order), invoking @p sink for
 * every extracted key. The ingest pass calls this with the token list
 * of its one tokenizer pass; extractLine() splits and calls it.
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
