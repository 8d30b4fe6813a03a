/**
 * @file
 * Text utilities shared by the software and hardware tokenization paths.
 *
 * The paper defines a *token* (or term) as a maximal run of characters
 * separated by delimiters. The delimiter set (space, tab, carriage
 * return) is shared by every component that must agree on token
 * boundaries: the accelerator's tokenizer array, the software reference
 * matcher, the inverted index's ingest path, and the baselines.
 * Divergence here would silently break the executor-equivalence
 * invariant, so there is exactly one definition.
 */
#ifndef MITHRIL_COMMON_TEXT_H
#define MITHRIL_COMMON_TEXT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mithril {

/** True when @p c separates tokens: space, tab or carriage return. */
inline bool
isDelimiter(char c)
{
    return c == ' ' || c == '\t' || c == '\r';
}

/**
 * Splits @p line into tokens (maximal delimiter-free runs).
 *
 * Views point into @p line; the caller keeps it alive. Empty tokens are
 * never produced.
 */
std::vector<std::string_view> splitTokens(std::string_view line);

/**
 * Invokes @p fn(token, column) for each token of @p line without
 * allocating. @p fn returns false to stop early.
 */
template <typename Fn>
inline void
forEachToken(std::string_view line, Fn &&fn)
{
    size_t i = 0;
    uint32_t column = 0;
    while (i < line.size()) {
        while (i < line.size() && isDelimiter(line[i])) {
            ++i;
        }
        size_t start = i;
        while (i < line.size() && !isDelimiter(line[i])) {
            ++i;
        }
        if (i > start) {
            if (!fn(line.substr(start, i - start), column)) {
                return;
            }
            ++column;
        }
    }
}

/**
 * Splits a text buffer into lines at '\n'; the terminator is excluded.
 * A trailing line without '\n' is included.
 */
std::vector<std::string_view> splitLines(std::string_view text);

/**
 * Invokes @p fn(line) for each '\n'-terminated line without allocating.
 */
template <typename Fn>
inline void
forEachLine(std::string_view text, Fn &&fn)
{
    size_t start = 0;
    while (start < text.size()) {
        size_t nl = text.find('\n', start);
        if (nl == std::string_view::npos) {
            fn(text.substr(start));
            return;
        }
        fn(text.substr(start, nl - start));
        start = nl + 1;
    }
}

/** Formats a byte count as "12.3 GB" / "4.5 MB" / "678 B". */
std::string humanBytes(double bytes);

/** Formats bytes/second as "11.55 GB/s" (decimal GB as in the paper). */
std::string humanBandwidth(double bytes_per_second);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace mithril

#endif // MITHRIL_COMMON_TEXT_H
