/**
 * @file
 * Tokenizer module emulation (Section 4.1, Figure 4).
 *
 * A hardware tokenizer ingests log text at 2 bytes/cycle and emits a
 * stream of tokens aligned to the 16-byte datapath, each word tagged
 * with last-of-token and last-of-line flags; short tokens are zero
 * padded, which amplifies the tokenized stream relative to the raw text
 * (the Figure 13 "useful bits" statistic).
 *
 * The emulation streams the same tokens functionally, straight into the
 * consumer (the hash filter), and charges cycles structurally:
 *
 *     cycles(line) = max( ceil(line_bytes / 2),   // ingest bound
 *                         words_emitted )         // emit bound
 *
 * It also reports the padding statistics that drive the pipeline-level
 * throughput model and the Figure 13 reproduction.
 */
#ifndef MITHRIL_ACCEL_TOKENIZER_H
#define MITHRIL_ACCEL_TOKENIZER_H

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "accel/datapath.h"
#include "common/bits.h"
#include "common/text.h"

namespace mithril::accel {

/** What one line costs a tokenizer. */
struct LineCharge {
    uint64_t ingest_cycles = 0;  ///< padded line bytes / 2
    uint64_t emit_words = 0;     ///< datapath words emitted (padded)
    uint64_t useful_bytes = 0;   ///< sum of token lengths (no padding)
};

/**
 * Tokenizer emulation; stateless apart from accumulated statistics.
 */
class Tokenizer
{
  public:
    /**
     * Tokenizes @p line (without trailing newline), calling
     * @p fn(token, column) for each token in line order; the line ends
     * when run() returns. Token views point into @p line.
     */
    template <typename Fn>
    LineCharge run(std::string_view line, Fn &&fn);

    /** Cycles this tokenizer has spent (max of ingest/emit per line). */
    uint64_t busyCycles() const { return busy_cycles_; }

    /** Total datapath words emitted. */
    uint64_t wordsEmitted() const { return words_emitted_; }

    /** Total useful (non-padding) bytes across emitted words. */
    uint64_t usefulBytes() const { return useful_bytes_; }

    /** Fraction of useful bits in the tokenized stream (Figure 13). */
    double usefulRatio() const;

    void resetStats();

  private:
    uint64_t busy_cycles_ = 0;
    uint64_t words_emitted_ = 0;
    uint64_t useful_bytes_ = 0;
};

template <typename Fn>
LineCharge
Tokenizer::run(std::string_view line, Fn &&fn)
{
    LineCharge c;
    forEachToken(line, [&](std::string_view tok, uint32_t column) {
        c.emit_words += tokenWords(tok.size());
        c.useful_bytes += tok.size();
        fn(tok, static_cast<uint16_t>(column));
        return true;
    });
    // The decompressor hands the tokenizer line-aligned words, so the
    // ingest stream includes the terminator word's padding.
    c.ingest_cycles = alignUp(line.size() + 1, kDatapathBytes) /
                      kTokenizerBytesPerCycle;
    // A line with no tokens (all delimiters / empty) still consumes its
    // ingest cycles and emits one empty end-of-line marker word.
    if (c.emit_words == 0) {
        c.emit_words = 1;
    }

    busy_cycles_ += std::max(c.ingest_cycles, c.emit_words);
    words_emitted_ += c.emit_words;
    useful_bytes_ += c.useful_bytes;
    return c;
}

} // namespace mithril::accel

#endif // MITHRIL_ACCEL_TOKENIZER_H
