/**
 * @file
 * One token filter pipeline (Section 4, Figure 3): an LZAH decompressor
 * feeding eight tokenizers round-robin, whose output is gathered in
 * order by two hash filter modules (one per group of four tokenizers).
 *
 * The emulation executes the same dataflow functionally and charges
 * cycles per stage; the pipeline's cycle count for a batch is the
 * maximum over its stages, reflecting that the stages stream
 * concurrently and the slowest one sets the pace:
 *
 *   - decompressor: one emitted word per cycle (deterministic);
 *   - tokenizer stage: max over the eight tokenizers of their busy
 *     cycles (captures the line-length imbalance the paper names as a
 *     stall source);
 *   - filter stage: max over the two hash filters of words consumed.
 *
 * On the host each page is one pass: it decodes into a buffer the
 * pipeline keeps, each line is a view into it, and each line is
 * tokenized once, straight into its hash filter.
 */
#ifndef MITHRIL_ACCEL_FILTER_PIPELINE_H
#define MITHRIL_ACCEL_FILTER_PIPELINE_H

#include <span>
#include <string>
#include <vector>

#include "accel/hash_filter.h"
#include "accel/tokenizer.h"
#include "common/status.h"
#include "compress/lzah.h"

namespace mithril::accel {

/** What the pipeline does to each page (Section 3's three modes). */
enum class Mode {
    kRaw,         ///< forward the page bytes unprocessed
    kDecompress,  ///< decompress, forward the text
    kFilter,      ///< decompress, tokenize, filter
};

/** A line the filter kept, with the set of queries that accepted it. */
struct KeptLine {
    std::string text;
    uint64_t query_mask;
    /** Ordinal of the source page within this pipeline's batch;
     *  Accelerator::process rewrites it to the ordinal within the full
     *  submitted batch, so callers can attribute a kept line to its
     *  data page (typed-query line numbering, DESIGN.md §15). */
    uint32_t page_index = 0;
    /** The line's index within its source page. */
    uint32_t line_in_page = 0;
};

/** Per-batch output of one pipeline. */
struct PipelineResult {
    std::vector<KeptLine> kept;
    uint64_t lines_in = 0;
    uint64_t lines_kept = 0;
    /** Accepted-line count per original query (by set_owner id). */
    std::vector<uint64_t> kept_per_query;
    /** Per-line query masks in processing order (collect_masks mode;
     *  zero entries are lines no query accepted). */
    std::vector<uint64_t> line_masks;
    uint64_t cycles = 0;              ///< max over stages
    uint64_t decompressed_bytes = 0;  ///< unpadded text incl. newlines
    uint64_t padded_bytes = 0;        ///< datapath words x 16
    uint64_t tokenized_words = 0;
    uint64_t useful_token_bytes = 0;
    /** Pages with >= 1 accepted line (kFilter mode). The complement
     *  over a query's candidate set measures index false positives. */
    uint64_t pages_with_matches = 0;
    /** Raw page bytes forwarded in kRaw mode. */
    std::vector<uint8_t> raw;
    /** Decompressed text in kDecompress mode. */
    std::string text;
};

/** One filter pipeline instance. */
class FilterPipeline
{
  public:
    FilterPipeline();

    /** Points the hash filters at a compiled program (kFilter mode). */
    void program(const FilterProgram *program);

    /**
     * Processes a batch of LZAH-compressed pages.
     *
     * @param keep_lines when false, matched lines are counted but their
     *        text is not retained (large-scan benches).
     * @param collect_masks when true, every line's query mask is
     *        recorded in PipelineResult::line_masks (template tagging).
     */
    Status process(std::span<const compress::ByteView> pages, Mode mode,
                   bool keep_lines, bool collect_masks,
                   PipelineResult *out);

  private:
    compress::LzahDecompressorModel decompressor_;
    /** Padded decompressor output, reused from page to page. */
    compress::Bytes padded_;
    std::vector<Tokenizer> tokenizers_;
    std::vector<HashFilter> filters_;
    const FilterProgram *program_ = nullptr;
};

} // namespace mithril::accel

#endif // MITHRIL_ACCEL_FILTER_PIPELINE_H
