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
    /** Ordinal of the source page within the submitted batch, so
     *  callers can attribute a kept line to its data page and number it
     *  (core::QueryResult::line_numbers). */
    uint32_t page_index = 0;
    /** The line's index within its source page. */
    uint32_t line_in_page = 0;
};

/** Per-batch output of one pipeline; its kept lines go to the caller's
 *  vector (FilterPipeline::feed). */
struct PipelineResult {
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
     * Starts a batch in @p mode: resets the stage models and @p out.
     * With @p collect_masks, every line's query mask is recorded in
     * PipelineResult::line_masks (template tagging).
     */
    void begin(Mode mode, bool collect_masks, PipelineResult *out);

    /**
     * Runs the batch's next LZAH-compressed page. The stage models
     * carry over from page to page: a batch's cycles are those of one
     * continuous pass over its pages. In kFilter mode the page's kept
     * lines are appended to @p kept, tagged with @p page_index.
     */
    Status feed(compress::ByteView page, uint32_t page_index,
                PipelineResult *out, std::vector<KeptLine> *kept);

    /** Ends the batch: fills the cycles (the max over the stages) and,
     *  in kDecompress mode, the text. */
    void finish(PipelineResult *out);

  private:
    compress::LzahDecompressorModel decompressor_;
    /** Padded decompressor output, reused from page to page. */
    compress::Bytes padded_;
    std::vector<Tokenizer> tokenizers_;
    std::vector<HashFilter> filters_;
    const FilterProgram *program_ = nullptr;
    Mode mode_ = Mode::kFilter;
    bool collect_masks_ = false;
    /** Round-robin tokenizer index, continuous across a batch. */
    size_t line_idx_ = 0;
};

} // namespace mithril::accel

#endif // MITHRIL_ACCEL_FILTER_PIPELINE_H
