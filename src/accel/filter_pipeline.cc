#include "accel/filter_pipeline.h"

#include <algorithm>
#include <bit>

#include "common/bits.h"

namespace mithril::accel {

namespace {

/**
 * Invokes @p fn(line) for each line of padded (line-aligned-word)
 * decompressor output, as a view into @p padded. A line starts at a
 * word boundary and ends at the first '\n' after its start; the rest
 * of that word is padding. Bytes after the last '\n' end no line:
 * well-formed LZAH pages end every line.
 */
template <typename Fn>
void
forEachPaddedLine(std::span<const uint8_t> padded, Fn &&fn)
{
    std::string_view words = asChars(
        padded.data(), padded.size() - padded.size() % kDatapathBytes);
    size_t start = 0;
    while (start < words.size()) {
        size_t nl = words.find('\n', start);
        if (nl == std::string_view::npos) {
            return;
        }
        fn(words.substr(start, nl - start));
        start = alignUp(nl + 1, kDatapathBytes);
    }
}

} // namespace

FilterPipeline::FilterPipeline()
    : tokenizers_(kTokenizersPerPipeline)
{
    filters_.reserve(kHashFiltersPerPipeline);
    for (size_t i = 0; i < kHashFiltersPerPipeline; ++i) {
        filters_.emplace_back(nullptr);
    }
}

void
FilterPipeline::program(const FilterProgram *program)
{
    program_ = program;
    filters_.clear();
    for (size_t i = 0; i < kHashFiltersPerPipeline; ++i) {
        filters_.emplace_back(program);
    }
}

Status
FilterPipeline::process(std::span<const compress::ByteView> pages,
                        Mode mode, bool keep_lines, bool collect_masks,
                        PipelineResult *out)
{
    *out = PipelineResult{};

    if (mode == Mode::kRaw) {
        // Raw forwarding: the page crosses the datapath one word per
        // cycle with no processing.
        for (const auto &page : pages) {
            out->raw.insert(out->raw.end(), page.begin(), page.end());
            out->cycles += (page.size() + kDatapathBytes - 1) /
                           kDatapathBytes;
        }
        return Status::ok();
    }

    decompressor_.reset();
    for (Tokenizer &t : tokenizers_) {
        t.resetStats();
    }
    for (HashFilter &f : filters_) {
        f.resetStats();
    }

    if (mode == Mode::kDecompress) {
        padded_.clear();
        for (const auto &page : pages) {
            MITHRIL_RETURN_IF_ERROR(
                decompressor_.decodePage(page, &padded_));
        }
        out->padded_bytes = padded_.size();
        out->text.reserve(padded_.size());
        forEachPaddedLine(padded_, [&](std::string_view line) {
            out->text += line;
            out->text += '\n';
            ++out->lines_in;
        });
        out->decompressed_bytes = out->text.size();
        out->cycles = decompressor_.cycles();
        return Status::ok();
    }

    MITHRIL_ASSERT(program_ != nullptr);

    // Scatter lines round-robin over the tokenizers; each group of
    // (kTokenizersPerPipeline / kHashFiltersPerPipeline) tokenizers
    // feeds one hash filter (Section 7.4.1). Pages decode one at a
    // time — LZAH pages are line-self-contained — so acceptance can be
    // attributed per page (pages_with_matches); the round-robin line
    // index stays continuous across pages, matching the hardware
    // scatter unit. Lines are views into the decoded page, so a kept
    // line's text is copied before the next page reuses the buffer.
    constexpr size_t kGroup = kTokenizersPerPipeline /
                              kHashFiltersPerPipeline;
    out->kept_per_query.assign(64, 0);
    size_t line_idx = 0;
    uint32_t page_ord = 0;
    for (const auto &page : pages) {
        padded_.clear();
        MITHRIL_RETURN_IF_ERROR(decompressor_.decodePage(page, &padded_));
        out->padded_bytes += padded_.size();
        uint64_t kept_before = out->lines_kept;
        uint32_t in_page = 0;
        forEachPaddedLine(padded_, [&](std::string_view line) {
            ++out->lines_in;
            out->decompressed_bytes += line.size() + 1;
            size_t t = line_idx++ % kTokenizersPerPipeline;
            uint64_t mask =
                filters_[t / kGroup].evaluate(&tokenizers_[t], line);
            if (collect_masks) {
                out->line_masks.push_back(mask);
            }
            if (mask != 0) {
                ++out->lines_kept;
                for (uint64_t m = mask; m != 0; m &= m - 1) {
                    ++out->kept_per_query[std::countr_zero(m)];
                }
                if (keep_lines) {
                    out->kept.push_back(
                        {std::string(line), mask, page_ord, in_page});
                }
            }
            ++in_page;
        });
        if (out->lines_kept != kept_before) {
            ++out->pages_with_matches;
        }
        ++page_ord;
    }

    uint64_t tok_stage = 0;
    for (const Tokenizer &t : tokenizers_) {
        tok_stage = std::max(tok_stage, t.busyCycles());
        out->tokenized_words += t.wordsEmitted();
        out->useful_token_bytes += t.usefulBytes();
    }
    uint64_t filt_stage = 0;
    for (const HashFilter &f : filters_) {
        filt_stage = std::max(filt_stage, f.busyCycles());
    }
    out->cycles = std::max({decompressor_.cycles(), tok_stage, filt_stage});
    return Status::ok();
}

} // namespace mithril::accel
