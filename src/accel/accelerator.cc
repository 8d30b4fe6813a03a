#include "accel/accelerator.h"

#include <algorithm>

namespace mithril::accel {

double
AccelResult::usefulRatio() const
{
    if (tokenized_words == 0) {
        return 0.0;
    }
    return static_cast<double>(useful_token_bytes) /
           static_cast<double>(tokenized_words * kDatapathBytes);
}

SimTime
AccelResult::computeTime(double clock_hz) const
{
    return SimTime::cycles(cycles, clock_hz);
}

double
AccelResult::filterThroughput(double clock_hz) const
{
    SimTime t = computeTime(clock_hz);
    return throughputBps(decompressed_bytes, t);
}

Accelerator::Accelerator(AccelConfig config, obs::MetricsRegistry *metrics)
    : config_(config), pipelines_(config.pipelines),
      metrics_(&obs::registryOrOwn(metrics, &owned_metrics_))
{
    MITHRIL_ASSERT(config.pipelines >= 1);
    counters_.batches = &metrics_->counter("accel.batches");
    counters_.pages_in = &metrics_->counter("accel.pages_in");
    counters_.lines_in = &metrics_->counter("accel.lines_in");
    counters_.lines_kept = &metrics_->counter("accel.lines_kept");
    counters_.busy_cycles = &metrics_->counter("accel.busy_cycles");
    counters_.stall_cycles = &metrics_->counter("accel.stall_cycles");
    counters_.decompressed_bytes =
        &metrics_->counter("accel.decompressed_bytes");
    counters_.padded_bytes = &metrics_->counter("accel.padded_bytes");
    counters_.padding_bytes = &metrics_->counter("accel.padding_bytes");
    counters_.tokenized_words = &metrics_->counter("accel.tokenized_words");
    counters_.useful_token_bytes =
        &metrics_->counter("accel.useful_token_bytes");
}

Status
Accelerator::configure(std::span<const query::Query> queries)
{
    FilterProgram program;
    MITHRIL_RETURN_IF_ERROR(compileQueries(queries, &program));
    program_ = std::move(program);
    query_count_ = queries.size();
    programmed_ = true;
    for (FilterPipeline &p : pipelines_) {
        p.program(&program_);
    }
    return Status::ok();
}

Status
Accelerator::configure(const query::Query &q)
{
    return configure(std::span(&q, 1));
}

void
Accelerator::configureProgram(FilterProgram program)
{
    program_ = std::move(program);
    query_count_ = 1;
    // Owner ids in a prebuilt program may address several queries; use
    // the largest owner index to size per-query accounting.
    uint32_t max_owner = 0;
    for (uint32_t s = 0; s < program_.active_sets; ++s) {
        max_owner = std::max(max_owner, program_.set_owner[s]);
    }
    query_count_ = max_owner + 1;
    programmed_ = true;
    for (FilterPipeline &p : pipelines_) {
        p.program(&program_);
    }
}

Status
Accelerator::process(std::span<const compress::ByteView> pages, Mode mode,
                     AccelResult *out)
{
    *out = AccelResult{};
    if (mode == Mode::kFilter && !programmed_) {
        return Status::invalidArgument("accelerator not configured");
    }

    // Page-granular round-robin scatter across pipelines.
    std::vector<std::vector<compress::ByteView>> shards(pipelines_.size());
    for (size_t i = 0; i < pages.size(); ++i) {
        shards[i % pipelines_.size()].push_back(pages[i]);
    }

    out->kept_per_query.assign(std::max<size_t>(query_count_, 1), 0);
    std::vector<uint64_t> pipeline_cycles(pipelines_.size(), 0);
    for (size_t p = 0; p < pipelines_.size(); ++p) {
        PipelineResult r;
        MITHRIL_RETURN_IF_ERROR(pipelines_[p].process(
            shards[p], mode, config_.keep_lines, config_.collect_masks,
            &r));
        out->line_masks.insert(out->line_masks.end(),
                               r.line_masks.begin(),
                               r.line_masks.end());
        out->lines_in += r.lines_in;
        out->lines_kept += r.lines_kept;
        out->cycles = std::max(out->cycles, r.cycles);
        pipeline_cycles[p] = r.cycles;
        out->decompressed_bytes += r.decompressed_bytes;
        out->padded_bytes += r.padded_bytes;
        out->tokenized_words += r.tokenized_words;
        out->useful_token_bytes += r.useful_token_bytes;
        out->pages_with_matches += r.pages_with_matches;
        for (size_t q = 0; q < out->kept_per_query.size() &&
                           q < r.kept_per_query.size(); ++q) {
            out->kept_per_query[q] += r.kept_per_query[q];
        }
        for (KeptLine &line : r.kept) {
            // Undo the round-robin scatter: local page j of pipeline p
            // is batch page j * P + p, so callers can attribute kept
            // lines to the data pages they submitted.
            line.page_index = static_cast<uint32_t>(
                static_cast<size_t>(line.page_index)
                    * pipelines_.size()
                + p);
            out->kept.push_back(std::move(line));
        }
        out->text += r.text;
        out->raw.insert(out->raw.end(), r.raw.begin(), r.raw.end());
    }
    // All pipelines run until the slowest finishes; the others idle.
    for (uint64_t c : pipeline_cycles) {
        out->stall_cycles += out->cycles - c;
    }
    meterBatch(*out, pages.size());
    return Status::ok();
}

void
Accelerator::meterBatch(const AccelResult &r, uint64_t pages_in)
{
    counters_.batches->add();
    counters_.pages_in->add(pages_in);
    counters_.lines_in->add(r.lines_in);
    counters_.lines_kept->add(r.lines_kept);
    counters_.busy_cycles->add(r.cycles);
    counters_.stall_cycles->add(r.stall_cycles);
    counters_.decompressed_bytes->add(r.decompressed_bytes);
    counters_.padded_bytes->add(r.padded_bytes);
    counters_.padding_bytes->add(r.padded_bytes > r.decompressed_bytes
                                     ? r.padded_bytes - r.decompressed_bytes
                                     : 0);
    counters_.tokenized_words->add(r.tokenized_words);
    counters_.useful_token_bytes->add(r.useful_token_bytes);
    if (r.tokenized_words != 0) {
        if (counters_.useful_ratio == nullptr) {
            counters_.useful_ratio = &metrics_->gauge("accel.useful_ratio");
        }
        counters_.useful_ratio->set(r.usefulRatio());
    }
}

} // namespace mithril::accel
