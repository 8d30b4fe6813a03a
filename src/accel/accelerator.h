/**
 * @file
 * The near-storage accelerator: four filter pipelines behind the SSD's
 * internal link (Sections 3, 7.2).
 *
 * The Accelerator distributes compressed pages round-robin across its
 * pipelines, aggregates their results, and converts cycle counts into
 * modeled time at the fabric clock. Storage feed limits are applied by
 * the caller (core::MithriLog) via SsdModel, since whether the storage
 * or the accelerator is the bottleneck is exactly the question the
 * paper's Figure 14 answers.
 */
#ifndef MITHRIL_ACCEL_ACCELERATOR_H
#define MITHRIL_ACCEL_ACCELERATOR_H

#include <memory>
#include <span>
#include <vector>

#include "accel/filter_pipeline.h"
#include "accel/query_compiler.h"
#include "common/simtime.h"
#include "obs/metrics.h"

namespace mithril::accel {

/** Accelerator configuration. */
struct AccelConfig {
    size_t pipelines = kDefaultPipelines;
    double clock_hz = kClockHz;
    /** Record every line's query mask (template tagging). Masks are in
     *  corpus order only when pages are fed one per process() call. */
    bool collect_masks = false;
};

/** Aggregated result of one accelerator run. */
struct AccelResult {
    /** Accepted lines in batch page order, and in line order within a
     *  page, whatever the number of pipelines. */
    std::vector<KeptLine> kept;
    uint64_t lines_in = 0;
    uint64_t lines_kept = 0;
    /** Per-original-query matched line counts (batched execution). */
    std::vector<uint64_t> kept_per_query;

    /** Per-line query masks (AccelConfig::collect_masks), pipeline by
     *  pipeline. */
    std::vector<uint64_t> line_masks;

    uint64_t cycles = 0;              ///< max over pipelines
    uint64_t decompressed_bytes = 0;  ///< unpadded text incl. newlines
    uint64_t padded_bytes = 0;
    uint64_t tokenized_words = 0;
    uint64_t useful_token_bytes = 0;
    /** Pages with >= 1 accepted line (kFilter mode). */
    uint64_t pages_with_matches = 0;
    /** Idle cycles across pipelines while the slowest one finished
     *  (page/line imbalance — the stall source Section 7.3 names). */
    uint64_t stall_cycles = 0;

    /** Decompressed text (kDecompress mode), pipeline by pipeline. */
    std::string text;
    /** Raw page bytes (kRaw mode), pipeline by pipeline. */
    std::vector<uint8_t> raw;

    /** Fraction of useful bits in the tokenized datapath (Figure 13). */
    double usefulRatio() const;

    /** Modeled compute time at @p clock_hz. */
    SimTime computeTime(double clock_hz = kClockHz) const;

    /** Effective filter throughput in bytes/s of decompressed text. */
    double filterThroughput(double clock_hz = kClockHz) const;
};

/** The emulated near-storage accelerator. */
class Accelerator
{
  public:
    /**
     * Counts every batch into @p metrics (or, when null, a registry of
     * its own) under `accel.*`: busy/stall cycles, padding
     * amplification, useful-bit bytes, lines in/kept, and the
     * `accel.useful_ratio` gauge.
     */
    explicit Accelerator(AccelConfig config = AccelConfig{},
                         obs::MetricsRegistry *metrics = nullptr);

    const AccelConfig &config() const { return config_; }

    /**
     * Programs all pipelines with a batch of queries.
     * On failure the previous program is kept.
     */
    [[nodiscard]] Status configure(std::span<const query::Query> queries);

    /** Programs a single query. */
    [[nodiscard]] Status configure(const query::Query &q);

    /** Programs a pre-compiled image (template queries build these). */
    void configureProgram(FilterProgram program);

    /** Number of queries in the current program's batch. */
    size_t queryCount() const { return query_count_; }

    /**
     * Runs @p pages (LZAH-compressed) through the pipelines in
     * @p mode. Pages are distributed round-robin, one page per
     * pipeline per turn and in batch order, as the device's scatter
     * unit does, so kept lines come back in batch page order.
     */
    [[nodiscard]] Status process(std::span<const compress::ByteView> pages,
                                 Mode mode, AccelResult *out);

  private:
    void meterBatch(const AccelResult &r, uint64_t pages_in);

    AccelConfig config_;
    FilterProgram program_;
    bool programmed_ = false;
    size_t query_count_ = 0;
    std::vector<FilterPipeline> pipelines_;
    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    obs::MetricsRegistry *metrics_ = nullptr;

    /** `accel.*` handles, resolved once at construction. */
    struct Counters {
        obs::Counter *batches = nullptr;
        obs::Counter *pages_in = nullptr;
        obs::Counter *lines_in = nullptr;
        obs::Counter *lines_kept = nullptr;
        obs::Counter *busy_cycles = nullptr;
        obs::Counter *stall_cycles = nullptr;
        obs::Counter *decompressed_bytes = nullptr;
        obs::Counter *padded_bytes = nullptr;
        obs::Counter *padding_bytes = nullptr;
        obs::Counter *tokenized_words = nullptr;
        obs::Counter *useful_token_bytes = nullptr;
        /** Resolved by the first batch that tokenizes, so a run that
         *  never filters publishes no ratio. */
        obs::Gauge *useful_ratio = nullptr;
    } counters_;
};

} // namespace mithril::accel

#endif // MITHRIL_ACCEL_ACCELERATOR_H
