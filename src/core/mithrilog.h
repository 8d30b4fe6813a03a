/**
 * @file
 * MithriLog — the end-to-end log analytics system (Section 3).
 *
 * Composition: a near-storage SSD model holding LZAH-compressed data
 * pages and index pages, the in-storage inverted index, and the
 * emulated four-pipeline token filter accelerator behind the device's
 * internal link. The public API covers the paper's full flow:
 *
 *   ingest  — lines are packed into independently-decompressible LZAH
 *             pages; each sealed page registers its distinct tokens
 *             with the inverted index;
 *   query   — host software compiles the query into a cuckoo program,
 *             consults the index for candidate pages, streams those
 *             pages through the accelerator over the internal link, and
 *             receives only matching lines over PCIe. Queries the
 *             cuckoo compiler cannot encode fall back to a software
 *             scan (Section 4.2.1).
 *
 * Timing discipline: MithriLog-side numbers are *modeled* (SimTime at
 * the paper's platform parameters); QueryResult::breakdown separates
 * index, storage, and compute time so benches can report the same
 * breakdowns the paper discusses.
 *
 * Thread safety: none — a MithriLog is single-threaded by design and
 * the thread-ownership lint keeps it that way. Concurrent use goes
 * through svc::LogService, which owns one store per shard and
 * serializes all access to each (src/svc/log_service.h).
 */
#ifndef MITHRIL_CORE_MITHRILOG_H
#define MITHRIL_CORE_MITHRILOG_H

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "accel/accelerator.h"
#include "common/simtime.h"
#include "compress/lzah.h"
#include "core/page_tokens.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query.h"
#include "storage/journal.h"
#include "storage/ssd_model.h"
#include "typed/typed_index.h"

namespace mithril::core {

/** Top-level system configuration. */
struct MithriLogConfig {
    storage::SsdConfig ssd{};
    index::IndexConfig index{};
    accel::AccelConfig accel{};
    /**
     * Maintain and consult the typed-field pseudo-indexes (DESIGN.md
     * §15): IP/MAC/hex-id/timestamp keys extracted at ingest into
     * per-type posting lists. False disables both extraction and
     * typed-index pruning; typed queries then run as full scans over
     * the data pages (the bench_typed_query baseline configuration).
     */
    bool use_typed_index = true;
    /**
     * Background checkpoint policy: run checkpoint() after every N
     * sealed data pages (0 disables). The trigger sits just past the
     * commit barrier, so the page that tripped it is already
     * acknowledged whatever the checkpoint does; a checkpoint failure
     * is a device death, never a lost ack.
     */
    uint64_t checkpoint_every_pages = 0;
    /**
     * External metric registry / tracer to report into (benches and
     * services aggregating several systems share one). When null the
     * system owns private instances, reachable via metrics()/tracer().
     */
    obs::MetricsRegistry *metrics = nullptr;
    obs::Tracer *tracer = nullptr;
};

/**
 * Structured attribution of one query run — the Table 7 split
 * (index vs. storage vs. compute) plus the page-pruning account, in
 * machine-readable form. SimTime fields are deterministic for a given
 * image + query; wall_seconds is host-measured and is not. Each of
 * these values lives here only; QueryResult holds the matches.
 */
struct QueryBreakdown {
    SimTime index_time;    ///< modeled index traversal
    SimTime storage_time;  ///< modeled data-page streaming
    SimTime compute_time;  ///< modeled accelerator cycles
    SimTime total_time;    ///< index + max(storage, compute) + latency

    uint64_t candidate_pages = 0;   ///< pages the index nominated
    uint64_t pages_scanned = 0;
    uint64_t pages_total = 0;
    /** Pages that produced at least one accepted line. */
    uint64_t pages_with_matches = 0;
    /** Index-nominated pages with no match (probabilistic-index false
     *  positives plus legitimately empty candidates). Zero when the
     *  index was bypassed. */
    uint64_t false_positive_pages = 0;

    /** The cuckoo compiler could not encode the batch: the software
     *  path (Section 4.2.1) scanned every page on the host. */
    bool used_fallback = false;
    /** The planner skipped index traversal (poor predicted pruning). */
    bool planned_full_scan = false;
    /** Index traversal hit unrecoverable damage; the query fell back
     *  to an accelerator full scan instead of trusting an incomplete
     *  candidate set. */
    bool degraded_index_scan = false;
    /** The accelerator path failed on faulted data; the query fell
     *  back to the host software scan over the staged pages. */
    bool degraded_software_scan = false;
    /** Pages unreadable (or CRC-rejected) after the device retry
     *  budget — dropped from the scan, counted, never silently
     *  misparsed. */
    uint64_t pages_dropped = 0;
    /** Device read retries charged during this query (fault plans). */
    uint64_t read_retries = 0;
    /** Typed predicates evaluated in this run (ip:/id:/mac:/time:). */
    uint64_t typed_predicates = 0;
    /** Typed posting pages traversed in-storage for this run. */
    uint64_t typed_index_pages = 0;
    /** Bytes of typed posting pages read — the index side of the
     *  typed-tier byte attribution (vs. bytes_scanned of data). */
    uint64_t typed_index_bytes = 0;
    /** Typed posting-list damage was unrecoverable; the query fell
     *  back to a typed full scan over every data page rather than
     *  trusting an incomplete typed candidate set. */
    bool degraded_typed_scan = false;
    /** Host-side measured time for the whole run (both domains kept,
     *  per the repo's measured-vs-modeled discipline). */
    double wall_seconds = 0.0;

    /** One-line JSON object (keys: phase times in ps, pages, flags). */
    std::string toJson() const;
};

/**
 * End-to-end result of one query (or batch). Every path — accelerator,
 * typed tier, compile fallback, degraded scans — returns the same
 * shape: the matched lines in ingest order, each with its global
 * (store-local) ingest line number, so a result compares element by
 * element against a host oracle over the corpus.
 */
struct QueryResult {
    uint64_t matched_lines = 0;
    /** Matched lines, ascending by line number. */
    std::vector<accel::KeptLine> lines;
    /** Global ingest line numbers, parallel to `lines`. */
    std::vector<uint64_t> line_numbers;
    std::vector<uint64_t> matched_per_query;  ///< batched execution

    uint64_t bytes_scanned = 0;   ///< decompressed text streamed
    double useful_ratio = 0.0;    ///< tokenized-datapath utilization

    /** Phase times, page accounts and path flags. */
    QueryBreakdown breakdown;
    /** breakdown.planned_full_scan, copied once at the end of the run
     *  for perfbench/wl_search.cc, which reads it here. */
    bool planned_full_scan = false;

    /** Effective throughput against the original dataset size. */
    double effectiveThroughput(uint64_t dataset_bytes) const
    {
        return throughputBps(dataset_bytes, breakdown.total_time);
    }
};

/** The MithriLog system. */
class MithriLog
{
  public:
    explicit MithriLog(MithriLogConfig config = MithriLogConfig{});

    // ---- ingest --------------------------------------------------------

    /**
     * Ingests one line (without trailing newline).
     *
     * Durability contract: a line is *acknowledged* once the page
     * holding it seals — data page programmed, commit record journaled,
     * durability barrier passed (see durableLineCount()). Lines still
     * in the open page are durable only after flush()/seal().
     * @retval kInvalidArgument the store was sealed by seal().
     * @retval kUnavailable the device lost power (a fault-plan power
     *         cut); the caller's only move is saveDeviceImage() +
     *         recover() on a fresh system.
     */
    [[nodiscard]] Status ingestLine(std::string_view line);

    /** Ingests newline-separated text. */
    [[nodiscard]] Status ingestText(std::string_view text);

    /**
     * Seals the open page and flushes the index — a repeatable
     * checkpoint (ingest may continue afterwards). On return every
     * ingested line is journaled and crash-durable.
     */
    [[nodiscard]] Status flush();

    /**
     * Terminal durability barrier: flush(), then append the journal's
     * seal record and publish the sealed superblock. Idempotent; after
     * it returns ok the store is immutable (ingestLine fails with
     * kInvalidArgument) and a crash at any later point recovers the
     * complete dataset.
     */
    [[nodiscard]] Status seal();

    /**
     * Storage-lifecycle maintenance point (DESIGN.md §14): flushes
     * pending lines, truncates the journal chain into a snapshot
     * (Journal::checkpoint — bounded mount-time replay), then runs the
     * segment cleaner (cleanSegments — crash-safe space reclamation).
     * Committed data and the acknowledged prefix are exactly preserved;
     * a crash anywhere inside replays either the pre- or the
     * post-checkpoint state. No-op ok on a store that never committed.
     * Allowed on a sealed store (the seal survives in the superblock
     * flag — maintenance on an archived image, not mutation).
     * @retval kFailedPrecondition the store is a read-only recovered
     *         mount; reopen() first.
     * @retval kUnavailable the device died mid-protocol (power cut);
     *         recover() the image on a fresh system.
     */
    [[nodiscard]] Status checkpoint();

    /** checkpoint() calls completed over this journal cursor. */
    uint64_t checkpoints() const { return journal_.checkpoints(); }

    /** Records in the live journal chain since the last checkpoint
     *  (replay tail a crash right now would walk). */
    uint64_t journalChainRecords() const
    {
        return journal_.chainRecords();
    }

    /** Records summarized by the live snapshot (0 when the chain has
     *  never been truncated). */
    uint64_t journalSnapshotRecords() const
    {
        return journal_.snapshotRecords();
    }

    // ---- dataset statistics -------------------------------------------

    uint64_t lineCount() const { return lines_; }
    uint64_t rawBytes() const { return raw_bytes_; }
    uint64_t dataPageCount() const { return data_pages_.size(); }
    uint64_t truncatedLines() const { return truncated_lines_; }

    /** Lines covered by a journaled commit + durability barrier: the
     *  prefix of the ingest stream guaranteed to survive a crash. */
    uint64_t durableLineCount() const { return committed_lines_; }

    /** True after seal(), or after recover() until reopen() clears it
     *  (a freshly recovered store is read-only by default). */
    bool sealed() const { return sealed_; }

    /** True when this store was produced by recover() and has not been
     *  reopen()ed: it is sealed *because* the journal cursor died with
     *  the crashed device, not because the caller chose to seal.
     *  Service layers use this to answer ingest against a recovered
     *  shard with kFailedPrecondition instead of a generic
     *  sealed-store error, and to offer reopen() instead. */
    bool recovered() const { return recovered_; }

    /** Data pages in ingest order (tests and ablations; the journal
     *  owns the device's leading pages, so "page 0" is not data). Ids
     *  ascend: pages are allocated in ingest order, a mount keeps their
     *  ids, and ids are never reused (indexPage checks it). */
    const std::vector<storage::PageId> &dataPages() const
    {
        return data_pages_;
    }

    /** Lines [first_line, first_line + line_count) of one data page. */
    struct PageSpan {
        uint64_t first_line;
        uint64_t line_count;
    };

    /** The page directory: entry i spans dataPages()[i], so first
     *  lines ascend with page ids. Typed postings map to pages and
     *  matches to line numbers through it. */
    const std::vector<PageSpan> &pageDirectory() const
    {
        return page_dir_;
    }

    /** Data pages holding @p lines (ascending input; ascending unique
     *  output), via the page directory. */
    std::vector<storage::PageId>
    pagesForLines(std::span<const uint64_t> lines) const;

    /** raw bytes / compressed data page bytes. */
    double compressionRatio() const;

    // ---- query ---------------------------------------------------------

    /** Runs one query end to end. */
    [[nodiscard]] Status run(const query::Query &q, QueryResult *out);

    /** Parses and runs a query text. */
    [[nodiscard]] Status run(std::string_view query_text,
                             QueryResult *out);

    /**
     * Runs a batch concurrently on one accelerator pass (Section 4).
     *
     * Batches carrying typed predicates (ip:/id:/mac:/time:) take the
     * incident-response tier (DESIGN.md §15): typed posting lists are
     * intersected in-storage — alongside the keyword index — to prune
     * the candidate pages, which then cross PCIe to the host matcher.
     * The filter pipelines hash whole tokens and cannot compare CIDR
     * or time ranges, so the typed tier's offload is the pruning; the
     * match set is exact (host-evaluated) and byte-identical to a full
     * scan, with line numbers reported in QueryResult::line_numbers.
     */
    [[nodiscard]] Status runBatch(std::span<const query::Query> queries,
                                  QueryResult *out);

    /**
     * Runs a batch as a full scan, bypassing the index — the Section
     * 7.4.2 configuration isolating filter-engine performance. A batch
     * carrying typed predicates is evaluated on the host over every
     * data page, the exact full-scan analogue of runBatch's typed tier.
     */
    [[nodiscard]] Status runFullScan(
        std::span<const query::Query> queries, QueryResult *out);

    // ---- persistence ----------------------------------------------------
    //
    // One image format: the raw device image. Save with flush() or
    // seal() followed by saveDeviceImage(); open with recover(), then
    // reopen() to keep ingesting.

    /**
     * Dumps the raw NAND contents (every page, no host-side state) to
     * @p path. Works on a device that lost power too — it reads the
     * store directly, exactly what pulling the flash out of a dead
     * device would yield. Only journaled commits survive the mount, so
     * call flush() or seal() first to include the open page. Input for
     * recover().
     */
    [[nodiscard]] Status saveDeviceImage(const std::string &path) const;

    /**
     * Mount-time crash recovery. Loads a raw device image (from
     * saveDeviceImage) into this freshly constructed system, replays
     * the journal, verifies every committed data page against its
     * journaled CRC, discards torn/uncommitted pages (always a clean
     * *prefix* cut: the recovered store is exactly the first
     * durableLineCount() lines of the original ingest stream), and
     * rebuilds the index from the surviving pages. The recovered store
     * is sealed until reopen() makes it writable again. Every step is
     * counted (`recovery.*` metrics) and spanned (`recover.*`); modeled
     * device time accrues into SimTime. A device with no valid
     * superblock (crash before the first commit completed) recovers to
     * a valid empty store.
     */
    [[nodiscard]] Status recover(const std::string &path);

    /**
     * Makes a recovered store writable again: publishes the verified
     * survivors as a snapshot under the next journal generation
     * (Journal::reopen) and clears the recovery seal, so ingestLine()
     * resumes through the normal durable commit protocol and the
     * acknowledged prefix keeps growing past the crash. Only valid on
     * a store produced by recover().
     * @retval kFailedPrecondition the store is not recovered, or the
     *         replayed journal carried a seal — seal() is terminal by
     *         design and survives any number of crash/recover cycles.
     * @retval kUnavailable the device died (reopen writes are faultable:
     *         a power cut *during* reopen replays the pre-reopen state,
     *         or the post-reopen one once its superblock landed).
     */
    [[nodiscard]] Status reopen();

    /** Generation of the superblock the last recover() replayed
     *  (0 when no valid superblock was found). */
    uint64_t recoveredGeneration() const { return reopen_rr_.generation; }

    /** Live journal incarnation (0 before the first commit/reopen). */
    uint64_t journalGeneration() const { return journal_.generation(); }

    /** Of the records the last recover() replayed: how many came from
     *  the checkpoint snapshot vs. the live chain tail. Their sum is
     *  the `recovery.records_replayed` counter; the chain share is the
     *  part checkpointing bounds. */
    uint64_t recoveredSnapshotRecords() const
    {
        return reopen_rr_.snapshot_records;
    }
    uint64_t recoveredChainRecords() const
    {
        return reopen_rr_.records - reopen_rr_.snapshot_records;
    }

    // ---- component access (benches, tests, ablations) ------------------

    storage::SsdModel &ssd() { return ssd_; }
    index::InvertedIndex &index() { return *index_; }
    typed::TypedIndex &typedIndex() { return *typed_index_; }
    accel::Accelerator &accelerator() { return accel_; }
    const MithriLogConfig &config() const { return config_; }

    // ---- observability --------------------------------------------------

    /** The unified metric namespace (`ssd.*`, `index.*`, `accel.*`,
     *  `lzah.*`, `core.*`); config-supplied or system-owned. */
    obs::MetricsRegistry &metrics() { return *metrics_; }
    const obs::MetricsRegistry &metrics() const { return *metrics_; }

    /** Span buffer covering the query datapath in both time domains. */
    obs::Tracer &tracer() { return *tracer_; }
    const obs::Tracer &tracer() const { return *tracer_; }

  private:
    /**
     * The query pipeline behind runBatch() and runFullScan(): plan the
     * pages to read (index pruning unless @p use_index is false or the
     * planner prefers a scan), stage and evaluate them — on the
     * accelerator (execute), or on the host (hostScan) for batches
     * carrying typed predicates — then finish the breakdown, the query
     * span, and the per-query counters.
     */
    Status runPipeline(std::span<const query::Query> queries,
                       bool use_index, QueryResult *out);

    /** Output of prunePages(). */
    struct Candidates {
        std::vector<storage::PageId> pages;  ///< ascending, deduplicated
        /** A set has no positive term to prune on (the index cannot
         *  prune on absence): every data page is a candidate. */
        bool all_pages = false;
        /** Posting or index damage: the set may be incomplete. */
        bool integrity_lost = false;
    };

    /**
     * The one pruning function. Per intersection set, intersects the
     * set's typed posting lists (line sets mapped to data pages), then
     * the index chains of its positive keyword terms, in term order;
     * the batch's candidates are the union over its sets. Sets the
     * breakdown's index_time, with independent chains overlapped
     * across channels, and its typed index traffic.
     */
    Candidates prunePages(std::span<const query::Query> queries,
                          QueryResult *out);

    /**
     * Reads @p pages for scanning, verifying each staged page's LZAH
     * CRC. With a fault plan attached the reads go page-at-a-time
     * (faultable, retried); CRC rejections trigger re-reads up to the
     * plan's retry budget. Pages still unreadable are dropped and
     * counted (the breakdown's pages_dropped), never passed on
     * corrupt. @p storage owns faulted copies; @p views index into it
     * (or zero-copy into the store on the unfaulted path).
     * @p staged_ids receives the page id of each surviving view in
     * order, so kept lines can be numbered per source page.
     */
    Status stagePages(std::span<const storage::PageId> pages,
                      storage::Link link,
                      std::vector<compress::ByteView> *views,
                      std::vector<compress::Bytes> *storage,
                      QueryResult *out,
                      std::vector<storage::PageId> *staged_ids);

    /** Streams @p pages through the accelerator and fills @p out,
     *  numbering the kept lines through the page directory. Falls back
     *  to hostScan over every data page when the cuckoo compiler
     *  cannot encode the batch, and degrades to hostEvaluate over the
     *  staged pages when the filter pipeline faults. */
    Status execute(std::span<const storage::PageId> pages,
                   std::span<const query::Query> queries,
                   QueryResult *out);

    /** Stages @p pages to the host over the external link, sets the
     *  breakdown's storage_time, and evaluates them with hostEvaluate. */
    Status hostScan(std::span<const storage::PageId> pages,
                    std::span<const query::Query> queries,
                    QueryResult *out);

    /**
     * The one host evaluator: decodes the staged pages one at a time
     * and matches every line against the batch exactly (keyword terms
     * and typed predicates), filling match counts, kept lines and
     * global line numbers, in ingest order. @p ids are the staged
     * pages' ids, parallel to @p views and ascending. Pages that fail
     * to decode are dropped and counted.
     */
    Status hostEvaluate(std::span<const compress::ByteView> views,
                        std::span<const storage::PageId> ids,
                        std::span<const query::Query> queries,
                        QueryResult *out);

    /** True when the entry-counter estimate says index traversal
     *  cannot prune enough to pay for itself. */
    bool plannerPrefersScan(std::span<const query::Query> queries) const;

    /**
     * The per-line half of the one indexing path that ingestLine() and
     * recover()'s rebuild share. One tokenizer pass adds each token of
     * @p line to the open page's distinct-token set and, with the typed
     * index on, hands the line's token list to typed extraction as
     * line @p line_no.
     */
    void indexLine(std::string_view line, uint64_t line_no);

    /**
     * The per-page half: registers data page @p page, which holds lines
     * [@p first_line, @p end_line), with the keyword index (its
     * distinct tokens in byte order, stamped @p end_line), empties the
     * token set for the next page, and appends the page to dataPages()
     * and the page directory. Pages arrive in ingest order with
     * ascending ids, and indexPage checks it.
     */
    void indexPage(storage::PageId page, uint64_t first_line,
                   uint64_t end_line);

    /** First line of staged data page @p page, via the directory. */
    uint64_t firstLineOf(storage::PageId page) const;

    /** Durable page commit: program the data page, journal the commit
     *  record, pass the barrier (ack point), then index the page. Any
     *  failure marks the system dead_ (in-memory state no longer
     *  matches the media). */
    Status sealPendingPage();

    /** checkpoint() minus the flush: journal truncation + segment
     *  cleaning. The auto-policy calls this from inside the commit path
     *  (where flush() would recurse); any failure marks dead_. */
    Status runCheckpoint();

    /**
     * Segment cleaner (DESIGN.md §14): migrates live pages out of cold
     * segments (occupancy <= half) into free slots in strictly earlier
     * segments, so drained segments return to the allocator and the
     * physical footprint shrinks. Per page: copy (faultable program),
     * journal a migrate record, barrier, read back and CRC-verify, only
     * then retarget the translation map. Degradation ladder: one
     * rewrite retry per page, then the pass is abandoned (ok — the next
     * checkpoint re-schedules); only a dead device surfaces an error.
     * Never touches acknowledged data: the map points at the old slot
     * until the copy verified.
     */
    Status cleanSegments();

    /** Publishes `storage.segments_live` / `storage.segments_freed`. */
    void updateStorageGauges();

    MithriLogConfig config_;
    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    std::unique_ptr<obs::Tracer> owned_tracer_;
    obs::MetricsRegistry *metrics_ = nullptr;
    obs::Tracer *tracer_ = nullptr;

    /** Hot-path counters, resolved once (registry refs are stable). */
    struct CoreCounters {
        obs::Counter *lines_ingested = nullptr;
        obs::Counter *lines_truncated = nullptr;
        obs::Counter *pages_sealed = nullptr;
        obs::Counter *lzah_bytes_in = nullptr;
        obs::Counter *lzah_bytes_out = nullptr;
        obs::Counter *queries = nullptr;
        obs::Counter *query_fallbacks = nullptr;
        obs::Counter *planner_full_scans = nullptr;
        obs::Counter *candidate_pages = nullptr;
        obs::Counter *false_positive_pages = nullptr;
        obs::Counter *degraded_index_scans = nullptr;
        obs::Counter *degraded_software_scans = nullptr;
        obs::Counter *typed_queries = nullptr;
        obs::Counter *degraded_typed_scans = nullptr;
        obs::Counter *crc_failed_pages = nullptr;
        obs::Counter *pages_dropped = nullptr;
        obs::Counter *ssd_read_retries = nullptr;
        obs::Gauge *lzah_ratio = nullptr;
    } counters_;
    /** Per-stage latency histograms (obs/histogram.h), dual-domain
     *  where the stage has a modeled cost. */
    struct CoreStages {
        obs::StageLatency lzah_encode;     ///< per-line encode (wall)
        obs::StageLatency journal_commit;  ///< page commit + barrier
        obs::StageLatency query_compile;   ///< cuckoo compile (wall)
    } stages_;
    storage::SsdModel ssd_;
    storage::Journal journal_;
    std::unique_ptr<index::InvertedIndex> index_;
    /** Typed-field pseudo-indexes (DESIGN.md §15); extraction is
     *  skipped when use_typed_index is off. */
    std::unique_ptr<typed::TypedIndex> typed_index_;
    accel::Accelerator accel_;

    compress::LzahPageEncoder encoder_;
    /** Distinct tokens of the open page (ingest) or of the page being
     *  rebuilt (recover). */
    PageTokenSet page_tokens_;
    /** The current line's tokens, reused from line to line. */
    std::vector<std::string_view> line_tokens_;
    uint64_t lines_ = 0;
    uint64_t raw_bytes_ = 0;
    uint64_t truncated_lines_ = 0;
    /** Cumulative lines / raw bytes covered by the last durable
     *  commit (the acknowledged prefix). */
    uint64_t committed_lines_ = 0;
    uint64_t committed_raw_ = 0;
    /** seal() ran: the store is immutable. */
    bool sealed_ = false;
    /** recover() produced this store and reopen() has not run yet
     *  (sealed_ is then implied). */
    bool recovered_ = false;
    /** The replayed journal carried a seal: the *original* store was
     *  seal()ed, so reopen() must refuse — seal is terminal. */
    bool journal_sealed_ = false;
    /** Replay summary of the last recover(), kept for reopen(). */
    storage::Journal::ReplayResult reopen_rr_;
    /** A commit failed mid-protocol (power cut or device error): the
     *  in-memory state no longer matches the media, so every mutating
     *  call fails until the image is recovered on a fresh system. */
    bool dead_ = false;
    /** Sealed data pages and their line spans, entry for entry. */
    std::vector<storage::PageId> data_pages_;
    std::vector<PageSpan> page_dir_;
};

} // namespace mithril::core

#endif // MITHRIL_CORE_MITHRILOG_H
