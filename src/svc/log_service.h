/**
 * @file
 * mithril::svc — the sharded, multi-threaded log service layer.
 *
 * The paper's device exposes four independent filter pipelines; the
 * host side mirrors that shape here. A LogService owns N *shards*,
 * each a fully independent core::MithriLog (its own SsdModel, journal,
 * inverted index, and accelerator instance), plus a fixed pool of M
 * worker threads fed by bounded work queues:
 *
 *   ingest  — append() routes each line to a shard (round-robin or
 *             hash-by-first-token), buffers it into the shard's open
 *             batch, and hands full batches to the pool. Each shard's
 *             batches apply strictly in FIFO order under the shard's
 *             lock, so the per-shard durable-commit invariants
 *             (DESIGN.md §10) hold unchanged while shards proceed
 *             concurrently. When a shard's batch queue is full,
 *             append() answers kResourceExhausted — admission control
 *             instead of unbounded memory.
 *   query   — parsed/validated once, then fanned out to every shard in
 *             parallel (each shard's accelerator compiles and runs the
 *             same query program over that shard's pages). Per-shard
 *             results merge deterministically: kept lines concatenate
 *             in (shard, shard-local line order) — independent of
 *             worker count or completion order — and the SimTime
 *             roll-up takes max-over-shards for the fanned-out phases
 *             (the shards run in parallel) while scalar counts sum.
 *
 * Thread-safety model (annotated for -Wthread-safety, DESIGN.md §13,
 * and audited dynamically by the TSan tier):
 *   - each shard carries two locks, never held together: `mu` guards
 *     the producer-facing queue state (open batch, backlog, flags) so
 *     append() only ever pays a brief queue push, and `log_mu`
 *     serializes every touch of the shard's MithriLog (batch apply,
 *     query, flush, recovery) so the single-threaded core never sees
 *     two threads; every guarded field carries MITHRIL_GUARDED_BY and
 *     the lock-order lint's declared table pins which locks may nest;
 *   - per-shard FIFO apply order is guaranteed by a single-drainer
 *     flag (`draining`), not by lock order;
 *   - the shared obs::MetricsRegistry / obs::Tracer are internally
 *     synchronized (atomic counters, mutexed lookups/ring);
 *   - routing state is atomic; idle tracking has its own mutex +
 *     condvar.
 *
 * Determinism: routing happens on the caller's thread in append order,
 * so shard assignment — and therefore every shard's page contents,
 * SimTime, and query results — is bit-identical for any worker count.
 */
#ifndef MITHRIL_SVC_LOG_SERVICE_H
#define MITHRIL_SVC_LOG_SERVICE_H

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/wall_timer.h"
#include "core/mithrilog.h"
#include "fault/fault_plan.h"
#include "svc/bounded_queue.h"

namespace mithril::svc {

/** How append() picks the destination shard for a line. */
enum class RoutingPolicy {
    kRoundRobin,  ///< strict rotation — perfect balance, no locality
    kHashToken,   ///< hash of the line's first token — keeps a
                  ///< template's lines together at the cost of skew
};

/** Service configuration. */
struct LogServiceConfig {
    /** Independent MithriLog partitions (the unit of parallelism). */
    size_t shards = 4;
    /** Worker threads shared by ingest batches and query fan-out. */
    size_t threads = 4;
    RoutingPolicy routing = RoutingPolicy::kRoundRobin;
    /** Lines buffered per shard before a batch is handed to the pool. */
    size_t batch_lines = 256;
    /** Full batches a shard may queue before append() answers
     *  kResourceExhausted (the backpressure bound). */
    size_t queue_depth = 8;
    /** Base configuration for every shard's MithriLog. The metrics /
     *  tracer fields here are overridden by the service-level ones. */
    core::MithriLogConfig shard{};
    /**
     * Per-shard background checkpoint policy: after a batch applies,
     * the drainer checkpoints its shard once the shard has sealed this
     * many data pages since its last checkpoint (0 disables). Runs
     * under the shard's log_mu between batches — never mid-batch — so
     * the ingest path observes checkpoint latency as ordinary apply
     * time and the FIFO/durability invariants are untouched.
     */
    uint64_t checkpoint_every_pages = 0;
    /** Per-shard read/write fault plans, parsed from this FaultPlan
     *  spec with the seed re-derived per shard (seed ^ mix64(shard+1))
     *  so shards draw independent, reproducible fault streams. Empty =
     *  no injection. */
    std::string fault_spec;
    /** Shared registry/tracer (`svc.*` plus every shard's subsystems);
     *  when null the service owns private instances. */
    obs::MetricsRegistry *metrics = nullptr;
    obs::Tracer *tracer = nullptr;
};

/**
 * Merged result of one fanned-out query: each shard's matches, in
 * shard order and in line-number order within a shard, so the merge is
 * by (shard, line number) and byte-identical across worker counts,
 * whichever path each shard's query took.
 */
struct ServiceQueryResult {
    uint64_t matched_lines = 0;
    std::vector<accel::KeptLine> lines;
    /** Shard-local ingest line numbers, parallel to `lines` (each
     *  shard numbers its own ingest stream). */
    std::vector<uint64_t> line_numbers;
    std::vector<uint64_t> matched_per_query;
    uint64_t bytes_scanned = 0;

    /** Roll-up of the shards' breakdowns: shards run in parallel, so
     *  each phase time (and the total) is the max over shards, counts
     *  are summed and path flags OR-ed; wall_seconds is the fan-out's
     *  host time, merge included. */
    core::QueryBreakdown breakdown;
    /** Each shard's own breakdown, indexed by shard; one shard's
     *  serialized interior structure is preserved inside it. */
    std::vector<core::QueryBreakdown> per_shard;
    /** breakdown.total_time, copied once by the merge for
     *  perfbench/wl_live.cc, which reads it here. */
    SimTime total_time;

    /** Load imbalance across shards in percent:
     *  100 * (1 - mean/max) over per-shard modeled total time.
     *  0 = perfectly balanced; rises as one shard paces the fan-out. */
    double shardImbalancePct() const;
};

/**
 * The sharded log service. All public entry points are safe to call
 * from any number of threads concurrently (multi-producer ingest,
 * queries overlapping ingest); see the file comment for the model.
 */
class LogService
{
  public:
    explicit LogService(LogServiceConfig config = LogServiceConfig{});
    ~LogService();

    LogService(const LogService &) = delete;
    LogService &operator=(const LogService &) = delete;

    // ---- ingest --------------------------------------------------------

    /**
     * Routes one line to its shard and buffers it.
     * @retval kResourceExhausted the shard's batch queue is full
     *         (admission control) — nothing was accepted; retry after
     *         the backlog drains.
     * @retval kFailedPrecondition the target shard is a recovered,
     *         read-only store (see recoverShard(); reopenShard()
     *         re-admits it).
     * Any sticky shard ingest error (device fault mid-batch) is
     * reported on the next append() to that shard.
     */
    [[nodiscard]] Status append(std::string_view line);

    /** Appends newline-separated text line by line. */
    [[nodiscard]] Status appendText(std::string_view text);

    /**
     * Drains every queued batch, then seals each shard's open page and
     * flushes its index — the service-wide repeatable checkpoint.
     */
    [[nodiscard]] Status flush();

    /** Drains, then runs each shard's terminal durability barrier.
     *  Shards still in the recovered read-only state are skipped (their
     *  journal is frozen until reopenShard()); a shard brought back
     *  live by reopenShard() seals like a fresh one. */
    [[nodiscard]] Status seal();

    /** Blocks until every queued ingest batch has been applied. */
    void drain();

    // ---- query ---------------------------------------------------------

    /** Runs @p q on every shard in parallel and merges the results. */
    [[nodiscard]] Status query(const query::Query &q,
                               ServiceQueryResult *out);

    /** Parses once, then fans out. */
    [[nodiscard]] Status query(std::string_view query_text,
                               ServiceQueryResult *out);

    // ---- recovery ------------------------------------------------------

    /**
     * Mounts a raw device image (saveDeviceImage dump) into shard
     * @p shard, which must still be empty. The shard comes back
     * sealed+recovered: it serves queries but answers ingest with
     * kFailedPrecondition, and counts into the `svc.shards_readonly`
     * gauge — a degraded-but-explicit state instead of a generic
     * error from deep in the stack. reopenShard() flips it back live.
     */
    [[nodiscard]] Status recoverShard(size_t shard,
                                      const std::string &device_image);

    /**
     * Brings a recovered read-only shard back live: re-opens its
     * journal under a fresh generation (core::MithriLog::reopen(),
     * DESIGN.md §10) and re-admits the shard to ingest. The shard was
     * never taken out of the deterministic routing rotation — a
     * read-only shard bounces its appends with kFailedPrecondition —
     * so after reopen the accepted-line → shard assignment is again a
     * pure function of the accepted sequence. Decrements the
     * `svc.shards_readonly` gauge and counts into
     * `svc.shards_reopened`.
     * @retval kFailedPrecondition the shard is not in the recovered
     *         read-only state, or its store carries a durable seal
     *         (seal is terminal across recovery).
     */
    [[nodiscard]] Status reopenShard(size_t shard);

    // ---- introspection -------------------------------------------------

    size_t shardCount() const { return shards_.size(); }
    size_t threadCount() const { return workers_.size(); }

    /** Sum of every shard's ingested lines / raw bytes. Quiesce
     *  (drain/flush) first for an exact snapshot. */
    uint64_t lineCount() const;
    uint64_t rawBytes() const;

    /** Shards currently in the recovered read-only state. */
    size_t readonlyShards() const;

    /** Direct shard access for tests and benches. Only valid while
     *  the service is quiesced (drained, no concurrent append/query) —
     *  which is why the guarded-pointee dereference is exempted from
     *  the analysis here instead of taking log_mu. */
    core::MithriLog &
    shard(size_t i) MITHRIL_NO_THREAD_SAFETY_ANALYSIS
    {
        return *shards_[i]->log;
    }

    obs::MetricsRegistry &metrics() { return *metrics_; }
    obs::Tracer &tracer() { return *tracer_; }

  private:
    struct Shard {
        /** Guards the queue state below (open/batches/draining/
         *  readonly/error). Never held across a log operation. */
        Mutex mu;
        /** Serializes all access to `log` (batch apply, query, flush,
         *  recovery). Never acquired while holding `mu` — the
         *  lock-order lint's declared table enforces that pair. */
        Mutex log_mu;

        /** The shard's store: the pointer is set once at construction,
         *  the pointee is only ever touched under log_mu. */
        std::unique_ptr<core::MithriLog> log
            MITHRIL_PT_GUARDED_BY(log_mu);
        std::unique_ptr<fault::FaultPlan> fault;

        /** Lines accumulating toward the next batch. */
        std::vector<std::string> open MITHRIL_GUARDED_BY(mu);
        /** One queued batch, timestamped at enqueue so the drain can
         *  attribute its queue wait (`svc.queue_wait.wall_ns`). */
        struct QueuedBatch {
            std::vector<std::string> lines;
            WallTimer waited;
        };
        /** Full batches awaiting a worker, FIFO, bounded by
         *  queue_depth. */
        std::deque<QueuedBatch> batches MITHRIL_GUARDED_BY(mu);
        /** A drain task for this shard is queued or running. */
        bool draining MITHRIL_GUARDED_BY(mu) = false;
        /** Data pages in the shard at its last checkpoint (the policy
         *  trigger's baseline); touched only by the drainer. */
        uint64_t checkpointed_pages MITHRIL_GUARDED_BY(log_mu) = 0;
        /** Recovered read-only shard (kFailedPrecondition on ingest). */
        bool readonly MITHRIL_GUARDED_BY(mu) = false;
        /** First ingest failure; sticky until recovery. */
        Status error MITHRIL_GUARDED_BY(mu) = Status::ok();
    };

    /** One unit of pool work. */
    struct Task {
        /** Shard to drain (ingest), or a query closure. */
        size_t shard = 0;
        std::function<void()> run;  ///< when set, a query-side task
    };

    size_t routeLine(std::string_view line);
    void workerLoop();
    /** Applies up to queue_depth batches of shard @p si, then either
     *  marks it idle or re-queues itself (fairness under M < N). */
    void drainShard(size_t si);
    /** Schedules a drain task for @p si unless one is in flight.
     *  Call *without* holding the shard mutex. */
    void scheduleDrain(size_t si);
    void noteBatchEnqueued();
    void noteBatchDone();
    void mergeResults(std::vector<core::QueryResult> &shard_results,
                      double wall_seconds, ServiceQueryResult *out);

    LogServiceConfig config_;
    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    std::unique_ptr<obs::Tracer> owned_tracer_;
    obs::MetricsRegistry *metrics_ = nullptr;
    obs::Tracer *tracer_ = nullptr;

    /** Hot-path svc.* counters, resolved once. */
    struct SvcCounters {
        obs::Counter *lines_routed = nullptr;
        obs::Counter *lines_rejected = nullptr;
        obs::Counter *batches_enqueued = nullptr;
        obs::Counter *batches_processed = nullptr;
        obs::Counter *ingest_errors = nullptr;
        obs::Counter *queries = nullptr;
        obs::Counter *shard_queries = nullptr;
        obs::Counter *checkpoints = nullptr;
        obs::Histogram *batch_lines = nullptr;
        obs::Histogram *queue_depth = nullptr;
        obs::Gauge *shard_imbalance_pct = nullptr;
    } counters_;

    /** Per-stage latency histograms (obs/histogram.h): the request
     *  path from enqueue to merge. Wall-only stages (queue wait,
     *  merge) have no modeled cost; the rest carry both domains. */
    struct SvcStages {
        obs::StageLatency queue_wait;   ///< batch enqueue -> dequeue
        obs::StageLatency batch_apply;  ///< batch ingest into the shard
        obs::StageLatency shard_query;  ///< one shard's query run
        obs::StageLatency query_fanout; ///< fan-out + merge, end to end
        obs::StageLatency merge;        ///< deterministic result merge
    } stages_;

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<uint64_t> next_shard_{0};
    /** Shards in the recovered read-only state (gauge + accessor
     *  without taking every shard lock). */
    std::atomic<size_t> readonly_count_{0};

    BoundedQueue<Task> tasks_;
    std::vector<std::thread> workers_;

    /** Ingest quiescence: queued-but-unapplied batches. idle_mu_ is
     *  the one lock that may be acquired while a shard's `mu` is held
     *  (noteBatchEnqueued() under append/flush) — the declared
     *  shard-queue → svc-idle edge in the lock-order table. */
    Mutex idle_mu_;
    CondVar idle_cv_;
    uint64_t pending_batches_ MITHRIL_GUARDED_BY(idle_mu_) = 0;
};

} // namespace mithril::svc

#endif // MITHRIL_SVC_LOG_SERVICE_H
