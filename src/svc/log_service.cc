#include "svc/log_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/text.h"
#include "common/wall_timer.h"
#include "query/parser.h"

namespace mithril::svc {

namespace {

/** Construction-time config normalization: zero shards/threads/bounds
 *  would deadlock or divide by zero, so they clamp to the minimum
 *  working service instead. */
LogServiceConfig
normalize(LogServiceConfig config)
{
    config.shards = std::max<size_t>(1, config.shards);
    config.threads = std::max<size_t>(1, config.threads);
    config.batch_lines = std::max<size_t>(1, config.batch_lines);
    config.queue_depth = std::max<size_t>(1, config.queue_depth);
    return config;
}

} // namespace

LogService::LogService(LogServiceConfig config)
    : config_(normalize(std::move(config))),
      tasks_(config_.shards * 4 + 64)
{
    metrics_ = &obs::registryOrOwn(config_.metrics, &owned_metrics_);
    if (config_.tracer != nullptr) {
        tracer_ = config_.tracer;
    } else {
        owned_tracer_ = std::make_unique<obs::Tracer>();
        tracer_ = owned_tracer_.get();
    }
    counters_.lines_routed = &metrics_->counter("svc.lines_routed");
    counters_.lines_rejected = &metrics_->counter("svc.lines_rejected");
    counters_.batches_enqueued =
        &metrics_->counter("svc.batches_enqueued");
    counters_.batches_processed =
        &metrics_->counter("svc.batches_processed");
    counters_.ingest_errors = &metrics_->counter("svc.ingest_errors");
    counters_.queries = &metrics_->counter("svc.queries");
    counters_.shard_queries = &metrics_->counter("svc.shard_queries");
    counters_.checkpoints = &metrics_->counter("svc.checkpoints");
    counters_.batch_lines = &metrics_->quantileHistogram("svc.batch_lines");
    counters_.queue_depth = &metrics_->quantileHistogram("svc.queue_depth");
    counters_.shard_imbalance_pct =
        &metrics_->gauge("svc.shard_imbalance_pct");
    stages_.queue_wait = obs::StageLatency(metrics_, "svc.queue_wait");
    stages_.batch_apply =
        obs::StageLatency(metrics_, "svc.batch_apply");
    stages_.shard_query =
        obs::StageLatency(metrics_, "svc.shard_query");
    stages_.query_fanout =
        obs::StageLatency(metrics_, "svc.query_fanout");
    stages_.merge = obs::StageLatency(metrics_, "svc.merge");
    metrics_->gauge("svc.shards")
        .set(static_cast<double>(config_.shards));
    metrics_->gauge("svc.threads")
        .set(static_cast<double>(config_.threads));
    metrics_->gauge("svc.shards_readonly").set(0.0);
    // Registered up front so a service that never reopens still
    // publishes the counter at zero.
    metrics_->counter("svc.shards_reopened");

    fault::FaultPlanConfig fault_config;
    bool with_faults = !config_.fault_spec.empty();
    if (with_faults) {
        Status parsed =
            fault::FaultPlan::parse(config_.fault_spec, &fault_config);
        // A malformed spec is a caller bug (the CLI validates before
        // constructing); failing loudly beats silently running clean.
        MITHRIL_ASSERT(parsed.isOk());
    }

    shards_.reserve(config_.shards);
    for (size_t i = 0; i < config_.shards; ++i) {
        auto shard = std::make_unique<Shard>();
        core::MithriLogConfig shard_config = config_.shard;
        shard_config.metrics = metrics_;
        shard_config.tracer = tracer_;
        shard->log = std::make_unique<core::MithriLog>(shard_config);
        if (with_faults) {
            // Independent, reproducible fault streams per shard: the
            // same spec, seed re-derived so shard i's draws never
            // depend on shard j's traffic.
            fault::FaultPlanConfig fc = fault_config;
            fc.seed ^= mix64(static_cast<uint64_t>(i) + 1);
            shard->fault =
                std::make_unique<fault::FaultPlan>(fc, metrics_);
            MutexLock log_lock(shard->log_mu);
            shard->log->ssd().attachFaultPlan(shard->fault.get());
        }
        shards_.push_back(std::move(shard));
    }

    workers_.reserve(config_.threads);
    for (size_t i = 0; i < config_.threads; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

LogService::~LogService()
{
    tasks_.close();
    for (std::thread &worker : workers_) {
        worker.join();
    }
}

void
LogService::workerLoop()
{
    while (std::optional<Task> task = tasks_.pop()) {
        if (task->run) {
            task->run();
        } else {
            drainShard(task->shard);
        }
    }
}

size_t
LogService::routeLine(std::string_view line)
{
    if (config_.routing == RoutingPolicy::kRoundRobin ||
        shards_.size() == 1) {
        // relaxed: pure rotation counter — no data is published
        // through this increment, only the slot number matters.
        return next_shard_.fetch_add(1, std::memory_order_relaxed) %
               shards_.size();
    }
    // Hash-by-token: a template's lines land on one shard (locality
    // for template-heavy queries) at the price of skew the imbalance
    // metric makes visible.
    std::string_view first;
    forEachToken(line, [&](std::string_view tok, uint32_t) {
        first = tok;
        return false;
    });
    if (first.empty()) {
        first = line;
    }
    return hash64(first) % shards_.size();
}

Status
LogService::append(std::string_view line)
{
    size_t si = routeLine(line);
    Shard &s = *shards_[si];
    bool need_schedule = false;
    {
        MutexLock lock(s.mu);
        if (s.readonly) {
            return Status::failedPrecondition(
                "shard " + std::to_string(si) +
                " is a recovered read-only store");
        }
        if (!s.error.isOk()) {
            return s.error;
        }
        // Admission control: reject *before* accepting a line that
        // would complete a batch with nowhere to go.
        if (s.open.size() + 1 >= config_.batch_lines &&
            s.batches.size() >= config_.queue_depth) {
            counters_.lines_rejected->add();
            if (config_.routing == RoutingPolicy::kRoundRobin ||
                shards_.size() == 1) {
                // Give the rotation slot back: whether this append got
                // rejected depends on worker timing, so a consumed slot
                // would make the retry's shard — and from there every
                // page boundary — schedule-dependent. Returning it
                // keeps routing a pure function of the accepted line
                // sequence.
                // relaxed: same rotation counter as routeLine().
                next_shard_.fetch_sub(1, std::memory_order_relaxed);
            }
            return Status::resourceExhausted(
                "shard " + std::to_string(si) + " backlog full (" +
                std::to_string(s.batches.size()) +
                " batches queued); retry after it drains");
        }
        s.open.emplace_back(line);
        if (s.open.size() >= config_.batch_lines) {
            counters_.queue_depth->record(s.batches.size());
            s.batches.push_back(
                Shard::QueuedBatch{std::move(s.open), WallTimer()});
            s.open = std::vector<std::string>();
            counters_.batches_enqueued->add();
            noteBatchEnqueued();
            if (!s.draining) {
                s.draining = true;
                need_schedule = true;
            }
        }
    }
    counters_.lines_routed->add();
    if (need_schedule) {
        scheduleDrain(si);
    }
    return Status::ok();
}

Status
LogService::appendText(std::string_view text)
{
    Status status = Status::ok();
    forEachLine(text, [&](std::string_view line) {
        if (status.isOk()) {
            status = append(line);
        }
    });
    return status;
}

void
LogService::scheduleDrain(size_t si)
{
    Task task;
    task.shard = si;
    if (!tasks_.push(std::move(task))) {
        // Pool shut down mid-ingest (destructor racing a producer);
        // un-mark the shard so state stays consistent.
        MutexLock lock(shards_[si]->mu);
        shards_[si]->draining = false;
    }
}

void
LogService::drainShard(size_t si)
{
    Shard &s = *shards_[si];
    // Bounded work per task so M workers stay fair across N shards
    // under sustained ingest; the tail re-queues itself.
    for (size_t applied = 0; applied < config_.queue_depth; ++applied) {
        std::vector<std::string> batch;
        bool skip;
        {
            MutexLock lock(s.mu);
            if (s.batches.empty()) {
                s.draining = false;
                return;
            }
            double waited = s.batches.front().waited.seconds();
            stages_.queue_wait.recordWallNs(
                static_cast<uint64_t>(waited * 1e9));
            batch = std::move(s.batches.front().lines);
            s.batches.pop_front();
            // A shard that already failed (or went read-only) skips
            // its remaining backlog — the device is dead or the store
            // sealed; replaying onto it would only repeat the error.
            skip = !s.error.isOk() || s.readonly;
        }
        // Apply outside `mu` so producers only ever wait on a queue
        // push, never on LZAH encoding. Per-shard FIFO order still
        // holds: this is the shard's single drainer (`draining` flag).
        Status batch_error = Status::ok();
        if (!skip) {
            MutexLock log_lock(s.log_mu);
            obs::Span span = tracer_->span("svc.ingest_batch", "svc");
            obs::StageTimer apply_timer(&stages_.batch_apply);
            uint64_t busy_start_ps = s.log->ssd().elapsed().ps();
            for (const std::string &line : batch) {
                Status st = s.log->ingestLine(line);
                if (!st.isOk()) {
                    batch_error = st;
                    break;
                }
            }
            uint64_t busy_end_ps = s.log->ssd().elapsed().ps();
            SimTime apply_busy =
                SimTime::picoseconds(busy_end_ps - busy_start_ps);
            apply_timer.setSimDuration(apply_busy);
            span.setSimDuration(apply_busy);
            // Background checkpoint policy: between batches (never
            // mid-batch), once the shard grew enough since its last
            // checkpoint. A failure is a device death — sticky, like
            // any other ingest error on this shard.
            if (batch_error.isOk() &&
                config_.checkpoint_every_pages > 0 &&
                s.log->dataPageCount() - s.checkpointed_pages >=
                    config_.checkpoint_every_pages) {
                obs::Span ck_span =
                    tracer_->span("svc.checkpoint", "svc");
                uint64_t ck_start_ps = s.log->ssd().elapsed().ps();
                batch_error = s.log->checkpoint();
                ck_span.setSimDuration(SimTime::picoseconds(
                    s.log->ssd().elapsed().ps() - ck_start_ps));
                if (batch_error.isOk()) {
                    s.checkpointed_pages = s.log->dataPageCount();
                    counters_.checkpoints->add();
                }
            }
        }
        if (!batch_error.isOk()) {
            counters_.ingest_errors->add();
            MutexLock lock(s.mu);
            if (s.error.isOk()) {
                // Sticky: reported on the next append() to this shard.
                s.error = batch_error;
            }
        }
        counters_.batches_processed->add();
        counters_.batch_lines->record(batch.size());
        noteBatchDone();
    }
    bool more;
    {
        MutexLock lock(s.mu);
        more = !s.batches.empty();
        if (!more) {
            s.draining = false;
        }
    }
    if (more) {
        scheduleDrain(si);
    }
}

void
LogService::noteBatchEnqueued()
{
    MutexLock lock(idle_mu_);
    ++pending_batches_;
}

void
LogService::noteBatchDone()
{
    MutexLock lock(idle_mu_);
    --pending_batches_;
    if (pending_batches_ == 0) {
        idle_cv_.notifyAll();
    }
}

void
LogService::drain()
{
    MutexLock lock(idle_mu_);
    while (pending_batches_ != 0) {
        idle_cv_.wait(idle_mu_);
    }
}

Status
LogService::flush()
{
    // Hand every open (partial) batch to the pool. This may exceed
    // queue_depth by one batch per shard — a caller-driven checkpoint
    // is not admission-controlled traffic.
    for (size_t si = 0; si < shards_.size(); ++si) {
        Shard &s = *shards_[si];
        bool need_schedule = false;
        {
            MutexLock lock(s.mu);
            if (s.open.empty() || s.readonly || !s.error.isOk()) {
                continue;
            }
            counters_.queue_depth->record(s.batches.size());
            s.batches.push_back(
                Shard::QueuedBatch{std::move(s.open), WallTimer()});
            s.open = std::vector<std::string>();
            counters_.batches_enqueued->add();
            noteBatchEnqueued();
            if (!s.draining) {
                s.draining = true;
                need_schedule = true;
            }
        }
        if (need_schedule) {
            scheduleDrain(si);
        }
    }
    drain();
    Status first = Status::ok();
    for (const std::unique_ptr<Shard> &shard : shards_) {
        Status st = Status::ok();
        {
            MutexLock lock(shard->mu);
            if (shard->readonly) {
                continue;
            }
            st = shard->error;
        }
        if (st.isOk()) {
            MutexLock log_lock(shard->log_mu);
            st = shard->log->flush();
        }
        if (!st.isOk() && first.isOk()) {
            first = st;
        }
    }
    return first;
}

Status
LogService::seal()
{
    MITHRIL_RETURN_IF_ERROR(flush());
    Status first = Status::ok();
    for (const std::unique_ptr<Shard> &shard : shards_) {
        Status st = Status::ok();
        {
            MutexLock lock(shard->mu);
            if (shard->readonly) {
                // Still read-only from recovery: the journal is frozen
                // until reopenShard(). A reopened shard has readonly
                // cleared and seals below like a fresh one.
                continue;
            }
            st = shard->error;
        }
        if (st.isOk()) {
            MutexLock log_lock(shard->log_mu);
            st = shard->log->seal();
        }
        if (!st.isOk() && first.isOk()) {
            first = st;
        }
    }
    return first;
}

Status
LogService::query(const query::Query &q, ServiceQueryResult *out)
{
    *out = ServiceQueryResult{};
    WallTimer wall;
    obs::Span fanout = tracer_->span("svc.query_fanout", "svc");
    obs::StageTimer fanout_timer(&stages_.query_fanout);
    counters_.queries->add();

    size_t n = shards_.size();
    std::vector<core::QueryResult> results(n);
    std::vector<Status> statuses(n, Status::ok());
    Mutex done_mu;
    CondVar done_cv;
    size_t done = 0;

    for (size_t i = 0; i < n; ++i) {
        Task task;
        task.run = [this, i, n, &q, &results, &statuses, &done_mu,
                    &done_cv, &done] {
            Shard &s = *shards_[i];
            {
                MutexLock log_lock(s.log_mu);
                obs::Span span = tracer_->span("svc.shard_query", "svc");
                obs::StageTimer shard_timer(&stages_.shard_query);
                counters_.shard_queries->add();
                statuses[i] = s.log->run(q, &results[i]);
                SimTime modeled = results[i].breakdown.total_time;
                span.setSimDuration(modeled);
                shard_timer.setSimDuration(modeled);
            }
            MutexLock lock(done_mu);
            if (++done == n) {
                done_cv.notifyAll();
            }
        };
        bool pushed = tasks_.push(std::move(task));
        MITHRIL_ASSERT(pushed);
    }
    {
        MutexLock lock(done_mu);
        while (done != n) {
            done_cv.wait(done_mu);
        }
    }

    double seconds = wall.seconds();
    mergeResults(results, seconds, out);
    fanout.setSimDuration(out->breakdown.total_time);
    fanout.end();
    fanout_timer.setSimDuration(out->breakdown.total_time);
    fanout_timer.end();

    for (const Status &st : statuses) {
        MITHRIL_RETURN_IF_ERROR(st);
    }
    return Status::ok();
}

Status
LogService::query(std::string_view query_text, ServiceQueryResult *out)
{
    // Compiled once: one parse + validation; every shard's accelerator
    // then programs the same query object against its own pages.
    query::Query q;
    MITHRIL_RETURN_IF_ERROR(query::parseQuery(query_text, &q));
    return query(q, out);
}

void
LogService::mergeResults(std::vector<core::QueryResult> &shard_results,
                         double wall_seconds, ServiceQueryResult *out)
{
    obs::Span span = tracer_->span("svc.merge", "svc");
    obs::StageTimer merge_timer(&stages_.merge);
    out->per_shard.reserve(shard_results.size());
    out->matched_per_shard.reserve(shard_results.size());
    core::QueryBreakdown &b = out->breakdown;
    for (core::QueryResult &r : shard_results) {
        // Deterministic merge: shard index order, line-number order
        // within — (shard, lineNo) — independent of which worker
        // finished first.
        out->matched_lines += r.matched_lines;
        out->matched_per_shard.push_back(r.matched_lines);
        out->lines.insert(out->lines.end(),
                          std::make_move_iterator(r.lines.begin()),
                          std::make_move_iterator(r.lines.end()));
        out->line_numbers.insert(out->line_numbers.end(),
                                 r.line_numbers.begin(),
                                 r.line_numbers.end());
        if (out->matched_per_query.size() < r.matched_per_query.size()) {
            out->matched_per_query.resize(r.matched_per_query.size());
        }
        for (size_t qi = 0; qi < r.matched_per_query.size(); ++qi) {
            out->matched_per_query[qi] += r.matched_per_query[qi];
        }
        out->bytes_scanned += r.bytes_scanned;

        const core::QueryBreakdown &sb = r.breakdown;
        // Shards run concurrently: the slowest shard paces each phase
        // and the fan-out total.
        b.index_time = SimTime::max(b.index_time, sb.index_time);
        b.storage_time = SimTime::max(b.storage_time, sb.storage_time);
        b.compute_time = SimTime::max(b.compute_time, sb.compute_time);
        b.total_time = SimTime::max(b.total_time, sb.total_time);
        b.candidate_pages += sb.candidate_pages;
        b.pages_scanned += sb.pages_scanned;
        b.pages_total += sb.pages_total;
        b.pages_with_matches += sb.pages_with_matches;
        b.false_positive_pages += sb.false_positive_pages;
        b.pages_dropped += sb.pages_dropped;
        b.read_retries += sb.read_retries;
        b.used_fallback = b.used_fallback || sb.used_fallback;
        b.planned_full_scan =
            b.planned_full_scan || sb.planned_full_scan;
        b.degraded_index_scan =
            b.degraded_index_scan || sb.degraded_index_scan;
        b.degraded_software_scan =
            b.degraded_software_scan || sb.degraded_software_scan;
        b.typed_predicates += sb.typed_predicates;
        b.typed_index_pages += sb.typed_index_pages;
        b.typed_index_bytes += sb.typed_index_bytes;
        b.degraded_typed_scan =
            b.degraded_typed_scan || sb.degraded_typed_scan;
        out->per_shard.push_back(sb);
    }
    b.wall_seconds = wall_seconds;
    out->total_time = b.total_time;
    counters_.shard_imbalance_pct->set(out->shardImbalancePct());
}

double
ServiceQueryResult::shardImbalancePct() const
{
    if (per_shard.empty()) {
        return 0.0;
    }
    uint64_t max_ps = 0;
    uint64_t sum_ps = 0;
    for (const core::QueryBreakdown &b : per_shard) {
        max_ps = std::max<uint64_t>(max_ps, b.total_time.ps());
        sum_ps += b.total_time.ps();
    }
    if (max_ps == 0) {
        return 0.0;
    }
    double mean = static_cast<double>(sum_ps) /
                  static_cast<double>(per_shard.size());
    return 100.0 * (1.0 - mean / static_cast<double>(max_ps));
}

Status
LogService::recoverShard(size_t shard, const std::string &device_image)
{
    if (shard >= shards_.size()) {
        return Status::invalidArgument("no shard " +
                                       std::to_string(shard));
    }
    // The caller must quiesce the service around recovery (mount time,
    // not steady state). Locks still cover each individual step so a
    // misuse shows up as a precondition error, not a race.
    Shard &s = *shards_[shard];
    {
        MutexLock lock(s.mu);
        if (!s.open.empty() || !s.batches.empty() || s.draining) {
            return Status::failedPrecondition(
                "recoverShard requires an empty, quiesced shard");
        }
    }
    bool recovered;
    {
        MutexLock log_lock(s.log_mu);
        if (s.log->lineCount() != 0) {
            return Status::failedPrecondition(
                "recoverShard requires an empty, quiesced shard");
        }
        MITHRIL_RETURN_IF_ERROR(s.log->recover(device_image));
        recovered = s.log->recovered();
    }
    {
        MutexLock lock(s.mu);
        s.readonly = recovered;
        s.error = Status::ok();
    }
    if (recovered) {
        // relaxed: monotonic count; readers only ever want a snapshot
        // and the gauge below carries the published value.
        size_t now = readonly_count_.fetch_add(
                         1, std::memory_order_relaxed) + 1;
        metrics_->gauge("svc.shards_readonly")
            .set(static_cast<double>(now));
    }
    return Status::ok();
}

Status
LogService::reopenShard(size_t shard)
{
    if (shard >= shards_.size()) {
        return Status::invalidArgument("no shard " +
                                       std::to_string(shard));
    }
    // Mount-time operation like recoverShard(): the caller quiesces
    // the service around it. Each step still takes its own lock so a
    // misuse surfaces as a precondition error, not a race.
    Shard &s = *shards_[shard];
    {
        MutexLock lock(s.mu);
        if (!s.readonly) {
            return Status::failedPrecondition(
                "reopenShard requires a recovered read-only shard");
        }
    }
    {
        MutexLock log_lock(s.log_mu);
        // A sealed donor (terminal seal) or dead device refuses here;
        // the shard stays read-only.
        MITHRIL_RETURN_IF_ERROR(s.log->reopen());
    }
    {
        MutexLock lock(s.mu);
        s.readonly = false;
        s.error = Status::ok();
    }
    // relaxed: snapshot count; the gauge below carries the published
    // value, same discipline as recoverShard().
    size_t now = readonly_count_.fetch_sub(
                     1, std::memory_order_relaxed) - 1;
    metrics_->gauge("svc.shards_readonly")
        .set(static_cast<double>(now));
    metrics_->counter("svc.shards_reopened").add();
    return Status::ok();
}

uint64_t
LogService::lineCount() const
{
    uint64_t total = 0;
    for (const std::unique_ptr<Shard> &shard : shards_) {
        MutexLock log_lock(shard->log_mu);
        total += shard->log->lineCount();
    }
    return total;
}

uint64_t
LogService::rawBytes() const
{
    uint64_t total = 0;
    for (const std::unique_ptr<Shard> &shard : shards_) {
        MutexLock log_lock(shard->log_mu);
        total += shard->log->rawBytes();
    }
    return total;
}

size_t
LogService::readonlyShards() const
{
    // relaxed: monotonic counter snapshot; no associated data.
    return readonly_count_.load(std::memory_order_relaxed);
}

} // namespace mithril::svc
