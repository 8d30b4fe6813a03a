#include "soak/soak_driver.h"

#include <algorithm>
#include <deque>
#include <string>
#include <utility>

#include "common/hash.h"

namespace mithril::soak {

namespace {

/** Query rotation: template tokens the line generator emits, in
 *  shapes that exercise the compiled path, conjunction, disjunction,
 *  a guaranteed miss, and the typed incident-response tier
 *  (DESIGN.md §15): subnet, typed-and-keyword, and hex-id lookups
 *  against the addresses makeLine() plants. */
constexpr std::string_view kQueries[] = {
    "tmpl3",
    "payload & tmpl1",
    "tmpl7 | tmpl11",
    "payload & seqzero",
    "ip:10.0.0.0/16",
    "tmpl5 & ip:10.0.128.0/17",
    "id:feedc0debaadf00d",
};

/** One synthetic line: a template token the queries can hit, a unique
 *  sequence token, typed fields for the incident-tier queries (a
 *  source address cycling through 10.0/16, a hex session id on every
 *  16th line), and filler to keep pages turning over. */
std::string
makeLine(Rng *rng, uint64_t seq)
{
    uint64_t tmpl = rng->skewedBelow(16);
    std::string line = "soak tmpl" + std::to_string(tmpl) +
                       " payload seq" + std::to_string(seq);
    line += " src=10.0." + std::to_string((seq >> 8) & 0xff) + "." +
            std::to_string(seq & 0xff);
    if (seq % 16 == 0) {
        line += " sid=feedc0debaadf00d";
    }
    line += " filler abcdefgh ijklmnop qrstuvwx";
    return line;
}

/** Offered-rate multiplier at virtual time @p now_ps (mean ~1.0 over
 *  a full cycle for every shape; pure integer/FP arithmetic, no libm
 *  transcendentals, so it is bit-stable everywhere). */
double
shapeFactor(ArrivalShape shape, uint64_t now_ps)
{
    // 100 ms virtual cycle for bursty, 1 s for diurnal.
    constexpr uint64_t kBurstCyclePs = 100ull * 1000 * 1000 * 1000;
    constexpr uint64_t kDiurnalCyclePs =
        1000ull * 1000 * 1000 * 1000;
    switch (shape) {
    case ArrivalShape::kSteady: return 1.0;
    case ArrivalShape::kBursty: {
        // 20% of each cycle at 3x, the rest at 0.5x (mean 1.0).
        uint64_t phase = now_ps % kBurstCyclePs;
        return phase < kBurstCyclePs / 5 ? 3.0 : 0.5;
    }
    case ArrivalShape::kDiurnal: {
        // Triangle wave between 0.5x and 1.5x (mean 1.0).
        uint64_t phase = now_ps % kDiurnalCyclePs;
        double frac = static_cast<double>(phase) /
                      static_cast<double>(kDiurnalCyclePs);
        double tri = frac < 0.5 ? 2.0 * frac : 2.0 * (1.0 - frac);
        return 0.5 + tri;
    }
    }
    return 1.0;
}

} // namespace

Status
parseShape(std::string_view name, ArrivalShape *out)
{
    if (name == "steady") {
        *out = ArrivalShape::kSteady;
    } else if (name == "bursty") {
        *out = ArrivalShape::kBursty;
    } else if (name == "diurnal") {
        *out = ArrivalShape::kDiurnal;
    } else {
        return Status::invalidArgument(
            "unknown arrival shape '" + std::string(name) +
            "' (want steady|bursty|diurnal)");
    }
    return Status::ok();
}

std::string_view
shapeName(ArrivalShape shape)
{
    switch (shape) {
    case ArrivalShape::kSteady: return "steady";
    case ArrivalShape::kBursty: return "bursty";
    case ArrivalShape::kDiurnal: return "diurnal";
    }
    return "steady";
}

Status
estimateIngestCapacity(const SoakConfig &config, double *lines_per_s)
{
    // Closed-loop probe: same shard shape, fixed corpus, busiest
    // shard's modeled clock is the pace-setter.
    svc::LogServiceConfig sc;
    sc.shards = config.shards;
    sc.threads = config.threads;
    sc.batch_lines = config.batch_lines;
    sc.queue_depth = config.queue_depth;
    sc.routing = svc::RoutingPolicy::kRoundRobin;
    svc::LogService probe(sc);

    constexpr uint64_t kProbeLines = 4096;
    Rng rng(mix64(config.seed ^ 0x50a6ca11ull));
    for (uint64_t i = 0; i < kProbeLines; ++i) {
        std::string line = makeLine(&rng, i);
        Status st = probe.append(line);
        while (!st.isOk() &&
               st.code() == StatusCode::kResourceExhausted) {
            probe.drain();
            st = probe.append(line);
        }
        MITHRIL_RETURN_IF_ERROR(st);
    }
    MITHRIL_RETURN_IF_ERROR(probe.flush());

    double busiest_s = 0.0;
    for (size_t i = 0; i < probe.shardCount(); ++i) {
        SimTime elapsed = probe.shard(i).ssd().elapsed();
        busiest_s = std::max(busiest_s, elapsed.toSeconds());
    }
    if (busiest_s <= 0.0) {
        return Status::internal("probe accrued no modeled time");
    }
    *lines_per_s = static_cast<double>(kProbeLines) / busiest_s;
    return Status::ok();
}

SoakDriver::SoakDriver(SoakConfig config) : config_(config)
{
    if (config_.metrics != nullptr) {
        metrics_ = config_.metrics;
    } else {
        owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
        metrics_ = owned_metrics_.get();
    }
    svc::LogServiceConfig sc;
    sc.shards = std::max<size_t>(1, config_.shards);
    sc.threads = std::max<size_t>(1, config_.threads);
    sc.batch_lines = std::max<size_t>(1, config_.batch_lines);
    sc.queue_depth = std::max<size_t>(1, config_.queue_depth);
    sc.routing = svc::RoutingPolicy::kRoundRobin;
    sc.checkpoint_every_pages = config_.checkpoint_every_pages;
    sc.metrics = metrics_;
    sc.tracer = config_.tracer;
    service_ = std::make_unique<svc::LogService>(sc);
}

uint64_t
SoakDriver::shapedGapPs(Rng *rng, double base_rate,
                        uint64_t now_ps) const
{
    double rate = base_rate * shapeFactor(config_.shape, now_ps);
    // Mean gap 1/rate with +-50% uniform jitter: enough dispersion to
    // populate the tail without libm transcendentals.
    double gap_s = (0.5 + rng->uniform()) / rate;
    uint64_t gap_ps = static_cast<uint64_t>(gap_s * 1e12);
    return std::max<uint64_t>(gap_ps, 1);
}

Status
SoakDriver::run(SoakReport *out)
{
    *out = SoakReport{};
    const size_t n_shards = service_->shardCount();
    const uint64_t end_ps =
        static_cast<uint64_t>(config_.duration_s * 1e12);
    const uint64_t snap_every_ps = std::max<uint64_t>(
        1, static_cast<uint64_t>(config_.snapshot_every_s * 1e12));

    // Independent, reproducible event streams.
    Rng ingest_rng(mix64(config_.seed ^ 0x16e57ull));
    Rng query_rng(mix64(config_.seed ^ 0x4e52ull));
    Rng line_rng(mix64(config_.seed ^ 0x11e5ull));

    obs::Histogram &ingest_e2e =
        metrics_->quantileHistogram("soak.ingest_e2e.sim_ps");
    obs::Histogram &query_e2e =
        metrics_->quantileHistogram("soak.query_e2e.sim_ps");
    obs::Histogram &queue_lag =
        metrics_->quantileHistogram("soak.admission_lag.sim_ps");

    // Open-loop queueing state, all in the modeled domain.
    std::vector<uint64_t> busy_until_ps(n_shards, 0);
    std::vector<uint64_t> shard_clock_ps(n_shards, 0);
    for (size_t i = 0; i < n_shards; ++i) {
        shard_clock_ps[i] = service_->shard(i).ssd().elapsed().ps();
    }
    /** Arrival timestamps of accepted-but-not-yet-durable lines. */
    std::vector<std::deque<uint64_t>> arrivals(n_shards);
    uint64_t append_calls = 0;

    // Completes shard @p si's just-filled batch: quiesce the pool,
    // read the shard's modeled clock delta, advance the queueing
    // model, and attribute end-to-end latency to every line in it.
    auto completeBatch = [&](size_t si, uint64_t now_ps) {
        service_->drain();
        uint64_t clock = service_->shard(si).ssd().elapsed().ps();
        uint64_t cost = clock - shard_clock_ps[si];
        shard_clock_ps[si] = clock;
        uint64_t start = std::max(now_ps, busy_until_ps[si]);
        uint64_t done = start + cost;
        busy_until_ps[si] = done;
        size_t batch = std::min(arrivals[si].size(),
                                config_.batch_lines);
        for (size_t k = 0; k < batch; ++k) {
            uint64_t arrived = arrivals[si].front();
            arrivals[si].pop_front();
            ingest_e2e.record(done - arrived);
        }
    };

    uint64_t t_ingest = shapedGapPs(&ingest_rng, config_.ingest_lps, 0);
    uint64_t t_query =
        config_.query_qps > 0.0
            ? shapedGapPs(&query_rng, config_.query_qps, 0)
            : end_ps + 1;
    uint64_t next_snap = snap_every_ps;

    auto takeSnapshot = [&](uint64_t t_ps) {
        SoakSnapshot s;
        s.t_ps = t_ps;
        s.offered_lines = out->offered_lines;
        s.accepted_lines = out->accepted_lines;
        s.dropped_lines = out->dropped_lines;
        s.queries_done = out->completed_queries;
        s.ingest_p99_ps = ingest_e2e.quantile(0.99);
        out->series.push_back(s);
    };

    while (t_ingest <= end_ps || t_query <= end_ps) {
        uint64_t now_ps = std::min(t_ingest, t_query);
        while (next_snap < now_ps && next_snap <= end_ps) {
            takeSnapshot(next_snap);
            next_snap += snap_every_ps;
        }
        if (t_ingest <= t_query) {
            ++out->offered_lines;
            size_t si = append_calls % n_shards;
            uint64_t lag = busy_until_ps[si] > now_ps
                               ? busy_until_ps[si] - now_ps
                               : 0;
            queue_lag.record(lag);
            if (lag > config_.admission_max_lag.ps()) {
                // Admission control: shed at the door instead of
                // queueing unboundedly (open-loop drop).
                ++out->dropped_lines;
            } else {
                std::string line =
                    makeLine(&line_rng, out->accepted_lines);
                Status st = service_->append(line);
                while (!st.isOk() &&
                       st.code() ==
                           StatusCode::kResourceExhausted) {
                    // Real backpressure: absorb it here so the
                    // accepted sequence never depends on worker
                    // timing.
                    service_->drain();
                    st = service_->append(line);
                }
                MITHRIL_RETURN_IF_ERROR(st);
                ++append_calls;
                ++out->accepted_lines;
                arrivals[si].push_back(now_ps);
                if (arrivals[si].size() >= config_.batch_lines) {
                    completeBatch(si, now_ps);
                }
            }
            t_ingest +=
                shapedGapPs(&ingest_rng, config_.ingest_lps, now_ps);
        } else {
            ++out->offered_queries;
            std::string_view qtext =
                kQueries[query_rng.below(std::size(kQueries))];
            svc::ServiceQueryResult r;
            MITHRIL_RETURN_IF_ERROR(service_->query(qtext, &r));
            // The query contends with the ingest backlog: the most
            // lagged shard delays the fan-out, then the modeled run
            // time applies.
            uint64_t lag = 0;
            for (size_t i = 0; i < n_shards; ++i) {
                if (busy_until_ps[i] > now_ps) {
                    lag = std::max(lag, busy_until_ps[i] - now_ps);
                }
            }
            uint64_t e2e = lag + r.breakdown.total_time.ps();
            query_e2e.record(e2e);
            ++out->completed_queries;
            out->matched_lines += r.matched_lines;
            t_query +=
                shapedGapPs(&query_rng, config_.query_qps, now_ps);
        }
    }

    // Tail: flush the partial batches and attribute their lines to
    // the post-flush modeled clock.
    MITHRIL_RETURN_IF_ERROR(service_->flush());
    for (size_t si = 0; si < n_shards; ++si) {
        if (!arrivals[si].empty()) {
            completeBatch(si, end_ps);
        }
        // flush() may seal a shard's open page without a full batch;
        // keep the clock bookkeeping caught up either way.
        shard_clock_ps[si] = service_->shard(si).ssd().elapsed().ps();
    }
    while (next_snap <= end_ps) {
        takeSnapshot(next_snap);
        next_snap += snap_every_ps;
    }

    out->drop_rate =
        out->offered_lines == 0
            ? 0.0
            : static_cast<double>(out->dropped_lines) /
                  static_cast<double>(out->offered_lines);
    out->ingest_e2e_ps = ingest_e2e.quantiles();
    out->query_e2e_ps = query_e2e.quantiles();
    return Status::ok();
}

} // namespace mithril::soak
