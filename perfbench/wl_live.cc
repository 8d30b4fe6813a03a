/**
 * @file
 * `live`: svc::LogService with 2 shards and 2 workers, preloaded with a
 * base store. One producer thread bulk-appends a fixed further volume
 * and flushes; one query thread runs the selective part of the search
 * mix until the producer finishes. The only workload where writes and
 * reads compete for the same shard locks, worker pool and queues. A
 * request is one query; the producer's rate is `raw_mb_s`.
 *
 * The volume is fixed rather than the duration, so faster ingest does
 * not change the data each query sees; rounds (fresh service, same
 * base, same volume) repeat until the measured phase is over.
 */
#include "perfbench/workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "common/text.h"
#include "core/mithrilog.h"
#include "perfbench/corpus.h"
#include "perfbench/layers.h"
#include "svc/log_service.h"

namespace mithril::perfbench {

namespace {

/** The selective part of the search mix: template queries and their
 *  negated variants (no unions), plus the typed queries. */
constexpr LibraryShape kLibraryShape{32, 4, 0, 0};

struct LiveSetup {
    std::string corpus;
    size_t cut = 0;  ///< corpus[0, cut) is the base, the rest the volume
    std::vector<LibQuery> library;
    std::unique_ptr<svc::LogService> service;

    /** Preloaded before the phase. */
    std::string_view base() const
    {
        return std::string_view(corpus).substr(0, cut);
    }
    /** Appended during it. */
    std::string_view volume() const
    {
        return std::string_view(corpus).substr(cut);
    }
};

/** Runs each client on its own thread and joins them all. */
void
runClients(const std::vector<std::function<void()>> &clients)
{
    // mithril-lint: allow(thread-ownership) live's producer and query clients are two independent users; joined below
    std::vector<std::thread> threads;
    for (const std::function<void()> &client : clients) {
        threads.emplace_back(client);
    }
    for (auto &t : threads) {
        t.join();
    }
}

class LiveRun
{
  public:
    LiveRun(const Options &opt, Report *report)
        : opt_(opt), report_(report), spans_(opt.trace)
    {
    }

    void run();

  private:
    /** A service with @p base loaded and flushed; null on failure
     *  (counted). */
    std::unique_ptr<svc::LogService> preloaded(std::string_view base,
                                               obs::MetricsRegistry *metrics);

    /** One round on @p service: producer + query thread, then the
     *  final-answer check. Adds the samples to @p e unless it is null. */
    void round(svc::LogService &service, SpanLog *log, EndToEnd *e);

    /** Runs rounds for @p seconds. */
    void measure(double seconds, SpanLog *log, obs::MetricsRegistry *metrics,
                 EndToEnd *e);

    const Options &opt_;
    Report *report_;
    SpanLog spans_;
    SpanLog off_{false};
    SetupClock setup_clock_;
    LiveSetup setup_;
    std::vector<std::string_view> segments_;
    std::vector<Answer> at_base_;  ///< oracle over the base lines
    std::vector<Answer> at_end_;   ///< oracle over base + volume
    std::vector<size_t> mix_;
    uint64_t request_ = 0;
    /** Mean modeled time of the final answers, in µs. */
    double final_modeled_us_ = 0.0;
    /** Live query latencies by QueryClass (diagnostics). */
    std::array<std::vector<double>, 4> class_ms_;
};

std::unique_ptr<svc::LogService>
LiveRun::preloaded(std::string_view base, obs::MetricsRegistry *metrics)
{
    auto service = std::make_unique<svc::LogService>(serviceConfig(metrics));
    Status st = Status::ok();
    forEachLine(base, [&](std::string_view line) {
        if (st.isOk()) {
            st = appendLine(*service, line);
        }
    });
    if (st.isOk()) {
        st = service->flush();
    }
    if (!st.isOk()) {
        report_->fail("preloading the base store: " + st.toString());
        return nullptr;
    }
    return service;
}

void
LiveRun::round(svc::LogService &service, SpanLog *log, EndToEnd *e)
{
    std::atomic<bool> producing{true};
    uint64_t appends = 0, append_failures = 0;
    uint64_t queries = 0, query_failures = 0;
    Status flushed = Status::ok();
    std::vector<double> round_mb_s, round_ms;

    auto producer = [&] {
        uint64_t req = ++request_;
        WallTimer t;
        for (std::string_view seg : segments_) {
            t.reset();
            forEachLine(seg, [&](std::string_view line) {
                ++appends;
                ScopedSpan span(appends % kAppendSpanEvery == 0 ? log
                                                                : nullptr,
                                "svc.append", 0, req);
                append_failures += !appendLine(service, line).isOk();
            });
            if (seg.data() + seg.size() == setup_.volume().end()) {
                // The last segment also waits for everything queued to
                // be applied: bytes count as ingested once flushed.
                ScopedSpan span(log, "svc.flush", 0, req);
                flushed = service.flush();
            }
            round_mb_s.push_back(static_cast<double>(seg.size()) / 1e6 /
                                 t.seconds());
        }
        producing = false;
    };
    auto querier = [&] {
        size_t next = 0;
        while (producing) {
            size_t qi = mix_[next++ % mix_.size()];
            svc::ServiceQueryResult r;
            WallTimer t;
            // Query requests are numbered apart from producer rounds.
            ScopedSpan span(log, "svc.query", 0, (1ull << 32) + next);
            Status st = service.query(setup_.library[qi].text, &r);
            span.end();
            double ms = t.seconds() * 1e3;
            ++queries;
            class_ms_[static_cast<size_t>(setup_.library[qi].cls)]
                .push_back(ms);
            // Mid-ingest a query sees the base plus some prefix of the
            // volume: its count lies between the two oracle answers.
            if (!st.isOk() || r.matched_lines < at_base_[qi].digest.count ||
                r.matched_lines > at_end_[qi].digest.count) {
                ++query_failures;
                continue;
            }
            round_ms.push_back(ms);
        }
    };
    runClients({producer, querier});

    for (uint64_t i = 0; i < appends; ++i) {
        report_->op(i >= append_failures);
    }
    for (uint64_t i = 0; i < queries; ++i) {
        report_->op(i >= query_failures);
    }
    if (append_failures + query_failures != 0) {
        std::fprintf(stderr, "FAILED: %llu appends and %llu live queries\n",
                     static_cast<unsigned long long>(append_failures),
                     static_cast<unsigned long long>(query_failures));
    }
    if (!flushed.isOk()) {
        report_->fail("final flush: " + flushed.toString());
        return;
    }
    // After the final flush every answer equals the oracle over the
    // accepted lines (every line is accepted: refusals are retried).
    double modeled_us = 0.0;
    for (size_t qi = 0; qi < setup_.library.size(); ++qi) {
        svc::ServiceQueryResult r;
        Status st = service.query(setup_.library[qi].text, &r);
        if (!st.isOk() || r.matched_lines != at_end_[qi].digest.count ||
            digestOf(r.lines) != at_end_[qi].digest) {
            report_->fail("final answer differs from the oracle: " +
                          setup_.library[qi].text);
        } else {
            report_->op(true);
        }
        modeled_us += r.total_time.toMicroseconds();
    }
    final_modeled_us_ =
        modeled_us / static_cast<double>(setup_.library.size());
    if (e != nullptr) {
        e->raw_mb_s.insert(e->raw_mb_s.end(), round_mb_s.begin(),
                           round_mb_s.end());
        e->request_ms.insert(e->request_ms.end(), round_ms.begin(),
                             round_ms.end());
    }
}

void
LiveRun::measure(double seconds, SpanLog *log, obs::MetricsRegistry *metrics,
                 EndToEnd *e)
{
    WallTimer phase;
    while (phase.seconds() < seconds) {
        if (!opt_.trace) {
            setup_clock_.during(phase.seconds() / seconds);
        }
        e->host_ref_ms.push_back(hostRefMs());
        std::unique_ptr<svc::LogService> service =
            preloaded(setup_.base(), metrics);
        if (service == nullptr) {
            return;
        }
        round(*service, log, e);
    }
    if (!opt_.trace) {
        setup_clock_.during(1.0);
    }
}

void
LiveRun::run()
{
    const uint64_t base_bytes = opt_.smoke ? (256ull << 10) : (1ull << 20);
    const uint64_t volume_bytes = opt_.smoke ? (1ull << 20) : (8ull << 20);
    // Segments span several fill/drain cycles of the shard queues, so a
    // sample times applied ingest, not buffering.
    const size_t segment_bytes = opt_.smoke ? (256u << 10) : (2u << 20);

    setup_ = setup_clock_.first([&] {
        LiveSetup s;
        Incident inc = incidentCorpus(opt_.seed, base_bytes + volume_bytes);
        s.library = templateLibrary(inc.reference, kLibraryShape);
        for (LibQuery &q : typedLibrary(inc, opt_.seed)) {
            s.library.push_back(std::move(q));
        }
        s.corpus = std::move(inc.text);
        s.cut = s.corpus.find('\n', base_bytes) + 1;
        s.service = preloaded(s.base(), nullptr);
        return s;
    });
    if (setup_.service == nullptr) {
        return;
    }
    setup_.service.reset();
    segments_ = segmentText(setup_.volume(), segment_bytes);

    at_base_ = oracleAnswers(setup_.base(), setup_.library);
    at_end_ = oracleAnswers(setup_.corpus, setup_.library);
    if (opt_.break_oracle) {
        at_end_.front().digest.count += 1;
    }
    // Deterministic counts: equal for one seed, different across seeds.
    report_->diag("count.corpus_lines",
                  static_cast<double>(std::count(setup_.corpus.begin(),
                                                 setup_.corpus.end(), '\n')));
    report_->diag("count.library_queries",
                  static_cast<double>(setup_.library.size()));
    report_->diag("count.oracle_matches",
                  static_cast<double>(matchedLines(at_end_)));
    mix_ = shuffledDecks(std::vector<size_t>(setup_.library.size(), 1),
                         opt_.seed, 64);

    // The first round is the warm-up; its samples are dropped. Its final
    // answers give the modeled time per request.
    {
        obs::MetricsRegistry warm_metrics;
        std::unique_ptr<svc::LogService> service =
            preloaded(setup_.base(), &warm_metrics);
        if (service == nullptr) {
            return;
        }
        round(*service, &off_, nullptr);
    }
    const double modeled_us = final_modeled_us_;

    EndToEnd e;
    // Queries complete a few hundred to a thousand times a run: the
    // 95th percentile is the highest with ten beyond it.
    e.tail_quantile = 0.95;
    obs::MetricsRegistry metrics;
    if (!opt_.trace) {
        measure(opt_.seconds, &off_, &metrics, &e);
        e.setup_s = setup_clock_.samples();
        e.modeled_us = modeled_us;
        reportEndToEnd(e, report_);
        for (size_t c = 0; c < class_ms_.size(); ++c) {
            if (!class_ms_[c].empty()) {
                report_->diag(std::string("p50_ms.") +
                                  className(static_cast<QueryClass>(c)),
                              median(class_ms_[c]));
            }
        }
        report_->diag("svc.lines_rejected",
                      static_cast<double>(
                          metrics.counterValue("svc.lines_rejected")));
        return;
    }
    measure(opt_.seconds / 2, &off_, &metrics, &e);
    obs::MetricsRegistry traced_metrics;
    EndToEnd traced;
    measure(opt_.seconds / 2, &spans_, &traced_metrics, &traced);

    // The layer passes run on one sealed store holding the whole corpus.
    // The phase's self times cover the benchmark's svc spans only: the
    // program's spans run on worker threads and cannot be tied to a
    // caller, so the svc stage histograms stand in.
    core::MithriLog store{core::MithriLogConfig{}};
    Status st = store.ingestText(setup_.corpus);
    if (st.isOk()) {
        st = store.seal();
    }
    if (!st.isOk()) {
        report_->fail("building the layer-pass store: " + st.toString());
        return;
    }
    LayerInputs in;
    in.segments = segmentText(setup_.corpus, 128u << 10);
    in.store = &store;
    in.library = &setup_.library;
    in.image = opt_.out_dir + "/live.img";
    finishTraced(opt_, in, &traced_metrics, e, traced, &spans_, report_);
}

} // namespace

void
runLive(const Options &opt, Report *report)
{
    LiveRun(opt, report).run();
}

} // namespace mithril::perfbench
