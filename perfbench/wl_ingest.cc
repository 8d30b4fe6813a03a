/**
 * @file
 * `ingest`: one core::MithriLog, one client. The client feeds a seeded
 * incident corpus (Spirit2 background plus planted lines) through
 * ingestText() in fixed-size timed segments with the periodic
 * checkpoint policy on, then seals. A request is one segment. Passes
 * (a fresh store each) repeat for the whole measured phase.
 */
#include "perfbench/workloads.h"

#include <memory>

#include "core/mithrilog.h"
#include "perfbench/corpus.h"
#include "perfbench/layers.h"

namespace mithril::perfbench {

namespace {

/** Sealed data pages between background checkpoints: several
 *  checkpoints and cleaning passes land inside every pass. */
constexpr uint64_t kCheckpointEveryPages = 64;

struct IngestSetup {
    Incident incident;
    std::vector<LibQuery> library;
};

class IngestRun
{
  public:
    IngestRun(const Options &opt, Report *report)
        : opt_(opt), report_(report), spans_(opt.trace)
    {
    }

    void run();

  private:
    /**
     * Ingests the corpus into a fresh store, one timed request per
     * segment, seals, and checks the store's answers against the
     * oracle. Adds the samples to @p e unless it is null. Null on
     * failure (already counted).
     */
    std::unique_ptr<core::MithriLog> pass(obs::MetricsRegistry *metrics,
                                          SpanLog *log, EndToEnd *e);

    /** Passes for @p seconds. */
    void measure(double seconds, SpanLog *log, EndToEnd *e);

    const Options &opt_;
    Report *report_;
    SpanLog spans_;
    SpanLog off_{false};
    obs::Tracer tracer_;
    const std::chrono::steady_clock::time_point tracer_epoch_ =
        std::chrono::steady_clock::now();
    SetupClock setup_clock_;
    IngestSetup setup_;
    std::vector<std::string_view> segments_;
    std::vector<Answer> oracle_;
    uint64_t request_ = 0;
    /** Modeled device seconds of the last pass, read right after its
     *  seal (before a query reads a page). */
    double modeled_s_ = 0.0;
};

std::unique_ptr<core::MithriLog>
IngestRun::pass(obs::MetricsRegistry *metrics, SpanLog *log, EndToEnd *e)
{
    core::MithriLogConfig cfg;
    cfg.checkpoint_every_pages = kCheckpointEveryPages;
    cfg.metrics = metrics;
    cfg.tracer = &tracer_;
    auto store = std::make_unique<core::MithriLog>(cfg);
    ++request_;
    WallTimer whole;
    for (std::string_view seg : segments_) {
        WallTimer t;
        Status st = tracedCall(log, &tracer_, tracer_epoch_,
                               "core.ingest_segment", request_,
                               [&] { return store->ingestText(seg); });
        const double ms = t.seconds() * 1e3;
        if (!st.isOk()) {
            report_->fail("ingestText: " + st.toString());
            return nullptr;
        }
        report_->op(true);
        if (e != nullptr) {
            e->request_ms.push_back(ms);
        }
    }
    Status st = tracedCall(log, &tracer_, tracer_epoch_, "core.seal",
                           request_, [&] { return store->seal(); });
    const double pass_s = whole.seconds();
    const uint64_t lines = setup_.incident.truth.total_lines;
    if (!st.isOk() || store->durableLineCount() != lines) {
        report_->fail("seal: " + st.toString() + ", lines " +
                      std::to_string(store->durableLineCount()) + " of " +
                      std::to_string(lines));
        return nullptr;
    }
    report_->op(true);
    modeled_s_ = store->ssd().elapsed().toSeconds();
    if (e != nullptr) {
        e->raw_mb_s.push_back(
            static_cast<double>(setup_.incident.text.size()) / 1e6 / pass_s);
    }
    // Every pass's store answers the library as the oracle does.
    for (size_t i = 0; i < setup_.library.size(); ++i) {
        core::QueryResult r;
        st = store->run(setup_.library[i].text, &r);
        if (!st.isOk() || r.matched_lines != oracle_[i].digest.count ||
            digestOf(r.lines) != oracle_[i].digest) {
            report_->fail("answer differs from the oracle: " +
                          setup_.library[i].text);
            return nullptr;
        }
        report_->op(true);
    }
    return store;
}

void
IngestRun::measure(double seconds, SpanLog *log, EndToEnd *e)
{
    obs::MetricsRegistry metrics;
    WallTimer phase;
    while (phase.seconds() < seconds) {
        if (!opt_.trace) {
            setup_clock_.during(phase.seconds() / seconds);
        }
        e->host_ref_ms.push_back(hostRefMs());
        if (pass(&metrics, log, e) == nullptr) {
            return;
        }
    }
    if (!opt_.trace) {
        setup_clock_.during(1.0);
    }
}

void
IngestRun::run()
{
    const uint64_t corpus_bytes = opt_.smoke ? (1ull << 20) : (4ull << 20);
    // About 2000 segments in a 20-second run: ten and more beyond p99.
    const size_t segment_bytes = opt_.smoke ? (16u << 10) : (64u << 10);

    setup_ = setup_clock_.first([&] {
        IngestSetup s;
        s.incident = incidentCorpus(opt_.seed, corpus_bytes);
        s.library = templateLibrary(s.incident.reference,
                                    LibraryShape{6, 2, 1, 1});
        for (LibQuery &q : typedLibrary(s.incident, opt_.seed)) {
            s.library.push_back(std::move(q));
        }
        return s;
    });
    segments_ = segmentText(setup_.incident.text, segment_bytes);
    oracle_ = oracleAnswers(setup_.incident.text, setup_.library);
    if (opt_.break_oracle) {
        oracle_.front().digest.count += 1;
    }

    // The reference pass is the warm-up: its samples are discarded.
    obs::MetricsRegistry ref_metrics;
    std::unique_ptr<core::MithriLog> ref = pass(&ref_metrics, &off_, nullptr);
    if (ref == nullptr) {
        return;
    }
    const double modeled_us =
        modeled_s_ * 1e6 / static_cast<double>(segments_.size());
    // Deterministic counts: equal for one seed, different across seeds.
    report_->diag("count.corpus_lines",
                  static_cast<double>(setup_.incident.truth.total_lines));
    report_->diag("count.data_pages",
                  static_cast<double>(ref->dataPageCount()));
    report_->diag("count.checkpoints_per_pass",
                  static_cast<double>(
                      ref_metrics.counterValue("journal.checkpoints")));
    report_->diag("count.oracle_matches",
                  static_cast<double>(matchedLines(oracle_)));

    EndToEnd e;
    e.tail_quantile = 0.99;
    if (!opt_.trace) {
        measure(opt_.seconds, &off_, &e);
        e.setup_s = setup_clock_.samples();
        e.modeled_us = modeled_us;
        reportEndToEnd(e, report_);
        return;
    }
    // Untraced half, then traced half: their difference is the tracing
    // overhead.
    measure(opt_.seconds / 2, &off_, &e);
    EndToEnd traced;
    measure(opt_.seconds / 2, &spans_, &traced);
    LayerInputs in;
    in.segments = segments_;
    in.store = ref.get();
    in.library = &setup_.library;
    in.image = opt_.out_dir + "/ingest.img";
    finishTraced(opt_, in, nullptr, e, traced, &spans_, report_);
}

} // namespace

void
runIngest(const Options &opt, Report *report)
{
    IngestRun(opt, report).run();
}

} // namespace mithril::perfbench
