/**
 * @file
 * `mount`: the restart path. Setup ingests a seeded incident corpus
 * into a store with the periodic checkpoint policy on, seals it and
 * dumps its device image. A request is one recover() of that image into
 * a fresh store: journal replay, page verify, index rebuild. Mounts
 * repeat for the whole measured phase.
 */
#include "perfbench/workloads.h"

#include <memory>

#include "core/mithrilog.h"
#include "perfbench/corpus.h"
#include "perfbench/layers.h"

namespace mithril::perfbench {

namespace {

/** As in `ingest`: the image holds a checkpointed journal. */
constexpr uint64_t kCheckpointEveryPages = 64;

/** Library queries each timed mount answers (in rotation; the warm-up
 *  mount answers them all): answering every query after every mount
 *  would take more of the phase than the mounts do. */
constexpr size_t kAnswersPerMount = 2;

struct MountSetup {
    Incident incident;
    std::vector<LibQuery> library;
    std::unique_ptr<core::MithriLog> store;
};

class MountRun
{
  public:
    MountRun(const Options &opt, Report *report)
        : opt_(opt), report_(report), spans_(opt.trace),
          image_(opt.out_dir + "/mount.img")
    {
    }

    void run();

  private:
    /**
     * Mounts the image into a fresh store and checks it: the recovered
     * line count, and the answers to @p answers library queries, taken
     * in rotation, against the oracle. Adds the samples to @p e unless
     * it is null. False on failure (already counted).
     */
    bool mount(obs::MetricsRegistry *metrics, SpanLog *log, EndToEnd *e,
               size_t answers);

    /** Mounts for @p seconds. */
    void measure(double seconds, SpanLog *log, EndToEnd *e);

    const Options &opt_;
    Report *report_;
    SpanLog spans_;
    SpanLog off_{false};
    obs::Tracer tracer_;
    const std::chrono::steady_clock::time_point tracer_epoch_ =
        std::chrono::steady_clock::now();
    const std::string image_;
    SetupClock setup_clock_;
    MountSetup setup_;
    std::vector<Answer> oracle_;
    uint64_t request_ = 0;
    /** Next library query a mount answers. */
    size_t next_answer_ = 0;
};

bool
MountRun::mount(obs::MetricsRegistry *metrics, SpanLog *log, EndToEnd *e,
                size_t answers)
{
    core::MithriLogConfig cfg;
    cfg.metrics = metrics;
    cfg.tracer = &tracer_;
    core::MithriLog store(cfg);
    WallTimer t;
    Status st = tracedCall(log, &tracer_, tracer_epoch_, "core.recover",
                           ++request_, [&] { return store.recover(image_); });
    const double s = t.seconds();
    const uint64_t lines = setup_.incident.truth.total_lines;
    if (!st.isOk() || store.durableLineCount() != lines) {
        report_->fail("mount: " + st.toString() + ", recovered " +
                      std::to_string(store.durableLineCount()) + " of " +
                      std::to_string(lines) + " lines");
        return false;
    }
    report_->op(true);
    if (e != nullptr) {
        e->request_ms.push_back(s * 1e3);
        e->raw_mb_s.push_back(
            static_cast<double>(setup_.incident.text.size()) / 1e6 / s);
    }
    for (size_t k = 0; k < answers; ++k) {
        const size_t i = next_answer_++ % setup_.library.size();
        core::QueryResult r;
        st = store.run(setup_.library[i].text, &r);
        if (!st.isOk() || r.matched_lines != oracle_[i].digest.count ||
            digestOf(r.lines) != oracle_[i].digest) {
            report_->fail("mounted store's answer differs from the oracle: " +
                          setup_.library[i].text);
            return false;
        }
        report_->op(true);
    }
    return true;
}

void
MountRun::measure(double seconds, SpanLog *log, EndToEnd *e)
{
    obs::MetricsRegistry metrics;
    WallTimer phase;
    size_t n = 0;
    while (phase.seconds() < seconds) {
        if (n++ % 8 == 0) {
            if (!opt_.trace) {
                setup_clock_.during(phase.seconds() / seconds);
            }
            e->host_ref_ms.push_back(hostRefMs());
        }
        if (!mount(&metrics, log, e, kAnswersPerMount)) {
            return;
        }
    }
    if (!opt_.trace) {
        setup_clock_.during(1.0);
    }
}

void
MountRun::run()
{
    const uint64_t corpus_bytes = opt_.smoke ? (512ull << 10) : (2ull << 20);

    // Set-up includes building the store and dumping its image: a
    // rebuild writes the same bytes again.
    setup_ = setup_clock_.first([&] {
        MountSetup s;
        s.incident = incidentCorpus(opt_.seed, corpus_bytes);
        s.library = templateLibrary(s.incident.reference,
                                    LibraryShape{6, 2, 1, 1});
        for (LibQuery &q : typedLibrary(s.incident, opt_.seed)) {
            s.library.push_back(std::move(q));
        }
        core::MithriLogConfig cfg;
        cfg.checkpoint_every_pages = kCheckpointEveryPages;
        s.store = std::make_unique<core::MithriLog>(cfg);
        Status st = s.store->ingestText(s.incident.text);
        if (st.isOk()) {
            st = s.store->seal();
        }
        if (st.isOk()) {
            st = s.store->saveDeviceImage(image_);
        }
        if (!st.isOk()) {
            s.store.reset();
        }
        return s;
    });
    if (setup_.store == nullptr) {
        report_->fail("building and dumping the mount image");
        return;
    }
    oracle_ = oracleAnswers(setup_.incident.text, setup_.library);
    if (opt_.break_oracle) {
        oracle_.front().digest.count += 1;
    }

    // The first mount is the warm-up: its samples are discarded, and
    // its modeled recovery time is the (deterministic) modeled time per
    // request.
    obs::MetricsRegistry warm_metrics;
    if (!mount(&warm_metrics, &off_, nullptr, setup_.library.size())) {
        return;
    }
    // Deterministic counts: equal for one seed, different across seeds.
    report_->diag("count.corpus_lines",
                  static_cast<double>(setup_.incident.truth.total_lines));
    report_->diag("count.data_pages",
                  static_cast<double>(setup_.store->dataPageCount()));
    report_->diag("count.records_replayed",
                  static_cast<double>(warm_metrics.counterValue(
                      "recovery.records_replayed")));
    report_->diag("count.oracle_matches",
                  static_cast<double>(matchedLines(oracle_)));

    EndToEnd e;
    // About 150 mounts in a 20-second run: the 90th percentile is the
    // highest with ten beyond it.
    e.tail_quantile = 0.90;
    if (!opt_.trace) {
        measure(opt_.seconds, &off_, &e);
        e.setup_s = setup_clock_.samples();
        e.modeled_us = static_cast<double>(warm_metrics.counterValue(
                           "recovery.modeled_ps")) /
                       1e6;
        reportEndToEnd(e, report_);
        return;
    }
    measure(opt_.seconds / 2, &off_, &e);
    EndToEnd traced;
    measure(opt_.seconds / 2, &spans_, &traced);
    LayerInputs in;
    in.segments = segmentText(setup_.incident.text, 128u << 10);
    in.store = setup_.store.get();
    in.library = &setup_.library;
    in.image = image_ + ".layers";
    finishTraced(opt_, in, nullptr, e, traced, &spans_, report_);
}

} // namespace

void
runMount(const Options &opt, Report *report)
{
    MountRun(opt, report).run();
}

} // namespace mithril::perfbench
