/**
 * @file
 * `search`: one client runs a fixed seeded query mix against a sealed
 * store built in setup from loggen::generateIncident (Spirit2
 * background plus planted attacker, session and decoy lines with exact
 * ground truth). Ingest happens only in setup, so this workload times
 * the read path alone. A request is one query.
 */
#include "perfbench/workloads.h"

#include <array>
#include <cmath>
#include <memory>
#include <numeric>

#include "common/hash.h"
#include "common/rng.h"
#include "core/mithrilog.h"
#include "perfbench/corpus.h"
#include "perfbench/layers.h"

namespace mithril::perfbench {

namespace {

/**
 * Class shares of the mix. p50 must fall inside the selective/negated
 * latencies (index-pruned, a few pages) and p99 inside the broad ones
 * (full scans), neither on a boundary between classes: broad is a few
 * percent, so the 99th percentile sits well inside its latencies.
 */
constexpr std::array<std::pair<QueryClass, double>, 4> kShares = {{
    {QueryClass::kSelective, 0.62},
    {QueryClass::kNegated, 0.10},
    {QueryClass::kTyped, 0.25},
    {QueryClass::kBroad, 0.03},
}};

struct SearchSetup {
    Incident incident;
    std::vector<LibQuery> library;
    std::unique_ptr<core::MithriLog> store;
};

class SearchRun
{
  public:
    SearchRun(const Options &opt, Report *report)
        : opt_(opt), report_(report), spans_(opt.trace)
    {
    }

    void run();

  private:
    /** Checks one result against the oracle: the digest of the kept
     *  lines, and the line numbers of typed queries. */
    bool check(size_t qi, const core::QueryResult &r) const;

    /** Runs the mix for @p seconds. */
    void measure(double seconds, SpanLog *log, EndToEnd *e);

    const Options &opt_;
    Report *report_;
    SpanLog spans_;
    SpanLog off_{false};
    obs::Tracer tracer_;
    const std::chrono::steady_clock::time_point tracer_epoch_ =
        std::chrono::steady_clock::now();
    SetupClock setup_clock_;
    SearchSetup setup_;
    std::vector<Answer> expected_;
    std::vector<size_t> mix_;
    size_t next_ = 0;
    uint64_t request_ = 0;
    /** Latencies by QueryClass (diagnostics: where p50 / p99 fall). */
    std::array<std::vector<double>, 4> class_ms_;
};

bool
SearchRun::check(size_t qi, const core::QueryResult &r) const
{
    const Answer &a = expected_[qi];
    if (r.matched_lines != a.digest.count || digestOf(r.lines) != a.digest) {
        return false;
    }
    return setup_.library[qi].cls != QueryClass::kTyped ||
           r.line_numbers == a.line_numbers;
}

void
SearchRun::measure(double seconds, SpanLog *log, EndToEnd *e)
{
    const double raw_mb =
        static_cast<double>(setup_.incident.text.size()) / 1e6;
    WallTimer phase;
    size_t n = 0;
    while (phase.seconds() < seconds) {
        if (n++ % 64 == 0) {
            if (!opt_.trace) {
                setup_clock_.during(phase.seconds() / seconds);
            }
            e->host_ref_ms.push_back(hostRefMs());
        }
        size_t qi = mix_[next_++ % mix_.size()];
        const LibQuery &q = setup_.library[qi];
        core::QueryResult r;
        std::string name = std::string("core.run.") + className(q.cls);
        WallTimer t;
        Status st = tracedCall(log, &tracer_, tracer_epoch_, name,
                               ++request_,
                               [&] { return setup_.store->run(q.text, &r); });
        double s = t.seconds();
        if (!st.isOk() || !check(qi, r)) {
            report_->fail("query " + q.text + ": " + st.toString());
            continue;
        }
        report_->op(true);
        // The first query of the phase is the warm-up.
        if (n == 1) {
            continue;
        }
        e->request_ms.push_back(s * 1e3);
        e->raw_mb_s.push_back(raw_mb / s);
        class_ms_[static_cast<size_t>(q.cls)].push_back(s * 1e3);
    }
    if (!opt_.trace) {
        setup_clock_.during(1.0);
    }
}

void
SearchRun::run()
{
    const uint64_t bytes = opt_.smoke ? (1ull << 20) : (4ull << 20);
    setup_ = setup_clock_.first([&] {
        SearchSetup s;
        s.incident = incidentCorpus(opt_.seed, bytes);
        s.library =
            templateLibrary(s.incident.reference, LibraryShape{});
        for (LibQuery &q : typedLibrary(s.incident, opt_.seed)) {
            s.library.push_back(std::move(q));
        }
        core::MithriLogConfig cfg;
        cfg.tracer = &tracer_;
        s.store = std::make_unique<core::MithriLog>(cfg);
        Status st = s.store->ingestText(s.incident.text);
        if (st.isOk()) {
            st = s.store->seal();
        }
        if (!st.isOk()) {
            s.store.reset();
        }
        return s;
    });
    if (setup_.store == nullptr) {
        report_->fail("building the search store");
        return;
    }
    const std::vector<LibQuery> &lib = setup_.library;

    // Oracle: SoftwareMatcher over the raw corpus, plus the planted
    // ground truth for the typed queries (library order: ip exact,
    // ip CIDR, id; see typedLibrary).
    expected_ = oracleAnswers(setup_.incident.text, lib);
    if (opt_.break_oracle) {
        expected_.front().digest.count += 1;
    }
    size_t typed0 = 0;
    while (lib[typed0].cls != QueryClass::kTyped) {
        ++typed0;
    }
    const loggen::IncidentGroundTruth &truth = setup_.incident.truth;
    if (expected_[typed0].line_numbers == truth.attacker_lines &&
        expected_[typed0 + 1].digest.count ==
            truth.attacker_lines.size() + truth.decoy_lines.size() &&
        expected_[typed0 + 2].line_numbers == truth.session_lines) {
        report_->op(true);
    } else {
        report_->fail("oracle disagrees with the planted ground truth");
    }

    // Every distinct query once (also the warm-up): checked against the
    // oracle, and its modeled time kept, which is deterministic.
    // A template query the planner sends to a full scan is broad, not
    // selective, whatever its text.
    std::vector<double> modeled_total_us(lib.size(), 0.0);
    for (size_t i = 0; i < lib.size(); ++i) {
        core::QueryResult r;
        Status st = setup_.store->run(lib[i].text, &r);
        if (!st.isOk() || !check(i, r)) {
            report_->fail("oracle mismatch: " + lib[i].text + " " +
                          st.toString() + " got " +
                          std::to_string(r.matched_lines) + " want " +
                          std::to_string(expected_[i].digest.count));
            continue;
        }
        report_->op(true);
        modeled_total_us[i] = r.breakdown.total_time.toMicroseconds();
        if (r.planned_full_scan && lib[i].cls != QueryClass::kTyped) {
            setup_.library[i].cls = QueryClass::kBroad;
        }
    }
    std::vector<std::vector<size_t>> by_class(kShares.size());
    for (size_t i = 0; i < lib.size(); ++i) {
        for (size_t c = 0; c < kShares.size(); ++c) {
            if (kShares[c].first == lib[i].cls) {
                by_class[c].push_back(i);
            }
        }
    }
    // Deterministic counts: equal for one seed, different across seeds.
    report_->diag("count.corpus_lines", static_cast<double>(truth.total_lines));
    report_->diag("count.data_pages",
                  static_cast<double>(setup_.store->dataPageCount()));
    report_->diag("count.library_queries", static_cast<double>(lib.size()));
    report_->diag("count.oracle_matches",
                  static_cast<double>(matchedLines(expected_)));

    // The mix: decks in which every query of a class holds an equal
    // number of slots and the classes hold their shares, shuffled per
    // seed. Whole decks have the exact shares, so where p50 and p99 fall
    // does not move with how many queries a run completes.
    constexpr double kDeck = 1000.0;
    std::vector<size_t> slots(lib.size(), 0);
    for (size_t c = 0; c < kShares.size(); ++c) {
        for (size_t i : by_class[c]) {
            slots[i] = std::max<size_t>(
                1, static_cast<size_t>(std::lround(
                       kShares[c].second * kDeck /
                       static_cast<double>(by_class[c].size()))));
        }
    }
    mix_ = shuffledDecks(slots, opt_.seed, 8);
    // Probability of each distinct query in the mix.
    std::vector<double> weight(lib.size(), 0.0);
    double deck = static_cast<double>(
        std::accumulate(slots.begin(), slots.end(), size_t{0}));
    for (size_t i = 0; i < lib.size(); ++i) {
        weight[i] = static_cast<double>(slots[i]) / deck;
    }

    // The expected modeled time of a query drawn from the mix:
    // deterministic for a seed.
    double modeled_us = 0.0;
    for (size_t i = 0; i < lib.size(); ++i) {
        modeled_us += weight[i] * modeled_total_us[i];
    }

    EndToEnd e;
    // Broad queries are 3% of the mix: the 99th percentile falls inside
    // their latencies.
    e.tail_quantile = 0.99;
    if (!opt_.trace) {
        measure(opt_.seconds, &off_, &e);
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
        return;
    }
    measure(opt_.seconds / 2, &off_, &e);
    EndToEnd traced;
    measure(opt_.seconds / 2, &spans_, &traced);
    LayerInputs in;
    in.segments = segmentText(setup_.incident.text, 128u << 10);
    in.store = setup_.store.get();
    in.library = &setup_.library;
    in.weights = weight;
    in.image = opt_.out_dir + "/search.img";
    finishTraced(opt_, in, nullptr, e, traced, &spans_, report_);
}

} // namespace

void
runSearch(const Options &opt, Report *report)
{
    SearchRun(opt, report).run();
}

} // namespace mithril::perfbench
