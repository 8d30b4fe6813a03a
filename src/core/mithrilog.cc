#include "core/mithrilog.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/bits.h"
#include "common/hash.h"
#include "common/text.h"
#include "common/wall_timer.h"
#include "obs/json.h"
#include "query/matcher.h"
#include "query/parser.h"

namespace mithril::core {

using storage::Link;
using storage::PageId;

MithriLog::MithriLog(MithriLogConfig config)
    : config_(config),
      metrics_(&obs::registryOrOwn(config.metrics, &owned_metrics_)),
      ssd_(config.ssd, metrics_), journal_(&ssd_, metrics_),
      index_(std::make_unique<index::InvertedIndex>(&ssd_, config.index,
                                                    metrics_)),
      typed_index_(std::make_unique<typed::TypedIndex>(&ssd_, metrics_)),
      accel_(config.accel, metrics_)
{
    if (config_.tracer != nullptr) {
        tracer_ = config_.tracer;
    } else {
        owned_tracer_ = std::make_unique<obs::Tracer>();
        tracer_ = owned_tracer_.get();
    }

    counters_.lines_ingested = &metrics_->counter("core.lines_ingested");
    counters_.lines_truncated =
        &metrics_->counter("core.lines_truncated");
    counters_.pages_sealed = &metrics_->counter("core.pages_sealed");
    counters_.lzah_bytes_in = &metrics_->counter("lzah.bytes_in");
    counters_.lzah_bytes_out = &metrics_->counter("lzah.bytes_out");
    counters_.queries = &metrics_->counter("core.queries");
    counters_.query_fallbacks =
        &metrics_->counter("core.query_fallbacks");
    counters_.planner_full_scans =
        &metrics_->counter("core.planner_full_scans");
    counters_.candidate_pages =
        &metrics_->counter("index.candidate_pages");
    counters_.false_positive_pages =
        &metrics_->counter("index.false_positive_pages");
    counters_.degraded_index_scans =
        &metrics_->counter("core.degraded_index_scans");
    counters_.degraded_software_scans =
        &metrics_->counter("core.degraded_software_scans");
    counters_.typed_queries = &metrics_->counter("core.typed_queries");
    counters_.degraded_typed_scans =
        &metrics_->counter("core.degraded_typed_scans");
    counters_.crc_failed_pages =
        &metrics_->counter("core.crc_failed_pages");
    counters_.pages_dropped = &metrics_->counter("core.pages_dropped");
    counters_.ssd_read_retries = &metrics_->counter("ssd.read_retries");

    stages_.lzah_encode = obs::StageLatency(metrics_, "lzah.encode");
    stages_.journal_commit =
        obs::StageLatency(metrics_, "journal.commit");
    stages_.query_compile =
        obs::StageLatency(metrics_, "query.compile");
}

Status
MithriLog::ingestLine(std::string_view line)
{
    if (sealed_) {
        return Status::invalidArgument("store is sealed");
    }
    if (dead_) {
        return Status::unavailable(
            "device lost power; recover() the image on a fresh system");
    }
    if (line.size() > compress::LzahPageEncoder::kMaxLineBytes) {
        // Longer than LZAH's page limit: kept truncated, and counted.
        line = line.substr(0, compress::LzahPageEncoder::kMaxLineBytes);
        ++truncated_lines_;
        counters_.lines_truncated->add();
    }
    obs::StageTimer encode_timer(&stages_.lzah_encode);
    compress::AddLineResult r = encoder_.addLine(line);
    encode_timer.end();
    MITHRIL_ASSERT(r != compress::AddLineResult::kRejected);
    if (r == compress::AddLineResult::kSealedAndAppended) {
        // The sealed page holds the lines before this one; this line
        // opened the next page and its tokens belong there. A commit
        // failure means this line was never acknowledged.
        MITHRIL_RETURN_IF_ERROR(sealPendingPage());
    }
    // Typed extraction rides the same tokenizer pass (indexLine);
    // `lines_` has not been bumped yet, so it is this line's 0-based
    // number.
    indexLine(line, lines_);
    ++lines_;
    raw_bytes_ += line.size() + 1;
    counters_.lines_ingested->add();
    counters_.lzah_bytes_in->add(line.size() + 1);
    return Status::ok();
}

Status
MithriLog::ingestText(std::string_view text)
{
    Status status = Status::ok();
    forEachLine(text, [&](std::string_view line) {
        if (status.isOk()) {
            status = ingestLine(line);
        }
    });
    return status;
}

void
MithriLog::indexLine(std::string_view line, uint64_t line_no)
{
    // One tokenizer pass: each token joins the open page's distinct
    // set, and the line's token list feeds typed extraction.
    line_tokens_.clear();
    forEachToken(line, [&](std::string_view tok, uint32_t) {
        page_tokens_.insert(tok);
        line_tokens_.push_back(tok);
        return true;
    });
    if (config_.use_typed_index) {
        typed_index_->addLine(line_tokens_, line_no);
    }
}

void
MithriLog::indexPage(PageId page, uint64_t first_line, uint64_t end_line)
{
    // Byte order, as a std::set<std::string> iterates: the two-hash
    // balancing in addPage depends on the order tokens arrive in.
    index_->addPage(page, page_tokens_.sorted(), end_line);
    page_tokens_.clear();
    MITHRIL_ASSERT(data_pages_.empty() ||
                   (data_pages_.back() < page &&
                    page_dir_.back().first_line <= first_line));
    data_pages_.push_back(page);
    page_dir_.push_back(PageSpan{first_line, end_line - first_line});
}

uint64_t
MithriLog::firstLineOf(PageId page) const
{
    auto it = std::lower_bound(data_pages_.begin(), data_pages_.end(),
                               page);
    MITHRIL_ASSERT(it != data_pages_.end() && *it == page);
    return page_dir_[it - data_pages_.begin()].first_line;
}

std::vector<PageId>
MithriLog::pagesForLines(std::span<const uint64_t> lines) const
{
    // Ascending lines visit the directory in order, and page ids ascend
    // with first lines, so the output comes out sorted.
    std::vector<PageId> pages;
    for (uint64_t line : lines) {
        auto it = std::upper_bound(
            page_dir_.begin(), page_dir_.end(), line,
            [](uint64_t l, const PageSpan &span) {
                return l < span.first_line;
            });
        if (it == page_dir_.begin()) {
            continue;
        }
        --it;
        if (line < it->first_line + it->line_count) {
            PageId page = data_pages_[it - page_dir_.begin()];
            if (pages.empty() || pages.back() != page) {
                pages.push_back(page);
            }
        }
    }
    return pages;
}

Status
MithriLog::sealPendingPage()
{
    MITHRIL_ASSERT(!encoder_.pages().empty());
    compress::Bytes page = std::move(encoder_.pages().back());
    encoder_.pages().pop_back();

    // Commit protocol (order is the crash-safety argument):
    //   1. journal layout exists (lazy format on the first commit);
    //   2. program the data page;
    //   3. journal the commit record, whose barrier is the ack point —
    //      a crash before it loses only unacknowledged lines, a crash
    //      after it loses nothing;
    //   4. index the page (unjournaled: the index is rebuilt from
    //      committed data pages at recovery).
    obs::StageTimer commit_timer(&stages_.journal_commit);
    uint64_t commit_start_ps = ssd_.elapsed().ps();
    Status st = Status::ok();
    if (!journal_.formatted()) {
        st = journal_.format();
    }
    PageId id = storage::kInvalidPage;
    if (st.isOk()) {
        id = ssd_.allocate();
        st = ssd_.writePage(id, page);
    }
    if (st.isOk()) {
        st = journal_.appendPageCommit(
            id, crc32(page.data(), page.size()), lines_, raw_bytes_);
    }
    SimTime commit_busy =
        SimTime::picoseconds(ssd_.elapsed().ps() - commit_start_ps);
    commit_timer.setSimDuration(commit_busy);
    commit_timer.end();
    if (!st.isOk()) {
        dead_ = true;
        return st;
    }
    uint64_t first_line = committed_lines_;
    committed_lines_ = lines_;
    committed_raw_ = raw_bytes_;
    indexPage(id, first_line, lines_);
    counters_.pages_sealed->add();
    counters_.lzah_bytes_out->add(storage::kPageSize);
    if (config_.checkpoint_every_pages > 0 &&
        data_pages_.size() % config_.checkpoint_every_pages == 0) {
        // The page above is already acknowledged (its barrier passed);
        // a failure below is a device death, never a lost ack.
        MITHRIL_RETURN_IF_ERROR(runCheckpoint());
    }
    return Status::ok();
}

Status
MithriLog::flush()
{
    if (dead_) {
        return Status::unavailable(
            "device lost power; recover() the image on a fresh system");
    }
    encoder_.flush();
    if (!encoder_.pages().empty()) {
        MITHRIL_RETURN_IF_ERROR(sealPendingPage());
    }
    index_->flush();
    typed_index_->flush();
    if (counters_.lzah_ratio == nullptr) {
        // Resolved by the first flush, so a store that never flushed
        // publishes no ratio.
        counters_.lzah_ratio = &metrics_->gauge("lzah.ratio");
    }
    counters_.lzah_ratio->set(compressionRatio());
    return Status::ok();
}

Status
MithriLog::seal()
{
    if (sealed_) {
        return Status::ok(); // idempotent
    }
    if (dead_) {
        return Status::unavailable(
            "device lost power; recover() the image on a fresh system");
    }
    obs::Span span = tracer_->span("ingest.seal", "core");
    MITHRIL_RETURN_IF_ERROR(flush());
    if (journal_.formatted()) {
        Status st = journal_.appendSeal(lines_, raw_bytes_);
        if (!st.isOk()) {
            dead_ = true;
            return st;
        }
    }
    // An empty store never formatted a journal; sealing it is purely
    // an in-memory transition (recovery of an empty device is a no-op).
    sealed_ = true;
    return Status::ok();
}

Status
MithriLog::checkpoint()
{
    if (recovered_) {
        // A recovered mount is read-only and its journal cursor is not
        // live; reopen() first, then checkpoint the writable store.
        return Status::failedPrecondition(
            "recovered store is read-only; reopen() before checkpoint");
    }
    if (dead_) {
        return Status::unavailable(
            "device lost power; recover() the image on a fresh system");
    }
    // Commit everything the caller has handed over first, so the
    // snapshot covers the full acknowledged prefix at the truncation.
    // A sealed store has nothing pending by construction; checkpoint
    // is still allowed — it is maintenance (bounding mount replay for
    // an archived image), not mutation, and the seal survives it.
    if (!sealed_) {
        MITHRIL_RETURN_IF_ERROR(flush());
    }
    return runCheckpoint();
}

Status
MithriLog::runCheckpoint()
{
    if (!journal_.formatted()) {
        // Nothing was ever committed: no chain to truncate, no segments
        // worth cleaning. Succeeding as a no-op keeps the policy
        // trigger and the CLI path trivially correct on empty stores.
        return Status::ok();
    }
    obs::Span span = tracer_->span("checkpoint", "core");
    obs::Span truncate_span =
        tracer_->span("checkpoint.truncate", "core");
    Status st = journal_.checkpoint(sealed_);
    truncate_span.end();
    if (!st.isOk()) {
        // A cut inside the protocol is crash-safe on the media (replay
        // lands on the old or the new superblock), but the in-memory
        // cursor no longer matches it.
        dead_ = true;
        return st;
    }
    obs::Span clean_span = tracer_->span("checkpoint.clean", "core");
    st = cleanSegments();
    clean_span.end();
    if (!st.isOk()) {
        dead_ = true;
        return st;
    }
    updateStorageGauges();
    span.end();
    return Status::ok();
}

Status
MithriLog::cleanSegments()
{
    storage::PageStore &store = ssd_.store();
    obs::Counter &migrations = metrics_->counter("storage.migrations");
    obs::Counter &retries =
        metrics_->counter("storage.migration_retries");
    // Highest cold segment first: destinations are strictly below the
    // victim, so a migrated page can never land back in it and every
    // pass monotonically drains the top of the slot array.
    for (uint64_t seg = store.segmentCount(); seg-- > 0;) {
        uint64_t live = store.segmentLive(seg);
        if (live == 0 || live * 2 > storage::kSegmentPages) {
            continue; // hot (or already drained): not worth the copies
        }
        uint64_t seg_base = seg * storage::kSegmentPages;
        for (PageId id = 0; live > 0 && id < store.pageCount(); ++id) {
            uint64_t src_slot = store.physicalSlot(id);
            if (src_slot == storage::kUnmappedSlot ||
                src_slot / storage::kSegmentPages != seg) {
                continue;
            }
            uint64_t dst_slot = 0;
            if (!store.allocatePhysicalBelow(seg_base, &dst_slot)) {
                // No free slot below the victim: this pass cannot shrink
                // the device further. Nothing is half-moved.
                return Status::ok();
            }
            std::span<const uint8_t> src;
            MITHRIL_RETURN_IF_ERROR(store.read(id, &src));
            // Stable copy of intent: the fault plan may tear the
            // program, and the verify must compare against what the
            // cleaner meant to write, not what landed.
            std::vector<uint8_t> copy(src.begin(), src.end());
            uint32_t crc = crc32(copy.data(), copy.size());
            ssd_.chargeOverlappedRead(1, Link::kInternal);
            // Copy -> journal the intent -> barrier -> verify -> remap.
            // The map points at the old slot until the verify passes,
            // so no window in this protocol loses acknowledged data.
            Status st = ssd_.writePhysical(dst_slot, copy);
            if (st.isOk()) {
                st = journal_.appendMigrate(id, crc, src_slot, dst_slot);
            }
            if (!st.isOk()) {
                return st; // power cut: the device is dead
            }
            bool verified = false;
            for (int attempt = 0; attempt < 2 && !verified; ++attempt) {
                if (attempt > 0) {
                    retries.add();
                    MITHRIL_RETURN_IF_ERROR(
                        ssd_.writePhysical(dst_slot, copy));
                }
                std::span<const uint8_t> back;
                MITHRIL_RETURN_IF_ERROR(
                    ssd_.readPhysical(dst_slot, &back));
                verified = crc32(back.data(), back.size()) == crc;
            }
            if (!verified) {
                // Ladder rung 2: abandon the pass. The page stays where
                // it was (live, covered by its journaled CRC); the next
                // checkpoint re-schedules the segment.
                store.freePhysical(dst_slot);
                return Status::ok();
            }
            migrations.add();
            MITHRIL_RETURN_IF_ERROR(store.remap(id, dst_slot));
            --live;
        }
    }
    return Status::ok();
}

void
MithriLog::updateStorageGauges()
{
    const storage::PageStore &store = ssd_.store();
    metrics_->gauge("storage.segments_live")
        .set(static_cast<double>(store.segmentsLive()));
    metrics_->gauge("storage.segments_freed")
        .set(static_cast<double>(store.segmentsFreed()));
}

double
MithriLog::compressionRatio() const
{
    uint64_t compressed = data_pages_.size() * storage::kPageSize;
    if (compressed == 0) {
        return 0.0;
    }
    return static_cast<double>(raw_bytes_) /
           static_cast<double>(compressed);
}

namespace {

/** The planner skips index traversal when the O(1) entry-counter
 *  estimate says a batch would touch at least this fraction of the
 *  data pages anyway: the paper's own example saw an index reduce
 *  reads by only 30% on a common-token query, and traversal is then
 *  pure overhead. */
constexpr double kPlannerScanThreshold = 0.85;

/** Intersection of two ascending id lists (page ids or line numbers). */
std::vector<uint64_t>
intersectSorted(const std::vector<uint64_t> &a,
                const std::vector<uint64_t> &b)
{
    std::vector<uint64_t> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
}

} // namespace

Status
MithriLog::run(const query::Query &q, QueryResult *out)
{
    return runBatch(std::span(&q, 1), out);
}

Status
MithriLog::run(std::string_view query_text, QueryResult *out)
{
    query::Query q;
    MITHRIL_RETURN_IF_ERROR(query::parseQuery(query_text, &q));
    return run(q, out);
}

Status
MithriLog::runBatch(std::span<const query::Query> queries, QueryResult *out)
{
    return runPipeline(queries, /*use_index=*/true, out);
}

Status
MithriLog::runFullScan(std::span<const query::Query> queries,
                       QueryResult *out)
{
    return runPipeline(queries, /*use_index=*/false, out);
}

Status
MithriLog::runPipeline(std::span<const query::Query> queries,
                       bool use_index, QueryResult *out)
{
    *out = QueryResult{};
    if (queries.empty()) {
        return Status::invalidArgument("empty query batch");
    }
    WallTimer wall;
    obs::Span qspan = tracer_->span("query", "core");
    counters_.queries->add(queries.size());
    uint64_t retries_before = counters_.ssd_read_retries->value();
    QueryBreakdown &b = out->breakdown;
    // The filter pipelines hash whole tokens and cannot compare CIDR
    // blocks or time windows, so a batch carrying typed predicates is
    // evaluated exactly on the host and its offload is the pruning
    // (DESIGN.md §15).
    bool typed = false;
    for (const query::Query &q : queries) {
        typed = typed || q.hasTypedPredicates();
        b.typed_predicates += q.typedPredicateCount();
    }
    if (typed) {
        counters_.typed_queries->add(queries.size());
    }

    // Plan: the index's candidate pages, or every data page.
    std::span<const PageId> pages = data_pages_;
    Candidates candidates;
    bool prune = use_index && (typed ? config_.use_typed_index
                                     : !plannerPrefersScan(queries));
    if (prune) {
        obs::Span lookup = tracer_->span(
            typed ? "query.typed_lookup" : "query.index_lookup", "core");
        candidates = prunePages(queries, out);
        lookup.setSimDuration(b.index_time);
        lookup.end();
        ssd_.resetClock();
        if (candidates.integrity_lost) {
            // The candidate set cannot be trusted to be complete: scan
            // every page rather than silently miss matches. (The
            // pruning traffic already spent stays in the breakdown.)
            if (typed) {
                b.degraded_typed_scan = true;
                counters_.degraded_typed_scans->add();
            } else {
                b.degraded_index_scan = true;
                counters_.degraded_index_scans->add();
            }
            obs::Span degrade = tracer_->span(
                typed ? "query.degraded_typed_scan"
                      : "query.degraded_index_scan",
                "core");
        } else if (!candidates.all_pages) {
            pages = candidates.pages;
            b.candidate_pages = pages.size();
            counters_.candidate_pages->add(pages.size());
        }
    } else if (use_index && !typed) {
        b.planned_full_scan = true;
        obs::Span plan = tracer_->span("query.plan_full_scan", "core");
        counters_.planner_full_scans->add();
    }

    // Stage and evaluate.
    Status st;
    if (typed) {
        st = hostScan(pages, queries, out);
        b.total_time = b.index_time + b.storage_time +
                       ssd_.config().read_latency;
    } else {
        st = execute(pages, queries, out);
    }

    b.pages_total = data_pages_.size();
    b.read_retries = counters_.ssd_read_retries->value() - retries_before;
    b.wall_seconds = wall.seconds();
    out->planned_full_scan = b.planned_full_scan;
    qspan.setSimDuration(b.total_time);
    qspan.end();
    return st;
}

MithriLog::Candidates
MithriLog::prunePages(std::span<const query::Query> queries,
                      QueryResult *out)
{
    // Different terms' chains are independent and the device overlaps
    // them across channels (~256 outstanding commands): the modeled
    // index time is the slowest single chain, or the serial sum the
    // meter records divided by kOverlap when that is larger.
    constexpr uint64_t kOverlap = 32;
    SimTime max_lookup;
    uint64_t sum_ps = 0;
    auto timed = [&](auto lookup) {
        ssd_.resetClock();
        auto result = lookup();
        SimTime elapsed = ssd_.elapsed();
        max_lookup = SimTime::max(max_lookup, elapsed);
        sum_ps += elapsed.ps();
        return result;
    };

    Candidates c;
    std::set<PageId> pages;
    QueryBreakdown &b = out->breakdown;
    for (const query::Query &q : queries) {
        for (const query::IntersectionSet &set : q.sets()) {
            // Typed posting lists intersect to a line set, which the
            // sealed-page directory maps to data pages.
            std::vector<uint64_t> lines;
            bool have_lines = false;
            for (const query::Term &t : set.terms) {
                if (!t.isTyped()) {
                    continue;
                }
                typed::LookupResult lr =
                    timed([&] { return typed_index_->lookup(t.typed); });
                b.typed_index_pages += lr.pages_read;
                b.typed_index_bytes += lr.bytes_read;
                c.integrity_lost = c.integrity_lost || lr.integrity_lost;
                lines = have_lines ? intersectSorted(lines, lr.lines)
                                   : std::move(lr.lines);
                have_lines = true;
            }
            std::vector<PageId> set_pages;
            bool have_pages = have_lines;
            if (have_lines) {
                set_pages = pagesForLines(lines);
            }
            // Then the positive keywords' index chains (read order
            // first, Section 6.3).
            for (const query::Term &t : set.terms) {
                if (t.negated || t.isTyped()) {
                    continue;
                }
                std::vector<PageId> token_pages = timed([&] {
                    return index_->lookup(t.token, &c.integrity_lost);
                });
                set_pages = have_pages
                                ? intersectSorted(set_pages, token_pages)
                                : std::move(token_pages);
                have_pages = true;
                if (set_pages.empty()) {
                    break;
                }
            }
            if (!have_pages) {
                // A pure-negative set can occur anywhere: the index
                // cannot prune on absence (Section 7.5's slow cases).
                c.all_pages = true;
            } else {
                pages.insert(set_pages.begin(), set_pages.end());
            }
        }
    }
    b.index_time = SimTime::max(
        max_lookup, SimTime::picoseconds(sum_ps / kOverlap));
    c.pages.assign(pages.begin(), pages.end());
    return c;
}

Status
MithriLog::stagePages(std::span<const PageId> pages, Link link,
                      std::vector<compress::ByteView> *views,
                      std::vector<compress::Bytes> *storage,
                      QueryResult *out, std::vector<PageId> *staged_ids)
{
    fault::FaultPlan *plan = ssd_.faultPlan();
    views->reserve(pages.size());
    staged_ids->reserve(pages.size());
    if (plan == nullptr) {
        // Unfaulted hot path: zero-copy views straight out of the
        // store, one bulk overlapped charge. A CRC failure here is
        // persistent damage (no plan means a re-read returns the same
        // bytes), so the page is dropped, not retried.
        for (PageId id : pages) {
            std::span<const uint8_t> view;
            if (!ssd_.store().read(id, &view).isOk() ||
                !compress::lzahVerifyPage(view).isOk()) {
                counters_.crc_failed_pages->add();
                counters_.pages_dropped->add();
                ++out->breakdown.pages_dropped;
                continue;
            }
            views->push_back(view);
            staged_ids->push_back(id);
        }
        ssd_.chargeOverlappedRead(pages.size(), link);
        return Status::ok();
    }
    // Fault plan attached: page-at-a-time reads so every page passes
    // the injection + retry machinery. A page that reads "cleanly" but
    // fails its LZAH CRC (silent corruption past the device's ECC)
    // spends the same retry budget on re-reads before being dropped.
    unsigned budget = plan->config().max_retries;
    storage->reserve(pages.size());
    for (PageId id : pages) {
        compress::Bytes buf;
        if (!ssd_.readOverlapped(id, link, &buf).isOk()) {
            counters_.pages_dropped->add();
            ++out->breakdown.pages_dropped;
            continue;
        }
        bool ok = compress::lzahVerifyPage(buf).isOk();
        if (!ok) {
            counters_.crc_failed_pages->add();
        }
        for (unsigned r = 0; !ok && r < budget; ++r) {
            compress::Bytes fresh;
            if (!ssd_.rereadPage(id, link, &fresh).isOk()) {
                break;
            }
            buf = std::move(fresh);
            ok = compress::lzahVerifyPage(buf).isOk();
        }
        if (!ok) {
            counters_.pages_dropped->add();
            ++out->breakdown.pages_dropped;
            continue;
        }
        storage->push_back(std::move(buf));
        staged_ids->push_back(id);
    }
    for (const compress::Bytes &b : *storage) {
        views->push_back(compress::ByteView(b.data(), b.size()));
    }
    return Status::ok();
}

Status
MithriLog::execute(std::span<const PageId> pages,
                   std::span<const query::Query> queries, QueryResult *out)
{
    obs::Span compile_span = tracer_->span("query.compile", "core");
    obs::StageTimer compile_timer(&stages_.query_compile);
    Status compiled = accel_.configure(queries);
    compile_timer.end();
    compile_span.end();
    QueryBreakdown &b = out->breakdown;
    if (compiled.code() == StatusCode::kCapacityExceeded ||
        compiled.code() == StatusCode::kUnsupported) {
        // Software fallback (Section 4.2.1): every page crosses PCIe to
        // the host matcher. Only the storage component is modeled; the
        // CPU side is a measured quantity, reported by the benches that
        // exercise it.
        counters_.query_fallbacks->add();
        b.used_fallback = true;
        obs::Span span = tracer_->span("query.fallback", "core");
        Status scanned = hostScan(data_pages_, queries, out);
        b.total_time = b.index_time + b.storage_time;
        span.setSimDuration(b.storage_time);
        return scanned;
    }
    MITHRIL_RETURN_IF_ERROR(compiled);

    // Streaming and filtering overlap on the device; the spans carry
    // each stage's own modeled cost and the parent query span carries
    // the overlapped total.
    obs::Span stream_span = tracer_->span("query.page_stream", "core");
    uint64_t stage_start_ps = ssd_.elapsed().ps();
    std::vector<compress::ByteView> views;
    std::vector<compress::Bytes> staged;
    std::vector<PageId> staged_ids;
    MITHRIL_RETURN_IF_ERROR(stagePages(pages, Link::kInternal, &views,
                                       &staged, out, &staged_ids));
    // The stream pipelines behind index traversal and filtering, so the
    // reads are metered (ssd.pages_read, link busy) as overlapped. The
    // batch-read model bounds the stage from below; retry/backoff
    // charges under a fault plan can push it higher.
    SimTime stage_busy =
        SimTime::picoseconds(ssd_.elapsed().ps() - stage_start_ps);
    b.storage_time = SimTime::max(
        ssd_.timeBatchRead(pages.size(), Link::kInternal), stage_busy);
    stream_span.setSimDuration(b.storage_time);
    stream_span.end();

    obs::Span filter_span = tracer_->span("query.filter", "core");
    accel::AccelResult ar;
    Status processed = accel_.process(views, accel::Mode::kFilter, &ar);
    filter_span.setSimDuration(ar.computeTime(config_.accel.clock_hz));
    filter_span.end();
    if (processed.code() == StatusCode::kCorruptData ||
        processed.code() == StatusCode::kDataLoss) {
        // The filter pipeline choked on damage the page CRCs did not
        // cover: degrade to the host scan over the staged pages rather
        // than failing the query. The pages re-cross PCIe to the host.
        b.degraded_software_scan = true;
        counters_.degraded_software_scans->add();
        obs::Span degrade =
            tracer_->span("query.degraded_software_scan", "core");
        ssd_.chargeOverlappedRead(views.size(), Link::kExternal);
        Status scanned = hostEvaluate(views, staged_ids, queries, out);
        b.storage_time += ssd_.timeBatchRead(views.size(), Link::kExternal);
        b.total_time = b.index_time + b.storage_time +
                       ssd_.config().read_latency;
        degrade.setSimDuration(b.storage_time);
        return scanned;
    }
    MITHRIL_RETURN_IF_ERROR(processed);

    b.pages_with_matches = ar.pages_with_matches;
    if (b.candidate_pages > 0) {
        // The index nominated @p pages: those without a match are its
        // false positives (plus legitimately empty candidates).
        b.false_positive_pages = pages.size() - ar.pages_with_matches;
        counters_.false_positive_pages->add(b.false_positive_pages);
    }
    out->matched_lines = ar.lines_kept;
    out->lines = std::move(ar.kept);
    // Kept lines come in batch page order; a page's first line comes
    // from the directory once, when its first kept line arrives.
    out->line_numbers.reserve(out->lines.size());
    uint32_t page_index = 0;
    uint64_t first_line = 0;
    for (size_t i = 0; i < out->lines.size(); ++i) {
        const accel::KeptLine &line = out->lines[i];
        if (i == 0 || line.page_index != page_index) {
            page_index = line.page_index;
            first_line = firstLineOf(staged_ids[page_index]);
        }
        out->line_numbers.push_back(first_line + line.line_in_page);
    }
    out->matched_per_query.assign(ar.kept_per_query.begin(),
                                  ar.kept_per_query.begin() +
                                      std::min<size_t>(
                                          queries.size(),
                                          ar.kept_per_query.size()));
    b.pages_scanned = pages.size();
    out->bytes_scanned = ar.decompressed_bytes;
    out->useful_ratio = ar.usefulRatio();

    // Index traversal, data-page streaming, and the filter pipelines
    // all overlap: the index emits page addresses as it discovers them
    // and the accelerator consumes pages as they arrive (Section 6's
    // "fast enough to saturate the accelerator"). The slowest stage
    // paces the query; one read latency covers the un-overlapped first
    // hop.
    b.compute_time = ar.computeTime(config_.accel.clock_hz);
    b.total_time =
        SimTime::max(b.index_time,
                     SimTime::max(b.storage_time, b.compute_time)) +
        ssd_.config().read_latency;
    return Status::ok();
}

Status
MithriLog::hostScan(std::span<const PageId> pages,
                    std::span<const query::Query> queries, QueryResult *out)
{
    uint64_t stage_start_ps = ssd_.elapsed().ps();
    std::vector<compress::ByteView> views;
    std::vector<compress::Bytes> staged;
    std::vector<PageId> staged_ids;
    MITHRIL_RETURN_IF_ERROR(stagePages(pages, Link::kExternal, &views,
                                       &staged, out, &staged_ids));
    SimTime stage_busy =
        SimTime::picoseconds(ssd_.elapsed().ps() - stage_start_ps);
    out->breakdown.storage_time = SimTime::max(
        ssd_.timeBatchRead(pages.size(), Link::kExternal), stage_busy);
    return hostEvaluate(views, staged_ids, queries, out);
}

Status
MithriLog::hostEvaluate(std::span<const compress::ByteView> views,
                        std::span<const PageId> ids,
                        std::span<const query::Query> queries,
                        QueryResult *out)
{
    std::vector<query::SoftwareMatcher> matchers(queries.begin(),
                                                 queries.end());
    out->matched_per_query.assign(queries.size(), 0);

    compress::Bytes text;
    for (size_t v = 0; v < views.size(); ++v) {
        // Staged pages come in ascending id order, which is ingest
        // order, so appending each page's matches keeps the result in
        // line-number order.
        MITHRIL_ASSERT(v == 0 || ids[v - 1] < ids[v]);
        // Decode per page so a mid-page decode failure (structural
        // damage past the CRC) drops that page cleanly.
        text.clear();
        if (!compress::lzahDecodePage(views[v], /*padded=*/false, &text)
                 .isOk()) {
            counters_.pages_dropped->add();
            ++out->breakdown.pages_dropped;
            continue;
        }
        out->bytes_scanned += text.size();
        uint64_t line_no = firstLineOf(ids[v]);
        uint32_t in_page = 0;
        forEachLine(asChars(text), [&](std::string_view line) {
            uint64_t mask = 0;
            bool matched = false;
            for (size_t q = 0; q < matchers.size(); ++q) {
                if (matchers[q].matches(line)) {
                    matched = true;
                    ++out->matched_per_query[q];
                    if (q < 64) {
                        mask |= 1ull << q;
                    }
                }
            }
            if (matched) {
                ++out->matched_lines;
                out->lines.push_back(accel::KeptLine{
                    std::string(line), mask, static_cast<uint32_t>(v),
                    in_page});
                out->line_numbers.push_back(line_no);
            }
            ++line_no;
            ++in_page;
        });
    }
    out->breakdown.pages_scanned = views.size();
    return Status::ok();
}

bool
MithriLog::plannerPrefersScan(std::span<const query::Query> queries) const
{
    if (data_pages_.empty()) {
        return false;
    }
    // A batch needs the union of its sets' candidates; each set's
    // candidate count is bounded by its most selective positive token.
    // All estimates come from the O(1) in-memory entry counters.
    uint64_t union_bound = 0;
    for (const query::Query &q : queries) {
        for (const query::IntersectionSet &set : q.sets()) {
            uint64_t set_bound = ~0ull;
            bool has_positive = false;
            for (const query::Term &t : set.terms) {
                if (t.negated) {
                    continue;
                }
                has_positive = true;
                set_bound = std::min(set_bound,
                                     index_->estimatePages(t.token));
            }
            if (!has_positive) {
                return true;  // pure-negative set: full scan anyway
            }
            union_bound += set_bound;
            if (union_bound >= data_pages_.size()) {
                break;
            }
        }
    }
    double fraction = static_cast<double>(
                          std::min<uint64_t>(union_bound,
                                             data_pages_.size())) /
                      static_cast<double>(data_pages_.size());
    return fraction >= kPlannerScanThreshold;
}

namespace {
/** Raw device dump header (saveDeviceImage / recover). */
constexpr uint32_t kDeviceMagic = 0x5645444d;  // "MDEV"
constexpr uint32_t kDeviceVersion = 1;
} // namespace

Status
MithriLog::saveDeviceImage(const std::string &path) const
{
    std::vector<uint8_t> header;
    putLe<uint32_t>(header, kDeviceMagic);
    putLe<uint32_t>(header, kDeviceVersion);
    uint64_t pages = ssd_.store().pageCount();
    putLe<uint64_t>(header, pages);

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        return Status::invalidArgument("cannot open " + path);
    }
    bool ok =
        std::fwrite(header.data(), 1, header.size(), f) == header.size();
    static const uint8_t kZeroPage[storage::kPageSize] = {};
    for (PageId p = 0; ok && p < pages; ++p) {
        if (!ssd_.store().contains(p)) {
            // Freed id: dumped as a zero page. The raw dump is taken in
            // logical order — the translation map is device metadata,
            // like a real FTL's table — so physical migration and
            // reclamation are invisible to crash recovery; replay never
            // references a freed id, and recover() sweeps the garbage.
            ok = std::fwrite(kZeroPage, 1, sizeof kZeroPage, f) ==
                 sizeof kZeroPage;
            continue;
        }
        std::span<const uint8_t> view;
        ok = ssd_.store().read(p, &view).isOk() &&
             std::fwrite(view.data(), 1, view.size(), f) == view.size();
    }
    if (std::fclose(f) != 0 || !ok) {
        return Status::internal("short write to " + path);
    }
    return Status::ok();
}

Status
MithriLog::recover(const std::string &path)
{
    if (lines_ != 0 || ssd_.store().pageCount() != 0) {
        return Status::invalidArgument("recover requires a fresh system");
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        return Status::invalidArgument("cannot open " + path);
    }
    std::vector<uint8_t> blob;
    uint8_t chunk[65536];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
        blob.insert(blob.end(), chunk, chunk + n);
    }
    std::fclose(f);
    if (blob.size() < 16 ||
        getLe<uint32_t>(blob.data()) != kDeviceMagic ||
        getLe<uint32_t>(blob.data() + 4) != kDeviceVersion) {
        return Status::corruptData("bad device image header");
    }
    uint64_t pages = getLe<uint64_t>(blob.data() + 8);
    if (pages > (blob.size() - 16) / storage::kPageSize) {
        return Status::corruptData("device image pages truncated");
    }
    // Host-side restore of the NAND contents: not metered device
    // traffic (the bytes never crossed the modeled links).
    for (uint64_t p = 0; p < pages; ++p) {
        PageId id = ssd_.allocate();
        MITHRIL_RETURN_IF_ERROR(ssd_.store().write(
            id, std::span<const uint8_t>(
                    blob.data() + 16 + p * storage::kPageSize,
                    storage::kPageSize)));
    }
    ssd_.resetClock();

    obs::Span span = tracer_->span("recover", "core");

    // Step 1: replay the journal (metered chained reads).
    obs::Span replay_span = tracer_->span("recover.journal_replay",
                                          "core");
    storage::Journal::ReplayResult rr;
    Status replayed = journal_.replay(&rr);
    replay_span.end();
    MITHRIL_RETURN_IF_ERROR(replayed);

    // Step 2: verify every committed data page against its journaled
    // CRC and decode it. Verification failures (a lying device tore or
    // dropped an acked program) cut the recovered dataset to the
    // longest clean prefix — cumulative line counts only make sense
    // for a prefix, and a mid-stream hole could turn into phantom or
    // missing matches silently.
    obs::Span verify_span = tracer_->span("recover.verify_pages",
                                          "core");
    struct Survivor {
        storage::Journal::CommittedPage cp;
        compress::Bytes text;
    };
    std::vector<Survivor> survivors;
    survivors.reserve(rr.pages.size());
    for (const storage::Journal::CommittedPage &cp : rr.pages) {
        compress::Bytes buf;
        if (!ssd_.readOverlapped(cp.page, Link::kInternal, &buf)
                 .isOk() ||
            crc32(buf.data(), buf.size()) != cp.crc ||
            !compress::lzahVerifyPage(buf).isOk()) {
            break;
        }
        compress::Bytes text;
        if (!compress::lzahDecodePage(buf, /*padded=*/false, &text)
                 .isOk()) {
            break;
        }
        survivors.push_back(Survivor{cp, std::move(text)});
    }
    uint64_t discarded = rr.pages.size() - survivors.size();
    verify_span.end();

    // Step 2b: mark-sweep space reclamation. The journal footprint the
    // replay walked (chain + snapshot pages), the superblock slots, and
    // the surviving data pages are the only pages the recovered store
    // can ever reference. Everything else — the crashed store's index
    // pages, pages freed before the crash, data pages past the
    // verification cut — is garbage the mount reclaims, so the index
    // rebuild below reuses the slots deterministically.
    obs::Span sweep_span = tracer_->span("recover.sweep", "core");
    std::vector<bool> live(ssd_.store().pageCount(), false);
    for (PageId p = 0; p < 2 && p < live.size(); ++p) {
        live[p] = true; // superblock slots
    }
    for (PageId p : rr.chain_pages) {
        live[p] = true;
    }
    for (PageId p : rr.snapshot_pages) {
        live[p] = true;
    }
    for (const Survivor &s : survivors) {
        live[s.cp.page] = true;
    }
    uint64_t swept = 0;
    for (PageId p = 0; p < live.size(); ++p) {
        if (!live[p]) {
            MITHRIL_RETURN_IF_ERROR(ssd_.store().free(p));
            ++swept;
        }
    }
    sweep_span.end();

    // Step 3: rebuild the index from the surviving pages (the index is
    // unjournaled by design; committed data pages are the source of
    // truth).
    obs::Span index_span = tracer_->span("recover.index_rebuild",
                                         "core");
    uint64_t rebuilt_lines = 0;
    for (const Survivor &s : survivors) {
        uint64_t line_no = rebuilt_lines;
        forEachLine(asChars(s.text), [&](std::string_view line) {
            indexLine(line, line_no++);
        });
        // The commit record's cumulative line count is the page's end
        // line, exactly the count ingest indexed the page with.
        indexPage(s.cp.page, rebuilt_lines, s.cp.lines);
        rebuilt_lines = s.cp.lines;
    }
    index_->flush();
    typed_index_->flush();
    index_span.end();

    if (!survivors.empty()) {
        lines_ = survivors.back().cp.lines;
        raw_bytes_ = survivors.back().cp.raw_bytes;
    }
    committed_lines_ = lines_;
    committed_raw_ = raw_bytes_;
    // A recovered store is read-only until reopen(): the journal cursor
    // died with the device, and only a fresh generation (Journal::
    // reopen) can accept new records. Stash the replay summary it
    // needs; the survivors (data_pages_) are a prefix of its pages.
    sealed_ = true;
    recovered_ = true;
    journal_sealed_ = rr.sealed;
    reopen_rr_ = std::move(rr);

    metrics_->counter("recovery.journal_pages_replayed")
        .add(reopen_rr_.journal_pages);
    metrics_->counter("recovery.records_replayed")
        .add(reopen_rr_.records);
    metrics_->counter("recovery.pages_committed")
        .add(reopen_rr_.pages.size());
    metrics_->counter("recovery.pages_discarded").add(discarded);
    metrics_->counter("recovery.pages_swept").add(swept);
    metrics_->counter("recovery.lines_recovered").add(lines_);
    // Total logical records this mount replayed (snapshot + tail): the
    // quantity the checkpoint bounds, exposed for the bounded-replay
    // gates.
    metrics_->gauge("recovery.replay_records")
        .set(static_cast<double>(reopen_rr_.records));
    metrics_->gauge("journal.generation")
        .set(static_cast<double>(reopen_rr_.generation));
    updateStorageGauges();
    // mithril-lint: allow(adhoc-latency) one-shot mount-time total, not a latency sample
    metrics_->counter("recovery.modeled_ps").add(ssd_.elapsed().ps());
    span.end();
    return Status::ok();
}

Status
MithriLog::reopen()
{
    if (dead_) {
        return Status::unavailable(
            "device lost power; recover() the image on a fresh system");
    }
    if (!recovered_) {
        return Status::failedPrecondition(
            "reopen() requires a store produced by recover()");
    }
    if (journal_sealed_) {
        return Status::failedPrecondition(
            "store was sealed; seal is terminal across recovery");
    }
    obs::Span span = tracer_->span("recover.reopen", "core");
    // An empty recovered device (crash before the first commit) has no
    // journal to continue: leave it unformatted and let the first
    // commit lay it out lazily, exactly like a fresh store.
    if (ssd_.store().pageCount() > 0) {
        Status st = journal_.reopen(reopen_rr_, data_pages_.size());
        if (!st.isOk()) {
            // The reopen writes are faultable device programs: a power
            // cut here is a real crash window (the pre-reopen state
            // replays unchanged until the new superblock lands).
            dead_ = true;
            return st;
        }
    }
    sealed_ = false;
    recovered_ = false;
    // Reopen reclaims the replayed journal footprint; republish the
    // occupancy it changed.
    updateStorageGauges();
    span.end();
    return Status::ok();
}

std::string
QueryBreakdown::toJson() const
{
    std::string out;
    obs::JsonWriter w(&out);
    w.beginObject();
    w.key("index_ps");
    w.value(static_cast<uint64_t>(index_time.ps()));
    w.key("storage_ps");
    w.value(static_cast<uint64_t>(storage_time.ps()));
    w.key("compute_ps");
    w.value(static_cast<uint64_t>(compute_time.ps()));
    w.key("total_ps");
    w.value(static_cast<uint64_t>(total_time.ps()));
    w.key("candidate_pages");
    w.value(candidate_pages);
    w.key("pages_scanned");
    w.value(pages_scanned);
    w.key("pages_total");
    w.value(pages_total);
    w.key("pages_with_matches");
    w.value(pages_with_matches);
    w.key("false_positive_pages");
    w.value(false_positive_pages);
    w.key("used_fallback");
    w.value(used_fallback);
    w.key("planned_full_scan");
    w.value(planned_full_scan);
    w.key("degraded_index_scan");
    w.value(degraded_index_scan);
    w.key("degraded_software_scan");
    w.value(degraded_software_scan);
    w.key("pages_dropped");
    w.value(pages_dropped);
    w.key("read_retries");
    w.value(read_retries);
    w.key("typed_predicates");
    w.value(typed_predicates);
    w.key("typed_index_pages");
    w.value(typed_index_pages);
    w.key("typed_index_bytes");
    w.value(typed_index_bytes);
    w.key("degraded_typed_scan");
    w.value(degraded_typed_scan);
    w.key("wall_seconds");
    w.value(wall_seconds);
    w.endObject();
    return out;
}

} // namespace mithril::core
