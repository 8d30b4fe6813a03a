#include "perfbench/layers.h"

#include <chrono>
#include <numeric>
#include <set>
#include <string>

#include "accel/accelerator.h"
#include "common/bits.h"
#include "common/hash.h"
#include "common/text.h"
#include "compress/lzah.h"
#include "index/inverted_index.h"
#include "obs/trace.h"
#include "perfbench/workloads.h"
#include "query/matcher.h"
#include "query/parser.h"
#include "storage/page.h"
#include "storage/ssd_model.h"
#include "typed/extract.h"

namespace mithril::perfbench {

namespace {

/** Mounts the mount pass times; the recover.* metrics are medians. */
constexpr int kMounts = 3;

/** Sum of @p ms_samples, in seconds. */
double
sumSeconds(const std::vector<double> &ms_samples)
{
    return std::accumulate(ms_samples.begin(), ms_samples.end(), 0.0) /
           1e3;
}

/** MB/s of @p bytes over the summed duration of spans @p name. */
double
rateMbS(const SpanLog &spans, std::string_view name, uint64_t bytes)
{
    double s = sumSeconds(spans.durationsMs(name));
    return s > 0.0 ? static_cast<double>(bytes) / 1e6 / s : 0.0;
}

/** Mean duration in µs of spans @p name. */
double
meanUs(const SpanLog &spans, std::string_view name)
{
    return mean(spans.durationsMs(name)) * 1e3;
}

/** Median duration in ms of spans @p name. */
double
medianMs(const SpanLog &spans, std::string_view name)
{
    return median(spans.durationsMs(name));
}

/** Quantile @p q of a wall-time stage histogram, in ms. */
double
histMs(obs::MetricsRegistry &m, std::string_view name, double q)
{
    return static_cast<double>(m.quantileHistogram(name).quantile(q)) / 1e6;
}

std::span<const uint8_t>
readPage(core::MithriLog &store, storage::PageId id)
{
    std::span<const uint8_t> page;
    Status st = store.ssd().store().read(id, &page);
    return st.isOk() ? page : std::span<const uint8_t>();
}

/** Write path: tokenize, typed extraction, LZAH encode, CRC over the
 *  store's data pages, index insertion into a fresh index. */
void
writePath(const LayerInputs &in, uint64_t raw, SpanLog *spans,
          Report *report, uint64_t *checksum)
{
    core::MithriLog &store = *in.store;
    for (std::string_view seg : in.segments) {
        ScopedSpan span(spans, "common.tokenize");
        forEachLine(seg, [&](std::string_view line) {
            forEachToken(line, [&](std::string_view tok, uint32_t) {
                *checksum += tok.size();
                return true;
            });
        });
    }
    for (std::string_view seg : in.segments) {
        ScopedSpan span(spans, "typed.extract");
        forEachLine(seg, [&](std::string_view line) {
            typed::extractLine(line, [&](const typed::TypedKey &k) {
                *checksum += k.bytes.size();
            });
        });
    }
    compress::LzahPageEncoder encoder;
    for (std::string_view seg : in.segments) {
        ScopedSpan span(spans, "compress.lzah_encode");
        forEachLine(seg, [&](std::string_view line) {
            *checksum += static_cast<uint64_t>(encoder.addLine(line));
        });
    }
    encoder.flush();

    uint64_t crc_bytes = 0;
    for (storage::PageId id : store.dataPages()) {
        std::span<const uint8_t> page = readPage(store, id);
        ScopedSpan span(spans, "common.crc32");
        *checksum += crc32(page.data(), page.size());
        crc_bytes += page.size();
    }

    // Index insertion of the encoder's pages into a fresh index, with
    // each page's distinct token set (decoding is untimed set-up).
    storage::SsdModel ssd;
    index::InvertedIndex index(&ssd, store.index().config());
    uint64_t lines = 0;
    for (const compress::Bytes &page : encoder.pages()) {
        compress::Bytes text;
        if (!compress::lzahDecodePage(page, false, &text).isOk()) {
            report->fail("layer pass: encoder page does not decode");
            return;
        }
        std::set<std::string, std::less<>> tokens;
        forEachLine(asChars(text), [&](std::string_view line) {
            ++lines;
            forEachToken(line, [&](std::string_view tok, uint32_t) {
                tokens.emplace(tok);
                return true;
            });
        });
        std::vector<std::string_view> views(tokens.begin(), tokens.end());
        storage::PageId id = ssd.allocate();
        ScopedSpan span(spans, "index.add_page");
        index.addPage(id, views, lines);
    }

    report->metric("common.tokenize_mb_s",
                   rateMbS(*spans, "common.tokenize", raw), "MB/s");
    report->metric("typed.extract_mb_s",
                   rateMbS(*spans, "typed.extract", raw), "MB/s");
    report->metric("compress.lzah_encode_mb_s",
                   rateMbS(*spans, "compress.lzah_encode", raw), "MB/s");
    report->metric("common.crc32_mb_s",
                   rateMbS(*spans, "common.crc32", crc_bytes), "MB/s");
    report->metric("index.add_page_us", meanUs(*spans, "index.add_page"),
                   "us");
}

/** Read path: parse, accelerator compile, index and typed lookups,
 *  LZAH decode, the filter over candidate pages, host matching. */
void
readPath(const LayerInputs &in, SpanLog *spans, Report *report,
         uint64_t *checksum)
{
    core::MithriLog &store = *in.store;
    const std::vector<LibQuery> &library = *in.library;
    std::vector<query::Query> parsed(library.size());
    for (size_t i = 0; i < library.size(); ++i) {
        ScopedSpan span(spans, "query.parse");
        *checksum += query::parseQuery(library[i].text, &parsed[i]).isOk();
    }

    accel::Accelerator accel(store.accelerator().config());
    for (const query::Query &q : parsed) {
        ScopedSpan span(spans, "accel.configure");
        *checksum += accel.configure(q).isOk();
    }

    for (const query::Query &q : parsed) {
        for (const query::IntersectionSet &set : q.sets()) {
            for (const query::Term &term : set.terms) {
                if (term.isTyped()) {
                    ScopedSpan span(spans, "typed.lookup");
                    *checksum += store.typedIndex().lookup(term.typed)
                                     .lines.size();
                } else if (!term.negated) {
                    ScopedSpan span(spans, "index.lookup");
                    *checksum += store.index().lookup(term.token).size();
                }
            }
        }
    }

    std::string text;
    uint64_t decoded = 0;
    for (storage::PageId id : store.dataPages()) {
        std::span<const uint8_t> page = readPage(store, id);
        compress::Bytes out;
        ScopedSpan span(spans, "compress.lzah_decode");
        *checksum += compress::lzahDecodePage(page, false, &out).isOk();
        span.end();
        decoded += out.size();
        text.append(asChars(out));
    }

    // The filter over each template query's staged candidate pages.
    uint64_t filtered = 0;
    for (size_t i = 0; i < library.size(); ++i) {
        if (library[i].cls != QueryClass::kSelective) {
            continue;
        }
        std::vector<std::string> positives;
        for (const query::Term &t : parsed[i].sets().front().terms) {
            if (!t.negated && !t.isTyped()) {
                positives.push_back(t.token);
            }
        }
        std::vector<compress::ByteView> views;
        for (storage::PageId id : store.index().lookupAll(positives)) {
            views.push_back(readPage(store, id));
        }
        if (!accel.configure(parsed[i]).isOk()) {
            continue;
        }
        accel::AccelResult res;
        ScopedSpan span(spans, "accel.process");
        *checksum += accel.process(views, accel::Mode::kFilter, &res).isOk();
        span.end();
        filtered += res.decompressed_bytes;
    }

    // Host matching over the decoded pages, one query per class.
    uint64_t matched_bytes = 0;
    std::set<QueryClass> seen;
    for (size_t i = 0; i < library.size(); ++i) {
        if (!seen.insert(library[i].cls).second) {
            continue;
        }
        query::SoftwareMatcher matcher(parsed[i]);
        ScopedSpan span(spans, "query.host_match");
        *checksum += matcher.filterLines(text).size();
        matched_bytes += text.size();
    }

    report->metric("query.parse_us", meanUs(*spans, "query.parse"), "us");
    report->metric("accel.compile_us", meanUs(*spans, "accel.configure"),
                   "us");
    report->metric("index.lookup_us", meanUs(*spans, "index.lookup"), "us");
    report->metric("typed.lookup_us", meanUs(*spans, "typed.lookup"), "us");
    report->metric("compress.lzah_decode_mb_s",
                   rateMbS(*spans, "compress.lzah_decode", decoded), "MB/s");
    report->metric("accel.filter_mb_s",
                   rateMbS(*spans, "accel.process", filtered), "MB/s");
    report->metric("query.host_match_mb_s",
                   rateMbS(*spans, "query.host_match", matched_bytes),
                   "MB/s");
}

/** One run of each library query: its modeled breakdown, weighted by
 *  the mix, the device bytes it reads and the accelerator's stalls. */
void
queryPass(const LayerInputs &in, Report *report)
{
    core::MithriLog &store = *in.store;
    const std::vector<LibQuery> &library = *in.library;
    obs::MetricsRegistry &m = store.metrics();
    auto delta = [&](const char *name, uint64_t before) {
        return static_cast<double>(m.counterValue(name) - before);
    };
    const uint64_t read_before = m.counterValue("ssd.bytes_read");
    const uint64_t stall_before = m.counterValue("accel.stall_cycles");
    const uint64_t busy_before = m.counterValue("accel.busy_cycles");
    std::vector<core::QueryBreakdown> breakdowns(library.size());
    for (size_t i = 0; i < library.size(); ++i) {
        core::QueryResult r;
        if (!store.run(library[i].text, &r).isOk()) {
            report->fail("layer pass: query " + library[i].text);
            return;
        }
        breakdowns[i] = r.breakdown;
    }
    const double read_bytes = delta("ssd.bytes_read", read_before);
    const double busy = delta("accel.busy_cycles", busy_before);

    auto weighted = [&](auto field) {
        double sum = 0.0;
        for (size_t i = 0; i < library.size(); ++i) {
            double w = in.weights.empty()
                           ? 1.0 / static_cast<double>(library.size())
                           : in.weights[i];
            sum += w * static_cast<double>(field(breakdowns[i]));
        }
        return sum;
    };
    const double candidates = weighted(
        [](const core::QueryBreakdown &b) { return b.candidate_pages; });
    const double false_pos = weighted(
        [](const core::QueryBreakdown &b) { return b.false_positive_pages; });
    report->metric("index.candidate_pages_per_query", candidates, "count");
    report->metric("index.false_positive_frac",
                   candidates > 0 ? false_pos / candidates : 0.0, "fraction");
    report->metric("index.modeled_us_per_query",
                   weighted([](const core::QueryBreakdown &b) {
                       return b.index_time.toMicroseconds();
                   }),
                   "us");
    report->metric("typed.index_bytes_per_query",
                   weighted([](const core::QueryBreakdown &b) {
                       return b.typed_index_bytes;
                   }),
                   "B");
    report->metric("storage.modeled_us_per_query",
                   weighted([](const core::QueryBreakdown &b) {
                       return b.storage_time.toMicroseconds();
                   }),
                   "us");
    report->metric("storage.read_bytes_per_query",
                   read_bytes / static_cast<double>(library.size()), "B");
    report->metric("accel.modeled_us_per_query",
                   weighted([](const core::QueryBreakdown &b) {
                       return b.compute_time.toMicroseconds();
                   }),
                   "us");
    report->metric("core.pages_scanned_per_query",
                   weighted([](const core::QueryBreakdown &b) {
                       return b.pages_scanned;
                   }),
                   "count");
    report->metric("accel.stall_frac",
                   busy > 0 ? delta("accel.stall_cycles", stall_before) / busy
                            : 0.0,
                   "fraction");
    report->metric("core.full_scan_frac",
                   weighted([](const core::QueryBreakdown &b) {
                       return b.planned_full_scan ? 1 : 0;
                   }),
                   "fraction");
}

/** The store's own counters: what ingest wrote, per raw byte. */
void
storeCounters(const LayerInputs &in, uint64_t raw, Report *report)
{
    core::MithriLog &store = *in.store;
    obs::MetricsRegistry &m = store.metrics();
    auto counter = [&](const char *name) {
        return static_cast<double>(m.counterValue(name));
    };
    const double raw_bytes = static_cast<double>(raw);
    const storage::PageStore &pages = store.ssd().store();
    report->metric("compress.ratio",
                   counter("lzah.bytes_in") / counter("lzah.bytes_out"),
                   "ratio");
    report->metric("typed.bytes_per_raw_byte",
                   counter("typed.pages_written") * storage::kPageSize /
                       raw_bytes,
                   "ratio");
    report->metric("index.bytes_per_raw_byte",
                   (counter("index.leaf_pages_allocated") +
                    counter("index.index_pages_allocated")) *
                       storage::kPageSize / raw_bytes,
                   "ratio");
    report->metric("storage.write_bytes_per_raw_byte",
                   counter("ssd.bytes_written") / raw_bytes, "ratio");
    report->metric("storage.live_bytes_per_raw_byte",
                   static_cast<double>(pages.physicalSlotCount() -
                                       pages.freeSlotCount()) *
                       storage::kPageSize / raw_bytes,
                   "ratio");
    report->metric("storage.commit_p50_us",
                   histMs(m, "journal.commit.wall_ns", 0.5) * 1e3, "us");
}

/** Saves the store's device image and mounts it kMounts times into
 *  fresh stores, adopting the program's recover.* spans. */
void
mountPass(const LayerInputs &in, SpanLog *spans, Report *report)
{
    Status st = in.store->saveDeviceImage(in.image);
    if (!st.isOk()) {
        report->fail("layer pass: saveDeviceImage: " + st.toString());
        return;
    }
    obs::Tracer tracer;
    const auto epoch = std::chrono::steady_clock::now();
    uint64_t replayed = 0;
    for (int i = 0; i < kMounts; ++i) {
        core::MithriLogConfig cfg;
        cfg.tracer = &tracer;
        core::MithriLog mounted(cfg);
        st = tracedCall(spans, &tracer, epoch, "core.recover", 0,
                        [&] { return mounted.recover(in.image); });
        if (!st.isOk() ||
            mounted.durableLineCount() != in.store->durableLineCount()) {
            report->fail("layer pass: mount: " + st.toString());
            return;
        }
        replayed = mounted.metrics().counterValue("recovery.records_replayed");
    }
    report->metric("index.rebuild_ms",
                   medianMs(*spans, "prog.recover.index_rebuild"), "ms");
    report->metric("storage.replay_ms",
                   medianMs(*spans, "prog.recover.journal_replay"), "ms");
    report->metric("storage.verify_ms",
                   medianMs(*spans, "prog.recover.verify_pages"), "ms");
    report->metric("storage.records_replayed", static_cast<double>(replayed),
                   "count");
}

} // namespace

void
reportLayers(const LayerInputs &in, SpanLog *spans, Report *report)
{
    uint64_t raw = 0;
    for (std::string_view seg : in.segments) {
        raw += seg.size();
    }
    uint64_t checksum = 0;
    storeCounters(in, raw, report);
    writePath(in, raw, spans, report, &checksum);
    readPath(in, spans, report, &checksum);
    queryPass(in, report);
    mountPass(in, spans, report);
    report->diag("layers.checksum", static_cast<double>(checksum % 1000003));
}

svc::LogServiceConfig
serviceConfig(obs::MetricsRegistry *metrics)
{
    svc::LogServiceConfig cfg;
    cfg.shards = 2;
    cfg.threads = 2;
    // A drainer checkpoints its shard every this many sealed pages.
    cfg.checkpoint_every_pages = 128;
    cfg.batch_lines = 256;
    // A queued query task waits behind at most two batch applies.
    cfg.queue_depth = 2;
    cfg.metrics = metrics;
    return cfg;
}

Status
appendLine(svc::LogService &service, std::string_view line)
{
    Status st = service.append(line);
    while (st.code() == StatusCode::kResourceExhausted) {
        service.drain();
        st = service.append(line);
    }
    return st;
}

Status
svcPass(const LayerInputs &in, obs::MetricsRegistry *metrics,
        SpanLog *spans)
{
    svc::LogService service(serviceConfig(metrics));
    Status st = Status::ok();
    uint64_t appends = 0;
    for (std::string_view seg : in.segments) {
        forEachLine(seg, [&](std::string_view line) {
            if (!st.isOk()) {
                return;
            }
            ScopedSpan span(++appends % kAppendSpanEvery == 0 ? spans
                                                              : nullptr,
                            "svc.append");
            st = appendLine(service, line);
        });
    }
    if (st.isOk()) {
        st = service.flush();
    }
    for (const LibQuery &q : *in.library) {
        svc::ServiceQueryResult r;
        if (st.isOk()) {
            st = service.query(q.text, &r);
        }
    }
    return st;
}

void
reportSvc(obs::MetricsRegistry &metrics, const SpanLog &spans,
          Report *report)
{
    report->metric("svc.append_p50_us", medianMs(spans, "svc.append") * 1e3,
                   "us");
    report->metric("svc.batch_apply_p50_ms",
                   histMs(metrics, "svc.batch_apply.wall_ns", 0.5), "ms");
    report->metric("svc.queue_wait_p99_ms",
                   histMs(metrics, "svc.queue_wait.wall_ns", 0.99), "ms");
    report->metric("svc.shard_query_p50_ms",
                   histMs(metrics, "svc.shard_query.wall_ns", 0.5), "ms");
    report->metric("svc.merge_p50_ms",
                   histMs(metrics, "svc.merge.wall_ns", 0.5), "ms");
}

} // namespace mithril::perfbench
