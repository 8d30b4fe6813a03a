#include "core/mithrilog.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/hash.h"
#include "common/text.h"
#include "loggen/datasets.h"
#include "loggen/log_generator.h"
#include "query/matcher.h"
#include "query/parser.h"

namespace mithril::core {
namespace {

query::Query
mustParse(std::string_view text)
{
    query::Query q;
    Status st = query::parseQuery(text, &q);
    EXPECT_TRUE(st.isOk()) << st.toString();
    return q;
}

std::string
smallCorpus()
{
    std::string text;
    for (int i = 0; i < 3000; ++i) {
        if (i % 3 == 0) {
            text += "RAS KERNEL INFO instruction cache parity error "
                    "corrected seq" + std::to_string(i) + "\n";
        } else if (i % 3 == 1) {
            text += "RAS KERNEL FATAL data TLB error interrupt seq" +
                    std::to_string(i) + "\n";
        } else {
            text += "RAS APP FATAL ciod error reading message prefix "
                    "seq" + std::to_string(i) + "\n";
        }
    }
    return text;
}

TEST(MithriLogTest, IngestAccountsLinesAndPages)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    EXPECT_EQ(system.lineCount(), 3000u);
    EXPECT_GT(system.dataPageCount(), 0u);
    EXPECT_GT(system.compressionRatio(), 1.5);
}

TEST(MithriLogTest, QueryCountsMatchCorpusStructure)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());

    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("KERNEL & INFO"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 1000u);
    EXPECT_FALSE(r.breakdown.used_fallback);

    ASSERT_TRUE(system.run(mustParse("KERNEL & !FATAL"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 1000u);

    ASSERT_TRUE(system.run(mustParse("FATAL"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 2000u);
}

TEST(MithriLogTest, IndexPrunesPages)
{
    MithriLog system;
    std::string text = smallCorpus();
    text += "needle UNIQUETOKEN in KERNEL haystack\n";
    text += smallCorpus();
    ASSERT_TRUE(system.ingestText(text).isOk());
    EXPECT_TRUE(system.flush().isOk());

    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("UNIQUETOKEN"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 1u);
    // The single-token query must touch far fewer pages than exist.
    EXPECT_LT(r.breakdown.pages_scanned, r.breakdown.pages_total / 2);
    // UNIQUETOKEN's entries still hold their pages in the host-resident
    // buffer, so the lookup reads no index page.
    EXPECT_EQ(r.breakdown.index_time.ps(), 0u);

    // KERNEL is on every page, so its entries have spilled leaves; the
    // conjunction still prunes (a set is bounded by its most selective
    // token) and its KERNEL lookup reads them.
    ASSERT_TRUE(system.run(mustParse("UNIQUETOKEN & KERNEL"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 1u);
    EXPECT_LT(r.breakdown.pages_scanned, r.breakdown.pages_total / 2);
    EXPECT_GT(r.breakdown.index_time.ps(), 0u);
}

TEST(MithriLogTest, FlushAndSealWriteOnlyFullIndexNodes)
{
    loggen::LogGenerator gen(loggen::datasetByName("Spirit2"));
    const std::string text = gen.generate(4u << 20);
    MithriLog system;
    ASSERT_TRUE(system.ingestText(text).isOk());
    auto index_pages = [&] {
        return system.metrics().counterValue("index.leaf_pages_allocated") +
               system.metrics().counterValue("index.index_pages_allocated");
    };
    // The keyword index's buffers and roots under construction stay in
    // host memory: neither durability point writes a partial node.
    const uint64_t before = index_pages();
    ASSERT_TRUE(system.flush().isOk());
    EXPECT_EQ(index_pages(), before);
    ASSERT_TRUE(system.seal().isOk());
    EXPECT_EQ(index_pages(), before);
    EXPECT_GT(system.dataPageCount(), 200u);
    EXPECT_LE(index_pages(), 40u);
}

TEST(MithriLogTest, QueryTimeBreakdownIsConsistent)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("KERNEL"), &r).isOk());
    const QueryBreakdown &b = r.breakdown;
    EXPECT_GE(b.total_time.ps(),
              std::max(b.storage_time.ps(), b.compute_time.ps()));
    EXPECT_GT(r.effectiveThroughput(system.rawBytes()), 0.0);
}

TEST(MithriLogTest, FullScanTouchesAllPages)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    std::vector<query::Query> queries{mustParse("INFO")};
    QueryResult r;
    ASSERT_TRUE(system.runFullScan(queries, &r).isOk());
    EXPECT_EQ(r.breakdown.pages_scanned, r.breakdown.pages_total);
    EXPECT_EQ(r.breakdown.index_time.ps(), 0u);
    EXPECT_EQ(r.matched_lines, 1000u);
}

TEST(MithriLogTest, BatchedQueriesShareOnePass)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    std::vector<query::Query> queries{mustParse("INFO"),
                                      mustParse("APP & FATAL")};
    QueryResult r;
    ASSERT_TRUE(system.runBatch(queries, &r).isOk());
    ASSERT_EQ(r.matched_per_query.size(), 2u);
    EXPECT_EQ(r.matched_per_query[0], 1000u);
    EXPECT_EQ(r.matched_per_query[1], 1000u);
    EXPECT_EQ(r.matched_lines, 2000u);
}

TEST(MithriLogTest, FallbackOnNonOffloadableQuery)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    // 9 union sets exceed the 8 flag pairs -> software fallback.
    query::Query q = mustParse(
        "INFO | FATAL | APP | KERNEL | cache | TLB | ciod | parity | "
        "interrupt");
    QueryResult r;
    ASSERT_TRUE(system.run(q, &r).isOk());
    EXPECT_TRUE(r.breakdown.used_fallback);
    EXPECT_GT(r.matched_lines, 0u);

    // The fallback returns the lines it counts, in ingest order, and
    // they are exactly what the software matcher keeps over the corpus.
    ASSERT_EQ(r.lines.size(), r.matched_lines);
    ASSERT_EQ(r.line_numbers.size(), r.lines.size());
    query::SoftwareMatcher matcher(q);
    std::string corpus = smallCorpus();
    std::vector<std::string_view> expected = matcher.filterLines(corpus);
    ASSERT_EQ(r.lines.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(r.lines[i].text, expected[i]) << i;
    }
}

TEST(MithriLogTest, DegradedSoftwareScanReturnsKeptLines)
{
    MithriLog system;
    std::string corpus = smallCorpus();
    ASSERT_TRUE(system.ingestText(corpus).isOk());
    EXPECT_TRUE(system.flush().isOk());
    // Damage the page CRC does not cover: a consistent item/byte count
    // in the header that the payload cannot hold. The page stages
    // cleanly, then fails decode in the filter pipeline, so the query
    // degrades to the host evaluator, which drops only that page.
    ASSERT_GT(system.dataPageCount(), 2u);
    const MithriLog::PageSpan bad = system.pageDirectory()[1];
    std::span<uint8_t> page =
        system.ssd().store().mutablePage(system.dataPages()[1]);
    uint32_t items = 0xffff;
    uint32_t bytes = items * compress::kLzahWord;
    std::memcpy(page.data(), &items, sizeof items);
    std::memcpy(page.data() + sizeof items, &bytes, sizeof bytes);

    query::Query q = mustParse("INFO");
    QueryResult r;
    ASSERT_TRUE(system.run(q, &r).isOk());
    EXPECT_TRUE(r.breakdown.degraded_software_scan);
    EXPECT_EQ(r.breakdown.pages_dropped, 1u);

    query::SoftwareMatcher matcher(q);
    std::vector<std::string_view> lines = splitLines(corpus);
    std::vector<uint64_t> expected;
    for (uint64_t i = 0; i < lines.size(); ++i) {
        bool in_bad = i >= bad.first_line &&
                      i < bad.first_line + bad.line_count;
        if (!in_bad && matcher.matches(lines[i])) {
            expected.push_back(i);
        }
    }
    EXPECT_EQ(r.matched_lines, expected.size());
    ASSERT_EQ(r.line_numbers, expected);
    ASSERT_EQ(r.lines.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(r.lines[i].text, lines[expected[i]]) << i;
    }
}

TEST(MithriLogTest, TextQueryInterface)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText("alpha beta\ngamma delta\n").isOk());
    EXPECT_TRUE(system.flush().isOk());
    QueryResult r;
    ASSERT_TRUE(system.run("alpha & beta", &r).isOk());
    EXPECT_EQ(r.matched_lines, 1u);
    EXPECT_FALSE(system.run("((", &r).isOk());
}

TEST(MithriLogTest, LongLinesTruncatedWithCounter)
{
    MithriLog system;
    std::string giant(10000, 'x');
    ASSERT_TRUE(system.ingestLine(giant).isOk());
    EXPECT_TRUE(system.flush().isOk());
    EXPECT_EQ(system.truncatedLines(), 1u);
    EXPECT_EQ(system.lineCount(), 1u);
    // The same count is visible in the unified metric namespace.
    EXPECT_EQ(system.metrics().counterValue("core.lines_truncated"),
              1u);
    EXPECT_EQ(system.metrics().counterValue("core.lines_ingested"), 1u);
}

TEST(MithriLogTest, EmptyBatchRejected)
{
    MithriLog system;
    QueryResult r;
    EXPECT_FALSE(system.runBatch({}, &r).isOk());
}

TEST(MithriLogTest, PlannerSkipsTraversalForCommonTokens)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());

    // "RAS" occurs on every line: entry counters predict no pruning,
    // so the planner goes straight to a full scan (no traversal time).
    QueryResult common;
    ASSERT_TRUE(system.run(mustParse("RAS"), &common).isOk());
    EXPECT_TRUE(common.planned_full_scan);
    EXPECT_EQ(common.breakdown.index_time.ps(), 0u);
    EXPECT_EQ(common.breakdown.pages_scanned, common.breakdown.pages_total);
    EXPECT_EQ(common.matched_lines, 3000u);

    // A selective token goes through the index as usual.
    QueryResult rare;
    ASSERT_TRUE(system.run(mustParse("seq42"), &rare).isOk());
    EXPECT_FALSE(rare.planned_full_scan);
    EXPECT_LT(rare.breakdown.pages_scanned, rare.breakdown.pages_total);
    EXPECT_EQ(rare.matched_lines, 1u);
}

TEST(MithriLogTest, KeptLinesAreRealLines)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText("keep me now\ndrop me\n").isOk());
    EXPECT_TRUE(system.flush().isOk());
    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("keep"), &r).isOk());
    ASSERT_EQ(r.lines.size(), 1u);
    EXPECT_EQ(r.lines[0].text, "keep me now");
}

TEST(MithriLogTest, QueryBreakdownMatchesScalars)
{
    MithriLog system;
    std::string text = smallCorpus();
    text += "needle UNIQUETOKEN in haystack\n";
    text += smallCorpus();
    ASSERT_TRUE(system.ingestText(text).isOk());
    EXPECT_TRUE(system.flush().isOk());

    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("UNIQUETOKEN"), &r).isOk());
    const QueryBreakdown &b = r.breakdown;
    EXPECT_EQ(r.planned_full_scan, b.planned_full_scan);
    EXPECT_GE(b.total_time.ps(),
              std::max(b.index_time.ps(),
                       std::max(b.storage_time.ps(), b.compute_time.ps())));
    EXPECT_EQ(b.pages_total, system.dataPageCount());
    EXPECT_FALSE(b.used_fallback);
    EXPECT_GT(b.wall_seconds, 0.0);
    // Index path: candidates were nominated and the page-pruning
    // account closes (candidates = with-matches + false positives).
    EXPECT_EQ(b.candidate_pages, b.pages_scanned);
    EXPECT_GE(b.pages_with_matches, 1u);
    EXPECT_EQ(b.false_positive_pages,
              b.pages_scanned - b.pages_with_matches);

    std::string json = b.toJson();
    EXPECT_NE(json.find("\"total_ps\""), std::string::npos);
    EXPECT_NE(json.find("\"false_positive_pages\""), std::string::npos);
}

TEST(MithriLogTest, PageDirectoryMapsLinesToPages)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    const std::vector<MithriLog::PageSpan> &dir = system.pageDirectory();
    const std::vector<storage::PageId> &ids = system.dataPages();
    ASSERT_EQ(dir.size(), ids.size());
    ASSERT_GE(dir.size(), 3u);
    // The spans tile the ingest stream, page ids ascending.
    EXPECT_EQ(dir[0].first_line, 0u);
    for (size_t i = 1; i < dir.size(); ++i) {
        EXPECT_LT(ids[i - 1], ids[i]) << i;
        EXPECT_EQ(dir[i - 1].first_line + dir[i - 1].line_count,
                  dir[i].first_line)
            << i;
    }
    EXPECT_EQ(dir.back().first_line + dir.back().line_count,
              system.lineCount());

    const uint64_t first1 = dir[1].first_line;
    std::vector<uint64_t> lines = {0, 1, first1 - 1};  // all in page 0
    EXPECT_EQ(system.pagesForLines(lines),
              std::vector<storage::PageId>{ids[0]});
    lines = {first1 - 1, first1, dir[2].first_line};  // pages 0, 1, 2
    EXPECT_EQ(system.pagesForLines(lines),
              (std::vector<storage::PageId>{ids[0], ids[1], ids[2]}));
    lines = {first1, first1 + 1, first1 + 2};  // duplicates collapse
    EXPECT_EQ(system.pagesForLines(lines),
              std::vector<storage::PageId>{ids[1]});
    lines = {system.lineCount()};  // past the last page
    EXPECT_TRUE(system.pagesForLines(lines).empty());
}

TEST(MithriLogTest, QueryDatapathFeedsMetricsAndSpans)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("seq42"), &r).isOk());

    const obs::MetricsRegistry &m = system.metrics();
    EXPECT_EQ(m.counterValue("core.queries"), 1u);
    EXPECT_GT(m.counterValue("ssd.pages_read"), 0u);
    EXPECT_GT(m.counterValue("index.candidate_pages"), 0u);
    EXPECT_GT(m.counterValue("accel.busy_cycles"), 0u);
    EXPECT_GT(m.counterValue("lzah.bytes_in"), 0u);
    EXPECT_EQ(m.counterValue("core.lines_ingested"), 3000u);

    // The span buffer covers the datapath phases, nested under the
    // parent query span, with modeled durations attached.
    bool saw_query = false, saw_lookup = false, saw_stream = false,
         saw_filter = false;
    for (const obs::TraceEvent &e : system.tracer().events()) {
        if (e.name == "query") {
            saw_query = true;
            EXPECT_EQ(e.depth, 0u);
            EXPECT_TRUE(e.has_sim);
            EXPECT_EQ(e.sim_dur_ps, r.breakdown.total_time.ps());
        } else if (e.name == "query.index_lookup") {
            saw_lookup = true;
            EXPECT_EQ(e.depth, 1u);
        } else if (e.name == "query.page_stream") {
            saw_stream = true;
            EXPECT_EQ(e.sim_dur_ps, r.breakdown.storage_time.ps());
        } else if (e.name == "query.filter") {
            saw_filter = true;
            EXPECT_EQ(e.sim_dur_ps, r.breakdown.compute_time.ps());
        }
    }
    EXPECT_TRUE(saw_query);
    EXPECT_TRUE(saw_lookup);
    EXPECT_TRUE(saw_stream);
    EXPECT_TRUE(saw_filter);
}

TEST(MithriLogTest, SimDomainTelemetryIsDeterministic)
{
    auto run = [] {
        MithriLog system;
        EXPECT_TRUE(system.ingestText(smallCorpus()).isOk());
        EXPECT_TRUE(system.flush().isOk());
        QueryResult r;
        EXPECT_TRUE(system.run(mustParse("KERNEL & INFO"), &r).isOk());
        obs::MetricsSnapshot snap = system.metrics().snapshot();
        std::vector<std::pair<uint64_t, uint64_t>> sim;
        for (const obs::TraceEvent &e : system.tracer().events()) {
            if (e.has_sim) {
                sim.emplace_back(e.sim_start_ps, e.sim_dur_ps);
            }
        }
        return std::make_pair(snap.counters, sim);
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(MithriLogTest, ExternalRegistryIsShared)
{
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    // A small table shares every entry across most pages, and 40,000
    // lines fill about 280 pages, so entries spill full leaves and
    // roots (16 leaves of 16 pages each).
    MithriLogConfig cfg;
    cfg.index.hash_entries = 1u << 4;
    cfg.metrics = &registry;
    cfg.tracer = &tracer;
    MithriLog system(cfg);
    std::string text;
    for (int i = 0; i < 40000; ++i) {
        text += "RAS KERNEL INFO cache parity error seq" +
                std::to_string(i) + " src=10.1.2." +
                std::to_string(i % 50) + "\n";
    }
    ASSERT_TRUE(system.ingestText(text).isOk());
    EXPECT_TRUE(system.flush().isOk());
    EXPECT_EQ(&system.metrics(), &registry);
    EXPECT_EQ(&system.tracer(), &tracer);
    EXPECT_EQ(registry.counterValue("core.lines_ingested"), 40000u);

    // The typed query's keyword conjunct is looked up whatever the
    // planner predicts, and walks KERNEL's root chain.
    QueryResult keyword, typed;
    ASSERT_TRUE(system.run(mustParse("seq42"), &keyword).isOk());
    ASSERT_TRUE(
        system.run(mustParse("ip:10.1.2.7 & KERNEL"), &typed).isOk());
    EXPECT_EQ(keyword.matched_lines, 1u);
    EXPECT_EQ(typed.matched_lines, 800u);

    // The storage, index and typed tiers count into the store's
    // registry under their subsystem names.
    for (const char *name :
         {"ssd.pages_written", "ssd.bytes_written", "ssd.pages_read",
          "ssd.bytes_read", "ssd.flushes", "ssd.chained_reads",
          "ssd.overlapped_reads", "index.leaf_pages_allocated",
          "index.index_pages_allocated", "index.leaf_nodes_flushed",
          "index.root_nodes_flushed", "index.root_visits",
          "index.lookups", "index.pages_returned", "typed.postings",
          "typed.pages_written", "typed.bytes_written",
          "typed.records_flushed", "typed.lookups", "typed.pages_read",
          "typed.lines_returned"}) {
        EXPECT_GT(registry.counterValue(name), 0u) << name;
    }

    // Recovery rebuilds both indexes from the device into the mounted
    // store's own registry.
    std::string path = ::testing::TempDir() + "mithrilog_registry.img";
    ASSERT_TRUE(system.saveDeviceImage(path).isOk());
    MithriLogConfig mount_cfg;
    mount_cfg.index = cfg.index;
    MithriLog mounted(mount_cfg);
    ASSERT_TRUE(mounted.recover(path).isOk());
    std::remove(path.c_str());
    for (const char *name :
         {"ssd.pages_read", "ssd.bytes_read", "index.leaf_nodes_flushed",
          "index.root_nodes_flushed", "typed.postings",
          "typed.pages_written"}) {
        EXPECT_GT(mounted.metrics().counterValue(name), 0u) << name;
    }
}

} // namespace
} // namespace mithril::core
