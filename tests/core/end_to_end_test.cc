/**
 * @file
 * Whole-system integration tests: MithriLog, ScanDb, and SplunkLite
 * must agree on match counts for the same corpus and queries (they
 * implement one semantics on three engines), and the FT-tree template
 * flow must work end to end — extract templates, compile them to the
 * accelerator, and retrieve the right lines.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baseline/scan_db.h"
#include "baseline/splunk_lite.h"
#include "core/mithrilog.h"
#include "loggen/log_generator.h"
#include "query/parser.h"
#include "templates/ft_tree.h"

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

class CrossEngineTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        loggen::LogGenerator gen(loggen::hpc4Datasets()[0]);
        text_ = std::make_unique<std::string>(gen.generate(4 << 20));

        system_ = std::make_unique<MithriLog>();
        ASSERT_TRUE(system_->ingestText(*text_).isOk());
        EXPECT_TRUE(system_->flush().isOk());

        scan_db_ = std::make_unique<baseline::ScanDb>();
        scan_db_->ingest(*text_);

        splunk_ = std::make_unique<baseline::SplunkLite>();
        splunk_->ingest(*text_);
    }

    static void
    TearDownTestSuite()
    {
        splunk_.reset();
        scan_db_.reset();
        system_.reset();
        text_.reset();
    }

    static std::unique_ptr<std::string> text_;
    static std::unique_ptr<MithriLog> system_;
    static std::unique_ptr<baseline::ScanDb> scan_db_;
    static std::unique_ptr<baseline::SplunkLite> splunk_;
};

std::unique_ptr<std::string> CrossEngineTest::text_;
std::unique_ptr<MithriLog> CrossEngineTest::system_;
std::unique_ptr<baseline::ScanDb> CrossEngineTest::scan_db_;
std::unique_ptr<baseline::SplunkLite> CrossEngineTest::splunk_;

TEST_F(CrossEngineTest, AllEnginesAgreeOnCounts)
{
    const char *queries[] = {
        "RAS",
        "KERNEL & INFO",
        "FATAL & !INFO",
        "(ERROR & cache) | (WARNING & link)",
        "!KERNEL",
        "\"pbs_mom:\" | \"rts:\"",
    };
    for (const char *text_q : queries) {
        query::Query q = mustParse(text_q);

        QueryResult accel_result;
        ASSERT_TRUE(system_->run(q, &accel_result).isOk()) << text_q;
        baseline::ScanResult scan_result = scan_db_->runQuery(q);
        baseline::IndexedResult splunk_result = splunk_->runQuery(q);

        EXPECT_EQ(accel_result.matched_lines, scan_result.matched_lines)
            << text_q;
        EXPECT_EQ(accel_result.matched_lines,
                  splunk_result.matched_lines)
            << text_q;
    }
}

TEST_F(CrossEngineTest, IndexAndFullScanAgree)
{
    // One row per way run() can plan a query: index pruning, pruning
    // on the positive term of a negated query, the planner's full scan
    // of a common token, and the compile fallback (9 union sets exceed
    // the accelerator's 8 flag pairs).
    struct Row {
        const char *query;
        bool planned_full_scan;
        bool used_fallback;
    };
    const Row rows[] = {
        {"ERROR & parity", false, false},
        {"parity & !ERROR", false, false},
        {"RAS", true, false},
        {"KERNEL | INFO | FATAL | ERROR | WARNING | cache | link | "
         "daemon | parity",
         true, true},
    };
    auto sortedTexts = [](const QueryResult &r) {
        std::vector<std::string> texts;
        for (const accel::KeptLine &line : r.lines) {
            texts.push_back(line.text);
        }
        std::sort(texts.begin(), texts.end());
        return texts;
    };
    for (const Row &row : rows) {
        query::Query q = mustParse(row.query);
        QueryResult indexed, scanned;
        ASSERT_TRUE(system_->run(q, &indexed).isOk()) << row.query;
        std::vector<query::Query> batch{q};
        ASSERT_TRUE(system_->runFullScan(batch, &scanned).isOk())
            << row.query;
        EXPECT_EQ(indexed.planned_full_scan, row.planned_full_scan)
            << row.query;
        EXPECT_EQ(indexed.used_fallback, row.used_fallback) << row.query;
        EXPECT_GT(indexed.matched_lines, 0u) << row.query;
        EXPECT_EQ(indexed.matched_lines, scanned.matched_lines)
            << row.query;
        EXPECT_EQ(indexed.lines.size(), indexed.matched_lines)
            << row.query;
        EXPECT_EQ(sortedTexts(indexed), sortedTexts(scanned)) << row.query;
        EXPECT_LE(indexed.pages_scanned, scanned.pages_scanned)
            << row.query;
    }
}

TEST_F(CrossEngineTest, ModeledAcceleratorBeatsPcieBound)
{
    // Figure 14's claim on a full scan: filter throughput exceeds the
    // 3.1 GB/s PCIe bound thanks to near-storage + compression.
    std::vector<query::Query> batch{mustParse("KERNEL & RAS")};
    QueryResult r;
    ASSERT_TRUE(system_->runFullScan(batch, &r).isOk());
    double eff = r.effectiveThroughput(system_->rawBytes());
    EXPECT_GT(eff, 3.1e9);
}

TEST_F(CrossEngineTest, TemplateQueriesEndToEnd)
{
    templates::FtTreeConfig cfg;
    cfg.template_min_support = 64;
    templates::FtTree tree = templates::FtTree::build(*text_, cfg);
    auto tpls = tree.extractTemplates();
    ASSERT_GT(tpls.size(), 4u);

    // Pick up to 8 templates and run them as one batched union query.
    size_t n = std::min<size_t>(8, tpls.size());
    query::Query joined =
        templates::templatesToQuery(std::span(tpls.data(), n));
    QueryResult r;
    ASSERT_TRUE(system_->run(joined, &r).isOk());
    // Every selected template had support, so lines must come back.
    EXPECT_GT(r.matched_lines, 0u);

    // Counts agree with the software matcher on the raw text.
    query::SoftwareMatcher matcher(joined);
    EXPECT_EQ(r.matched_lines, matcher.filterLines(*text_).size());
}

TEST_F(CrossEngineTest, ConstantThroughputAcrossQueryComplexity)
{
    // The headline behaviour of Figure 15: modeled MithriLog
    // throughput barely changes between 1 and 8 batched queries, while
    // ScanDb (CPU-bound) slows down.
    std::vector<query::Query> one{mustParse("KERNEL & ERROR")};
    std::vector<query::Query> eight;
    const char *bases[] = {"KERNEL", "ERROR", "INFO", "WARNING",
                           "FATAL", "cache", "link", "daemon"};
    for (const char *b : bases) {
        eight.push_back(mustParse(std::string(b) + " & RAS"));
    }

    QueryResult r1, r8;
    ASSERT_TRUE(system_->runFullScan(one, &r1).isOk());
    ASSERT_TRUE(system_->runFullScan(eight, &r8).isOk());
    double t1 = r1.effectiveThroughput(system_->rawBytes());
    double t8 = r8.effectiveThroughput(system_->rawBytes());
    EXPECT_NEAR(t8 / t1, 1.0, 0.05);
}

} // namespace
} // namespace mithril::core
