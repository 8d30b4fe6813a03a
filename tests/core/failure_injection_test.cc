/**
 * @file
 * Failure injection: corrupted storage must never crash and never
 * produce silent wrong data. Raw decoders surface typed errors
 * (kCorruptData for structural damage, kDataLoss for CRC-detected byte
 * damage); the query path degrades gracefully instead — damaged pages
 * are dropped (counted in QueryBreakdown::pages_dropped) and the query
 * still answers from the readable remainder. Also exercises degenerate
 * system states (query before ingest, flush with nothing pending,
 * double flush).
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/lzah.h"
#include "core/mithrilog.h"
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
corpus()
{
    std::string text;
    for (int i = 0; i < 2000; ++i) {
        text += "unit " + std::to_string(i) +
                " status nominal check passed\n";
    }
    return text;
}

TEST(FailureInjectionTest, CorruptedPageDegradesGracefully)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(corpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    ASSERT_GT(system.dataPageCount(), 1u);

    // Baseline before damage.
    QueryResult clean;
    ASSERT_TRUE(system.run(mustParse("nominal"), &clean).isOk());
    EXPECT_EQ(clean.matched_lines, 2000u);
    EXPECT_EQ(clean.breakdown.pages_dropped, 0u);

    // Smash the first data page's header: its damage is persistent
    // (no fault plan), so the page is dropped — the query must still
    // succeed and answer from the readable remainder.
    auto page =
        system.ssd().store().mutablePage(system.dataPages().front());
    for (size_t i = 0; i < 16; ++i) {
        page[i] ^= 0xa5;
    }
    QueryResult r;
    Status st = system.run(mustParse("nominal"), &r);
    ASSERT_TRUE(st.isOk()) << st.toString();
    EXPECT_EQ(r.breakdown.pages_dropped, 1u);
    EXPECT_EQ(r.breakdown.pages_dropped, 1u);
    EXPECT_LT(r.matched_lines, clean.matched_lines);
    EXPECT_GT(r.matched_lines, 0u);
    EXPECT_GT(system.metrics().counter("core.pages_dropped").value(),
              0u);
}

TEST(FailureInjectionTest, RandomPayloadCorruptionNeverCrashes)
{
    // Flip bytes at random positions across the data pages; every
    // query either succeeds (corruption missed/benign) or reports
    // kCorruptData. Decoders must stay within bounds throughout.
    Rng rng(42);
    for (int trial = 0; trial < 20; ++trial) {
        MithriLog system;
        ASSERT_TRUE(system.ingestText(corpus()).isOk());
        EXPECT_TRUE(system.flush().isOk());
        uint64_t pages = system.dataPageCount();
        for (int flips = 0; flips < 8; ++flips) {
            auto page = system.ssd().store().mutablePage(
                system.dataPages()[rng.below(pages)]);
            page[rng.below(page.size())] ^=
                static_cast<uint8_t>(1 + rng.below(255));
        }
        QueryResult r;
        Status st = system.run(mustParse("nominal & check"), &r);
        // The degradation ladder drops damaged pages, so queries
        // succeed; any residual typed failure is acceptable, a crash
        // or silent misparse is not.
        if (!st.isOk()) {
            EXPECT_TRUE(st.code() == StatusCode::kCorruptData ||
                        st.code() == StatusCode::kDataLoss)
                << st.toString();
        }
    }
}

TEST(FailureInjectionTest, TruncatedPageDecodeRejected)
{
    compress::LzahPageEncoder enc;
    for (int i = 0; i < 50; ++i) {
        ASSERT_NE(enc.addLine("some line " + std::to_string(i)),
                  compress::AddLineResult::kRejected);
    }
    enc.flush();
    ASSERT_EQ(enc.pages().size(), 1u);
    // Present only the header and a sliver of the first chunk: the
    // decoder must hit the boundary check, not read past the view.
    compress::ByteView sliver(enc.pages()[0].data(), 48);
    compress::Bytes out;
    Status st = compress::lzahDecodePage(sliver, false, &out);
    // The page CRC covers the payload, so truncation reads as detected
    // byte damage (kDataLoss) before structural parsing even starts.
    EXPECT_EQ(st.code(), StatusCode::kDataLoss);
    EXPECT_TRUE(out.empty());
}

TEST(FailureInjectionTest, RandomBytesAsPageRejected)
{
    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        compress::Bytes junk(4096);
        for (auto &b : junk) {
            b = static_cast<uint8_t>(rng.below(256));
        }
        compress::Bytes out;
        Status st = compress::lzahDecodePage(junk, true, &out);
        // Random magic almost never validates; either way: no crash,
        // and failure is typed.
        if (!st.isOk()) {
            EXPECT_TRUE(st.code() == StatusCode::kCorruptData ||
                        st.code() == StatusCode::kDataLoss)
                << st.toString();
        }
    }
}

TEST(FailureInjectionTest, QueriesOnEmptySystem)
{
    MithriLog system;
    EXPECT_TRUE(system.flush().isOk());  // nothing pending: must be a no-op
    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("anything"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 0u);
    EXPECT_EQ(r.breakdown.pages_total, 0u);
}

TEST(FailureInjectionTest, DoubleFlushIsIdempotent)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText("one line here\n").isOk());
    EXPECT_TRUE(system.flush().isOk());
    uint64_t pages = system.dataPageCount();
    EXPECT_TRUE(system.flush().isOk());
    EXPECT_EQ(system.dataPageCount(), pages);
    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("one"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 1u);
}

TEST(FailureInjectionTest, IngestAfterFlushKeepsWorking)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText("first era alpha\n").isOk());
    EXPECT_TRUE(system.flush().isOk());
    ASSERT_TRUE(system.ingestText("second era beta\n").isOk());
    EXPECT_TRUE(system.flush().isOk());
    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("alpha | beta"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 2u);
}

} // namespace
} // namespace mithril::core
