#include "storage/ssd_model.h"

#include <gtest/gtest.h>

namespace mithril::storage {
namespace {

TEST(SsdModelTest, BatchReadMovesData)
{
    SsdModel ssd;
    PageId a = ssd.allocate();
    PageId b = ssd.allocate();
    std::vector<uint8_t> ones(kPageSize, 1);
    std::vector<uint8_t> twos(kPageSize, 2);
    ASSERT_TRUE(ssd.writePage(a, ones).isOk());
    ASSERT_TRUE(ssd.writePage(b, twos).isOk());

    std::vector<uint8_t> out;
    std::vector<PageId> ids{a, b};
    ASSERT_TRUE(ssd.readBatch(ids, Link::kInternal, &out).isOk());
    ASSERT_EQ(out.size(), 2 * kPageSize);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[kPageSize], 2);
}

TEST(SsdModelTest, LargeBatchIsBandwidthBound)
{
    SsdModel ssd;
    // 100k pages at 4.8 GB/s -> ~85 ms; latency contribution is tiny.
    SimTime t = ssd.timeBatchRead(100000, Link::kInternal);
    double expected = 100000.0 * kPageSize / 4.8e9;
    EXPECT_NEAR(t.toSeconds(), expected, expected * 0.2);
}

TEST(SsdModelTest, InternalLinkIsFasterThanExternal)
{
    SsdModel ssd;
    SimTime internal = ssd.timeBatchRead(50000, Link::kInternal);
    SimTime external = ssd.timeBatchRead(50000, Link::kExternal);
    EXPECT_LT(internal.ps(), external.ps());
    // Ratio should track the 4.8 / 3.1 bandwidth ratio.
    double ratio = static_cast<double>(external.ps()) / internal.ps();
    EXPECT_NEAR(ratio, 4.8 / 3.1, 0.2);
}

TEST(SsdModelTest, ChainedReadsAreLatencyBound)
{
    SsdModel ssd;
    // 100 dependent hops at 100 us each: >= 10 ms regardless of size.
    SimTime t = ssd.timeChainRead(100, 0, Link::kInternal);
    EXPECT_GE(t.toSeconds(), 100 * 100e-6 * 0.99);
}

TEST(SsdModelTest, ChainWithFanoutCoversLeafTraffic)
{
    SsdModel ssd;
    SimTime chain_only = ssd.timeChainRead(10, 0, Link::kInternal);
    SimTime with_fanout = ssd.timeChainRead(10, 256, Link::kInternal);
    EXPECT_GE(with_fanout.ps(), chain_only.ps());
}

TEST(SsdModelTest, MeteredReadsAdvanceClockAndStats)
{
    obs::MetricsRegistry metrics;
    SsdModel ssd(SsdConfig{}, &metrics);
    PageId a = ssd.allocate();
    std::vector<uint8_t> data(kPageSize, 7);
    ASSERT_TRUE(ssd.writePage(a, data).isOk());
    ssd.resetClock();

    std::vector<uint8_t> out;
    std::vector<PageId> ids{a};
    ASSERT_TRUE(ssd.readBatch(ids, Link::kExternal, &out).isOk());
    EXPECT_GT(ssd.elapsed().ps(), 0u);
    EXPECT_EQ(metrics.counterValue("ssd.pages_read"), 1u);
    EXPECT_EQ(metrics.counterValue("ssd.bytes_read"), kPageSize);

    std::vector<uint8_t> chained;
    ASSERT_TRUE(ssd.readChained(a, Link::kExternal, &chained).isOk());
    EXPECT_EQ(chained[0], 7);
    EXPECT_EQ(metrics.counterValue("ssd.chained_reads"), 1u);
}

TEST(SsdModelTest, ResetClockZeroesElapsedOnly)
{
    obs::MetricsRegistry metrics;
    SsdModel ssd(SsdConfig{}, &metrics);
    PageId a = ssd.allocate();
    std::vector<uint8_t> data(16, 1);
    ASSERT_TRUE(ssd.writePage(a, data).isOk());
    EXPECT_GT(ssd.elapsed().ps(), 0u);
    ssd.resetClock();
    EXPECT_EQ(ssd.elapsed().ps(), 0u);
    EXPECT_EQ(metrics.counterValue("ssd.pages_written"), 1u);
}

TEST(SsdModelTest, OutOfRangeWriteReturnsInvalidArgument)
{
    obs::MetricsRegistry metrics;
    SsdModel ssd(SsdConfig{}, &metrics);
    std::vector<uint8_t> data(kPageSize, 1);
    uint64_t before = ssd.elapsed().ps();
    EXPECT_EQ(ssd.writePage(5, data).code(),
              StatusCode::kInvalidArgument);
    // A rejected program charges no time and counts nothing.
    EXPECT_EQ(ssd.elapsed().ps(), before);
    EXPECT_EQ(metrics.counterValue("ssd.pages_written"), 0u);
}

TEST(SsdModelTest, FlushBarrierChargesConfiguredLatency)
{
    obs::MetricsRegistry metrics;
    SsdModel ssd(SsdConfig{}, &metrics);
    ASSERT_TRUE(ssd.flushBarrier().isOk());
    EXPECT_EQ(ssd.elapsed().ps(), ssd.config().flush_latency.ps());
    EXPECT_EQ(metrics.counterValue("ssd.flushes"), 1u);
}

TEST(SsdModelTest, PowerCutKillsDeviceUntilRemount)
{
    SsdModel ssd;
    fault::FaultPlanConfig cfg;
    cfg.power_cut_after_writes = 2;
    fault::FaultPlan plan(cfg);
    ssd.attachFaultPlan(&plan);

    PageId a = ssd.allocate();
    PageId b = ssd.allocate();
    std::vector<uint8_t> data(kPageSize, 9);
    ASSERT_TRUE(ssd.writePage(a, data).isOk());
    EXPECT_FALSE(ssd.powerLost());
    EXPECT_EQ(ssd.writePage(b, data).code(), StatusCode::kUnavailable);
    EXPECT_TRUE(ssd.powerLost());
    // Every later command fails until the image is remounted.
    EXPECT_EQ(ssd.writePage(a, data).code(), StatusCode::kUnavailable);
    EXPECT_EQ(ssd.flushBarrier().code(), StatusCode::kUnavailable);
    std::vector<uint8_t> out;
    EXPECT_EQ(ssd.readChained(a, Link::kInternal, &out).code(),
              StatusCode::kUnavailable);
    // The dead device's NAND contents stay directly dumpable.
    std::span<const uint8_t> view;
    ASSERT_TRUE(ssd.store().read(a, &view).isOk());
    EXPECT_EQ(view[0], 9);
}

TEST(SsdModelTest, TornWriteAcksButPersistsPrefix)
{
    SsdModel ssd;
    fault::FaultPlanConfig cfg;
    cfg.seed = 3;
    cfg.torn_write_rate = 1.0; // every program tears
    fault::FaultPlan plan(cfg);
    ssd.attachFaultPlan(&plan);

    PageId a = ssd.allocate();
    std::vector<uint8_t> data(kPageSize, 0x5a);
    ASSERT_TRUE(ssd.writePage(a, data).isOk()); // the device lies
    EXPECT_EQ(plan.counters().torn_writes, 1u);
    std::span<const uint8_t> view;
    ASSERT_TRUE(ssd.store().read(a, &view).isOk());
    size_t persisted = 0;
    while (persisted < view.size() && view[persisted] == 0x5a) {
        ++persisted;
    }
    // The tail (if any) kept its old contents (zeros).
    for (size_t i = persisted; i < view.size(); ++i) {
        EXPECT_EQ(view[i], 0);
    }
}

TEST(SsdModelTest, DroppedWriteAcksButPersistsNothing)
{
    SsdModel ssd;
    fault::FaultPlanConfig cfg;
    cfg.seed = 5;
    cfg.dropped_write_rate = 1.0;
    fault::FaultPlan plan(cfg);
    ssd.attachFaultPlan(&plan);

    PageId a = ssd.allocate();
    std::vector<uint8_t> data(kPageSize, 0x77);
    ASSERT_TRUE(ssd.writePage(a, data).isOk());
    EXPECT_EQ(plan.counters().dropped_writes, 1u);
    std::span<const uint8_t> view;
    ASSERT_TRUE(ssd.store().read(a, &view).isOk());
    EXPECT_EQ(view[0], 0);
}

TEST(SsdModelTest, ComparisonConfigHasSingleFastLink)
{
    SsdConfig cfg = comparisonSsdConfig();
    EXPECT_DOUBLE_EQ(cfg.internal_bw_bps, cfg.external_bw_bps);
    EXPECT_GT(cfg.internal_bw_bps, 4.8e9);
}

} // namespace
} // namespace mithril::storage
