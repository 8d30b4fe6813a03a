/**
 * @file
 * FaultPlan unit tests: spec parsing, rate behavior, corruption
 * application, and the determinism contract (same config => identical
 * draw sequences and counters).
 */
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.h"

namespace mithril::fault {
namespace {

constexpr size_t kPage = 4096;

TEST(FaultPlanParseTest, EmptySpecIsNullPlan)
{
    FaultPlanConfig cfg;
    ASSERT_TRUE(FaultPlan::parse("", &cfg).isOk());
    EXPECT_EQ(cfg.bit_error_rate, 0.0);
    EXPECT_EQ(cfg.uncorrectable_rate, 0.0);
    EXPECT_EQ(cfg.timeout_rate, 0.0);
    EXPECT_EQ(cfg.block_garble_rate, 0.0);
}

TEST(FaultPlanParseTest, FullSpecRoundTrips)
{
    FaultPlanConfig cfg;
    ASSERT_TRUE(FaultPlan::parse("seed=7,ber=1e-6,ecc=1e-4,timeout=0.01,"
                                 "garble=2e-3,retries=6,backoff_us=100",
                                 &cfg)
                    .isOk());
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_DOUBLE_EQ(cfg.bit_error_rate, 1e-6);
    EXPECT_DOUBLE_EQ(cfg.uncorrectable_rate, 1e-4);
    EXPECT_DOUBLE_EQ(cfg.timeout_rate, 0.01);
    EXPECT_DOUBLE_EQ(cfg.block_garble_rate, 2e-3);
    EXPECT_EQ(cfg.max_retries, 6u);
    EXPECT_EQ(cfg.retry_backoff.ps(), SimTime::microseconds(100).ps());
}

TEST(FaultPlanParseTest, RejectsUnknownAndMalformedKeys)
{
    FaultPlanConfig cfg;
    EXPECT_FALSE(FaultPlan::parse("bogus=1", &cfg).isOk());
    EXPECT_FALSE(FaultPlan::parse("ber", &cfg).isOk());
    EXPECT_FALSE(FaultPlan::parse("ber=notanumber", &cfg).isOk());
    EXPECT_FALSE(FaultPlan::parse("seed=12junk", &cfg).isOk());
}

TEST(FaultPlanTest, NullPlanNeverFaults)
{
    FaultPlan plan{FaultPlanConfig{}};
    for (uint64_t page = 0; page < 64; ++page) {
        ReadFault f = plan.drawRead(page, kPage);
        EXPECT_FALSE(f.failed());
        EXPECT_FALSE(f.corrupts());
    }
    EXPECT_EQ(plan.counters().draws, 64u);
    EXPECT_EQ(plan.counters().timeouts, 0u);
    EXPECT_EQ(plan.counters().bits_flipped, 0u);
}

TEST(FaultPlanTest, CertainTimeoutAlwaysFails)
{
    FaultPlanConfig cfg;
    cfg.timeout_rate = 1.0;
    FaultPlan plan(cfg);
    for (uint64_t page = 0; page < 16; ++page) {
        EXPECT_TRUE(plan.drawRead(page, kPage).timeout);
    }
    EXPECT_EQ(plan.counters().timeouts, 16u);
}

TEST(FaultPlanTest, BitErrorRateScalesWithRate)
{
    FaultPlanConfig cfg;
    cfg.seed = 11;
    cfg.bit_error_rate = 1e-3;  // ~33 expected flips per 4 KB page
    FaultPlan plan(cfg);
    uint64_t flips = 0;
    for (uint64_t page = 0; page < 100; ++page) {
        flips += plan.drawRead(page, kPage).flipped_bits.size();
    }
    double expected = 100.0 * kPage * 8 * cfg.bit_error_rate;
    EXPECT_GT(flips, expected * 0.5);
    EXPECT_LT(flips, expected * 1.5);
    EXPECT_EQ(plan.counters().bits_flipped, flips);
}

TEST(FaultPlanTest, DrawSequencesAreDeterministic)
{
    FaultPlanConfig cfg;
    cfg.seed = 3;
    cfg.bit_error_rate = 1e-5;
    cfg.timeout_rate = 0.05;
    cfg.uncorrectable_rate = 0.01;
    cfg.block_garble_rate = 0.02;
    FaultPlan plan_a(cfg);
    FaultPlan plan_b(cfg);
    for (uint64_t page = 0; page < 500; ++page) {
        ReadFault fa = plan_a.drawRead(page, kPage);
        ReadFault fb = plan_b.drawRead(page, kPage);
        EXPECT_EQ(fa.timeout, fb.timeout);
        EXPECT_EQ(fa.uncorrectable, fb.uncorrectable);
        EXPECT_EQ(fa.garble, fb.garble);
        EXPECT_EQ(fa.garble_offset, fb.garble_offset);
        EXPECT_EQ(fa.garble_seed, fb.garble_seed);
        EXPECT_EQ(fa.flipped_bits, fb.flipped_bits);
    }
    EXPECT_EQ(plan_a.counters().draws, plan_b.counters().draws);
    EXPECT_EQ(plan_a.counters().timeouts, plan_b.counters().timeouts);
    EXPECT_EQ(plan_a.counters().uncorrectable, plan_b.counters().uncorrectable);
    EXPECT_EQ(plan_a.counters().bits_flipped, plan_b.counters().bits_flipped);
    EXPECT_EQ(plan_a.counters().blocks_garbled, plan_b.counters().blocks_garbled);
}

TEST(FaultPlanTest, RepeatedReadsOfSamePageDrawIndependently)
{
    // The draw counter separates attempts: a page that timed out once
    // must not time out forever (that is what makes retries work).
    FaultPlanConfig cfg;
    cfg.seed = 5;
    cfg.timeout_rate = 0.5;
    FaultPlan plan(cfg);
    int timeouts = 0;
    for (int attempt = 0; attempt < 64; ++attempt) {
        timeouts += plan.drawRead(/*page_id=*/9, kPage).timeout ? 1 : 0;
    }
    EXPECT_GT(timeouts, 10);
    EXPECT_LT(timeouts, 54);
}

TEST(FaultPlanTest, ApplyCorruptionFlipsExactlyTheDrawnBits)
{
    FaultPlanConfig cfg;
    cfg.seed = 17;
    cfg.bit_error_rate = 1e-4;
    FaultPlan plan(cfg);
    ReadFault f;
    while (f.flipped_bits.empty()) {
        f = plan.drawRead(plan.counters().draws, kPage);
    }
    std::vector<uint8_t> page(kPage, 0);
    plan.applyCorruption(f, std::span<uint8_t>(page));
    size_t set_bits = 0;
    for (uint8_t b : page) {
        set_bits += static_cast<size_t>(__builtin_popcount(b));
    }
    EXPECT_EQ(set_bits, f.flipped_bits.size());
}

TEST(FaultPlanTest, GarbleReplacesTailDeterministically)
{
    FaultPlanConfig cfg;
    cfg.seed = 23;
    cfg.block_garble_rate = 1.0;
    FaultPlan plan(cfg);
    ReadFault f = plan.drawRead(0, kPage);
    ASSERT_TRUE(f.garble);
    ASSERT_LT(f.garble_offset, kPage);
    std::vector<uint8_t> p1(kPage, 0xaa);
    std::vector<uint8_t> p2(kPage, 0xaa);
    plan.applyCorruption(f, std::span<uint8_t>(p1));
    plan.applyCorruption(f, std::span<uint8_t>(p2));
    EXPECT_EQ(p1, p2);
    for (size_t i = 0; i < f.garble_offset; ++i) {
        ASSERT_EQ(p1[i], 0xaa);
    }
    EXPECT_EQ(plan.counters().blocks_garbled, 1u);
}

TEST(FaultPlanParseTest, WriteFaultKeysRoundTrip)
{
    FaultPlanConfig cfg;
    ASSERT_TRUE(
        FaultPlan::parse("seed=9,torn=0.25,drop=0.125,cut_after=42", &cfg)
            .isOk());
    EXPECT_EQ(cfg.seed, 9u);
    EXPECT_DOUBLE_EQ(cfg.torn_write_rate, 0.25);
    EXPECT_DOUBLE_EQ(cfg.dropped_write_rate, 0.125);
    EXPECT_EQ(cfg.power_cut_after_writes, 42u);
    EXPECT_FALSE(FaultPlan::parse("torn=nope", &cfg).isOk());
    EXPECT_FALSE(FaultPlan::parse("cut_after=1x", &cfg).isOk());
}

TEST(FaultPlanTest, NullPlanNeverFaultsWrites)
{
    FaultPlan plan{FaultPlanConfig{}};
    for (uint64_t page = 0; page < 64; ++page) {
        WriteFault f = plan.drawWrite(page, kPage);
        EXPECT_FALSE(f.damages());
        EXPECT_FALSE(f.power_cut);
    }
    EXPECT_EQ(plan.counters().write_draws, 64u);
    EXPECT_EQ(plan.counters().torn_writes, 0u);
    EXPECT_EQ(plan.counters().dropped_writes, 0u);
    EXPECT_EQ(plan.counters().power_cuts, 0u);
}

TEST(FaultPlanTest, PowerCutFiresOnExactWriteOrdinal)
{
    FaultPlanConfig cfg;
    cfg.seed = 13;
    cfg.power_cut_after_writes = 5;
    FaultPlan plan(cfg);
    for (uint64_t i = 1; i <= 8; ++i) {
        WriteFault f = plan.drawWrite(/*page_id=*/100 + i, kPage);
        EXPECT_EQ(f.power_cut, i == 5) << "write ordinal " << i;
        if (f.power_cut) {
            EXPECT_LE(f.persisted_bytes, kPage);
        }
    }
    EXPECT_EQ(plan.counters().write_draws, 8u);
    EXPECT_EQ(plan.counters().power_cuts, 1u);
}

TEST(FaultPlanTest, WriteDrawSequencesAreDeterministic)
{
    FaultPlanConfig cfg;
    cfg.seed = 19;
    cfg.torn_write_rate = 0.3;
    cfg.dropped_write_rate = 0.2;
    cfg.power_cut_after_writes = 400;
    FaultPlan plan_a(cfg);
    FaultPlan plan_b(cfg);
    for (uint64_t page = 0; page < 500; ++page) {
        WriteFault fa = plan_a.drawWrite(page, kPage);
        WriteFault fb = plan_b.drawWrite(page, kPage);
        EXPECT_EQ(fa.torn, fb.torn);
        EXPECT_EQ(fa.dropped, fb.dropped);
        EXPECT_EQ(fa.power_cut, fb.power_cut);
        EXPECT_EQ(fa.persisted_bytes, fb.persisted_bytes);
    }
    EXPECT_EQ(plan_a.counters().torn_writes,
              plan_b.counters().torn_writes);
    EXPECT_EQ(plan_a.counters().dropped_writes,
              plan_b.counters().dropped_writes);
    EXPECT_EQ(plan_a.counters().power_cuts, 1u);
    EXPECT_EQ(plan_b.counters().power_cuts, 1u);
}

TEST(FaultPlanTest, ReadDrawsDoNotShiftThePowerCutPoint)
{
    // Read retries draw from a separate ordinal stream, so a plan that
    // also injects read faults must cut power at the same write.
    FaultPlanConfig cfg;
    cfg.seed = 21;
    cfg.power_cut_after_writes = 3;
    FaultPlan quiet_plan(cfg);
    cfg.timeout_rate = 0.5;  // noisy read stream
    FaultPlan noisy_plan(cfg);
    for (uint64_t i = 0; i < 32; ++i) {
        noisy_plan.drawRead(i, kPage);
    }
    for (uint64_t i = 1; i <= 4; ++i) {
        EXPECT_EQ(quiet_plan.drawWrite(i, kPage).power_cut, i == 3);
        EXPECT_EQ(noisy_plan.drawWrite(i, kPage).power_cut, i == 3);
    }
}

TEST(FaultPlanTest, WriteMetricsMirrorCounters)
{
    obs::MetricsRegistry metrics;
    FaultPlanConfig cfg;
    cfg.seed = 31;
    cfg.torn_write_rate = 1.0;
    FaultPlan plan(cfg, &metrics);
    for (uint64_t page = 0; page < 6; ++page) {
        plan.drawWrite(page, kPage);
    }
    EXPECT_EQ(metrics.counter("fault.write_draws").value(), 6u);
    EXPECT_EQ(metrics.counter("fault.torn_writes").value(), 6u);
}

TEST(FaultPlanTest, MetricsMirrorCounters)
{
    obs::MetricsRegistry metrics;
    FaultPlanConfig cfg;
    cfg.seed = 29;
    cfg.timeout_rate = 1.0;
    FaultPlan plan(cfg, &metrics);
    for (uint64_t page = 0; page < 8; ++page) {
        plan.drawRead(page, kPage);
    }
    EXPECT_EQ(metrics.counter("fault.draws").value(), 8u);
    EXPECT_EQ(metrics.counter("fault.timeouts").value(), 8u);
}

} // namespace
} // namespace mithril::fault
