/**
 * @file
 * Concurrent recording into obs::Histogram — part of the "svc" label
 * so the TSan tier (ctest --preset tsan) proves the relaxed-atomic
 * recording path clean under real cross-thread interleavings: raw
 * parallel recorders on one shared histogram, and the full service
 * path where worker threads record the svc.* stage latencies while
 * producers append and query concurrently.
 */
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "svc/log_service.h"

namespace mithril {
namespace {

TEST(HistogramConcurrency, ParallelRecordersLoseNothing)
{
    obs::Histogram h;
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                // Distinct per-thread ranges so min/max are known.
                h.record(static_cast<uint64_t>(t) * kPerThread + i + 1);
            }
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    constexpr uint64_t kTotal = kThreads * kPerThread;
    EXPECT_EQ(h.count(), kTotal);
    EXPECT_EQ(h.sum(), kTotal * (kTotal + 1) / 2);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), kTotal);
    uint64_t bucket_total = 0;
    for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
        bucket_total += h.bucketCount(i);
    }
    EXPECT_EQ(bucket_total, kTotal);
    obs::Quantiles q = h.quantiles();
    EXPECT_LE(q.p50, q.p90);
    EXPECT_LE(q.p99, q.p999);
    EXPECT_LE(q.p999, h.max());
}

TEST(MetricsConcurrency, ConcurrentIncrementsLoseNoUpdates)
{
    obs::MetricsRegistry m;
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 50000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&m] {
            // Half resolve the counter fresh each time (exercising
            // registry locking), half cache the handle (the hot-path
            // pattern).
            obs::Counter &cached = m.counter("test.hits");
            for (uint64_t i = 0; i < kPerThread; ++i) {
                if (i % 2 == 0) {
                    m.counter("test.hits").add();
                } else {
                    cached.add();
                }
            }
        });
    }
    for (auto &th : threads) {
        th.join();
    }
    EXPECT_EQ(m.counterValue("test.hits"), kThreads * kPerThread);
}

TEST(HistogramConcurrency, ConcurrentRegistryLookupsShareOneHistogram)
{
    obs::MetricsRegistry metrics;
    constexpr int kThreads = 6;
    constexpr uint64_t kPerThread = 5000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&metrics] {
            // findOrCreate under contention must hand every thread the
            // same histogram.
            obs::Histogram &h =
                metrics.quantileHistogram("svc.contended.sim_ps");
            for (uint64_t i = 0; i < kPerThread; ++i) {
                h.record(i + 1);
            }
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    EXPECT_EQ(metrics.quantileHistogram("svc.contended.sim_ps").count(),
              kThreads * kPerThread);
}

TEST(HistogramConcurrency, SvcWorkersRecordStageLatencies)
{
    obs::MetricsRegistry metrics;
    svc::LogServiceConfig cfg;
    cfg.shards = 4;
    cfg.threads = 4;
    cfg.batch_lines = 16;
    cfg.metrics = &metrics;
    svc::LogService service(cfg);

    // Concurrent producers + a querying thread: worker threads record
    // svc.queue_wait/svc.batch_apply while the query path records
    // svc.shard_query/svc.query_fanout/svc.merge.
    constexpr int kProducers = 3;
    std::atomic<bool> stop{false};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&service, p] {
            for (int i = 0; i < 400; ++i) {
                std::string line = "producer" + std::to_string(p) +
                                   " payload line " + std::to_string(i);
                Status st = service.append(line);
                while (st.code() == StatusCode::kResourceExhausted) {
                    service.drain();
                    st = service.append(line);
                }
                ASSERT_TRUE(st.isOk()) << st.toString();
            }
        });
    }
    std::thread querier([&service, &stop] {
        // At least one query even when the producers finish before
        // this thread is first scheduled: the query-side stages below
        // must have something to record.
        do {
            svc::ServiceQueryResult r;
            Status st = service.query("payload", &r);
            ASSERT_TRUE(st.isOk()) << st.toString();
        } while (!stop.load());
    });
    for (std::thread &t : producers) {
        t.join();
    }
    stop.store(true);
    querier.join();
    ASSERT_TRUE(service.flush().isOk());

    obs::MetricsSnapshot snap = metrics.snapshot();
    for (const char *stage :
         {"svc.queue_wait.wall_ns", "svc.batch_apply.wall_ns",
          "svc.shard_query.wall_ns", "svc.query_fanout.wall_ns",
          "svc.merge.wall_ns"}) {
        auto it = snap.quantile_histograms.find(stage);
        ASSERT_NE(it, snap.quantile_histograms.end()) << stage;
        EXPECT_GT(it->second.count, 0u) << stage;
    }
    // The modeled domain for the stages that carry one.
    EXPECT_GT(snap.quantile_histograms.at("svc.batch_apply.sim_ps")
                  .count,
              0u);
    EXPECT_GT(snap.quantile_histograms.at("svc.query_fanout.sim_ps")
                  .count,
              0u);
}

} // namespace
} // namespace mithril
