/**
 * @file
 * Timed SSD device model: the near-storage platform MithriLog runs on.
 *
 * The model reproduces the two properties the paper's architecture
 * exploits (Sections 2.2, 3, 7.2):
 *
 *  1. the *internal* bandwidth between the NAND array and the on-device
 *     accelerator (4.8 GB/s on the BlueDBM prototype) exceeds the
 *     *external* PCIe link to the host (3.1 GB/s effective), and
 *  2. flash access is latency-bound for dependent (pointer-chasing)
 *     reads — about 100 us per hop — but many independent commands can be
 *     in flight across channels, so batched reads are bandwidth-bound.
 *
 * The model is analytic rather than event-driven: reads accrue modeled
 * time into a device clock using `max(latency chain, bytes / bandwidth)`
 * per batch, which is exactly the level of fidelity the paper's own
 * back-of-envelope analysis uses (Section 6.1).
 */
#ifndef MITHRIL_STORAGE_SSD_MODEL_H
#define MITHRIL_STORAGE_SSD_MODEL_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/simtime.h"
#include "common/status.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "storage/page_store.h"

namespace mithril::storage {

/** Which link a transfer crosses; determines the bandwidth bound. */
enum class Link {
    kInternal,  ///< NAND array -> on-device accelerator
    kExternal,  ///< NAND array -> host over PCIe
};

/** Device parameters; defaults reproduce the paper's prototype. */
struct SsdConfig {
    /** Aggregate internal flash bandwidth (4x BlueDBM cards). */
    double internal_bw_bps = 4.8e9;
    /** Effective host link bandwidth (PCIe Gen2 x8 via DMA). */
    double external_bw_bps = 3.1e9;
    /** Per-command flash read latency. */
    SimTime read_latency = SimTime::microseconds(100);
    /** Independent commands the device can overlap (channels x QD).
     *  Sized so 4 KB commands at 100 us latency sustain the internal
     *  bandwidth: 256 x 4 KB / 100 us ~ 10 GB/s of headroom. */
    unsigned parallel_commands = 256;
    /** Cost of a durability barrier (flushBarrier): drain in-flight
     *  programs and wait for the NAND to confirm. Modeled after a full
     *  channel round-trip plus program time (~400 us, the ballpark of a
     *  NAND page program plus command overhead). */
    SimTime flush_latency = SimTime::microseconds(400);
};

/** Comparison-platform storage (Section 7.2): RAID-0 of two NVMe SSDs. */
inline SsdConfig
comparisonSsdConfig()
{
    return SsdConfig{
        .internal_bw_bps = 7e9,  // software systems see only one link
        .external_bw_bps = 7e9,  // 7 GB/s measured peak in the paper
        .read_latency = SimTime::microseconds(80),
        .parallel_commands = 128,
    };
}

/**
 * A page store with a command-level timing model.
 *
 * All read/write entry points both move bytes and advance the modeled
 * device clock. Pure timing queries (time*) are also exposed so the
 * end-to-end performance model can reason about alternatives without
 * issuing traffic.
 */
class SsdModel
{
  public:
    /**
     * Counts into @p metrics (or, when null, a registry of its own):
     * `ssd.pages_read`/`pages_written`, `bytes_*`, the read command
     * kinds, `flushes`, `read_retries`, per-link busy time
     * (`ssd.internal_link_busy_ps` / `ssd.external_link_busy_ps`) and
     * the `ssd.batch_pages` histogram (independent commands in flight
     * per batch, capped by parallel_commands).
     */
    explicit SsdModel(SsdConfig config = SsdConfig{},
                      obs::MetricsRegistry *metrics = nullptr);

    PageStore &store() { return store_; }
    const PageStore &store() const { return store_; }
    const SsdConfig &config() const { return config_; }

    /** Modeled time consumed by all traffic since the last reset. */
    SimTime elapsed() const { return clock_; }

    /** Resets the modeled clock (not the stored data or counters). */
    void resetClock() { clock_ = SimTime(); }

    /**
     * Attaches a fault plan (non-owning; may be null to detach) and
     * binds it to the model's registry.
     *
     * With a plan attached every data-moving read consults it: timeouts
     * and ECC-uncorrectable outcomes are retried up to the plan's
     * max_retries with modeled backoff charged into the device clock
     * (`ssd.read_retries`), then surface as kDataLoss; silent bit flips
     * and block garbling damage the returned copy for upper layers'
     * CRC framing to catch. With no plan the data path is exactly the
     * unfaulted code.
     */
    void attachFaultPlan(fault::FaultPlan *plan);

    /** Currently attached fault plan, or null. */
    fault::FaultPlan *faultPlan() const { return fault_plan_; }

    // --- pure timing queries -------------------------------------------

    /**
     * Time for @p pages independent page reads over @p link.
     * Bandwidth-bound when the batch is large; one latency to first byte.
     */
    SimTime timeBatchRead(uint64_t pages, Link link) const;

    /**
     * Time for a dependent chain of @p hops reads (each must complete
     * before the next address is known), where each hop additionally
     * fans out to @p fanout_pages independent reads.  This is the index
     * traversal pattern of Section 6.1.
     */
    SimTime timeChainRead(uint64_t hops, uint64_t fanout_pages,
                          Link link) const;

    /** Time to write @p pages (treated like batched reads; NAND program
     *  time folds into the same bandwidth envelope at this fidelity). */
    SimTime timeBatchWrite(uint64_t pages) const;

    // --- metered data operations ---------------------------------------

    /** Allocates a page (no modeled cost; allocation is bookkeeping). */
    PageId allocate() { return store_.allocate(); }

    /**
     * Writes @p data to @p id and accrues modeled write time.
     *
     * Fails with kInvalidArgument for an out-of-range id or oversized
     * payload and kUnavailable once power is lost. With a fault plan
     * attached every program consults it: a power cut persists a drawn
     * prefix, kills the device (powerLost()), and surfaces as
     * kUnavailable; torn and dropped programs persist a prefix or
     * nothing but still return ok — a lying device whose damage upper
     * layers detect at mount time via journaled CRCs.
     */
    [[nodiscard]] Status writePage(PageId id,
                                   std::span<const uint8_t> data);

    /**
     * Programs a *physical* slot (segment-cleaner migration copy):
     * metered and fault-drawn exactly like writePage — a power cut here
     * is a crash point the checkpoint crash grid sweeps — but addressed
     * physically, so the logical map only retargets after the copy is
     * durable and verified (DESIGN.md §14).
     */
    [[nodiscard]] Status writePhysical(uint64_t slot,
                                       std::span<const uint8_t> data);

    /** Reads back a physical slot for post-copy verification: charges
     *  transfer time (the verify read pipelines behind the migration
     *  batch) and returns a read-only view of the media bytes, damage
     *  included — that is the point of the verify. */
    Status readPhysical(uint64_t slot, std::span<const uint8_t> *out);

    /**
     * Durability barrier: drains in-flight programs so every write
     * acked before this call is on the media. Charges the config's
     * flush_latency into the clock and counts `ssd.flushes`. Fails
     * with kUnavailable once power is lost.
     */
    [[nodiscard]] Status flushBarrier();

    /** True once a power-cut fault killed the device; every later
     *  command fails kUnavailable until the image is remounted. */
    bool powerLost() const { return power_lost_; }

    /**
     * Reads a batch of independent pages over @p link, appending their
     * bytes to @p out, and accrues modeled time for the whole batch.
     * Fails with kInvalidArgument for an unallocated id and kDataLoss
     * when a page stays unreadable after the fault plan's retries; on
     * failure @p out is left as it was on entry.
     */
    Status readBatch(std::span<const PageId> ids, Link link,
                     std::vector<uint8_t> *out);

    /** Reads one page in a dependent chain (pointer chase): charges a
     *  full read latency. Replaces @p out with the page bytes. */
    Status readChained(PageId id, Link link, std::vector<uint8_t> *out);

    /** Reads one page that pipelines behind other outstanding work
     *  (latency hidden, transfer time charged). Replaces @p out. */
    Status readOverlapped(PageId id, Link link,
                          std::vector<uint8_t> *out);

    /**
     * Re-issues a read after an upper layer rejected the returned bytes
     * (CRC mismatch): charges the plan's backoff plus a fresh command
     * latency, counts `ssd.read_retries`, and replaces @p out.
     */
    Status rereadPage(PageId id, Link link, std::vector<uint8_t> *out);

    /** Accounts a batch of independent page reads that pipeline behind
     *  other outstanding work (latency hidden): charges transfer time
     *  only. The caller reads the data through store(). */
    void chargeOverlappedRead(uint64_t pages, Link link);

    /** Counts one page an upper layer programmed through store()
     *  directly (index nodes): `ssd.pages_written` and
     *  `ssd.bytes_written` only, with no modeled time and no fault
     *  draw. */
    void countDirectWrite()
    {
        counters_.pages_written->add();
        counters_.bytes_written->add(kPageSize);
    }

  private:
    double bandwidth(Link link) const;
    /** Charges @p busy and counts @p pages read over @p link as one
     *  command of @p kind. */
    void meterRead(uint64_t pages, SimTime busy, Link link,
                   obs::Counter *kind);
    Status fetchPage(PageId id, std::vector<uint8_t> *out);

    SsdConfig config_;
    PageStore store_;
    SimTime clock_;
    bool power_lost_ = false;
    fault::FaultPlan *fault_plan_ = nullptr;
    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    obs::MetricsRegistry *metrics_ = nullptr;

    /** `ssd.*` handles, resolved once at construction. */
    struct Counters {
        obs::Counter *pages_read = nullptr;
        obs::Counter *bytes_read = nullptr;
        obs::Counter *pages_written = nullptr;
        obs::Counter *bytes_written = nullptr;
        obs::Counter *read_commands = nullptr;
        obs::Counter *chained_reads = nullptr;
        obs::Counter *overlapped_reads = nullptr;
        obs::Counter *read_retries = nullptr;
        obs::Counter *flushes = nullptr;
        obs::Counter *link_busy_ps[2] = {};  ///< internal, external
        obs::Histogram *batch_pages = nullptr;
    } counters_;
};

} // namespace mithril::storage

#endif // MITHRIL_STORAGE_SSD_MODEL_H
