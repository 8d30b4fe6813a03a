/**
 * @file
 * mithril::fault — deterministic storage fault injection.
 *
 * The paper's platform is raw NAND behind an in-storage accelerator, an
 * environment where bit errors, ECC-uncorrectable pages, and command
 * timeouts are the *normal* failure mode rather than an exceptional one.
 * This module models that environment reproducibly: a FaultPlan is a
 * seeded description of fault rates that the storage layer consults on
 * every read command. All randomness flows through common/rng.h from the
 * plan seed, the page id, and a monotonic draw counter, so two runs with
 * the same plan produce bit-identical fault sequences, Status values,
 * metrics, and modeled SimTime.
 *
 * Gating policy (enforced by tools/mithril_lint.py, rule fault-gating):
 * fault hooks are reachable *only* through a FaultPlan attached to the
 * device model. No #ifdef fault builds, no global toggles — a null plan
 * means the hot path is byte-for-byte the unfaulted code.
 *
 * Fault classes (ISSUE 3 / paper Sections 2.2, 7.2):
 *   - bit flips:      per-bit Bernoulli over the page payload, sampled
 *                     with geometric gap-skipping so a 1e-6 BER costs a
 *                     handful of draws per page, not one per bit;
 *   - uncorrectable:  the device's ECC gives up on the whole read;
 *   - timeout:        the command never completes and is re-issued after
 *                     a modeled backoff (latency charged into SimTime);
 *   - garble:         the tail of the returned block is replaced with
 *                     deterministic noise, modeling a torn/truncated
 *                     compressed block.
 *
 * Write-side fault classes (ISSUE 4, crash consistency):
 *   - torn write:     the page program stops after a deterministic
 *                     prefix; the device still acks (a lying device —
 *                     detected at mount by journaled page CRCs);
 *   - dropped write:  the program never reaches the media but the
 *                     device acks (detected the same way);
 *   - power cut:      the Nth write draw halts the device mid-program:
 *                     a deterministic prefix persists, the command
 *                     fails with kUnavailable, and every later command
 *                     fails until the store is remounted via recovery.
 */
#ifndef MITHRIL_FAULT_FAULT_PLAN_H
#define MITHRIL_FAULT_FAULT_PLAN_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/simtime.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace mithril::fault {

/** Fault rates and retry policy; all rates are per read attempt. */
struct FaultPlanConfig {
    /** Root seed; every fault draw derives from it deterministically. */
    uint64_t seed = 1;
    /** Probability each stored bit reads back flipped (silent). */
    double bit_error_rate = 0.0;
    /** Probability a read fails as ECC-uncorrectable (reported). */
    double uncorrectable_rate = 0.0;
    /** Probability a read command times out (reported, retried). */
    double timeout_rate = 0.0;
    /** Probability the returned block comes back torn/garbled (silent). */
    double block_garble_rate = 0.0;
    /** Probability a page program persists only a prefix (silent). */
    double torn_write_rate = 0.0;
    /** Probability a page program never reaches the media (silent). */
    double dropped_write_rate = 0.0;
    /** Power cut fires on exactly this write draw ordinal (1-based);
     *  0 disables. The in-flight program persists a drawn prefix. */
    uint64_t power_cut_after_writes = 0;
    /**
     * Pre-biases the write-draw counter, so that write ordinals — and
     * with them power_cut_after_writes — stay *globally monotone*
     * across a crash/recover/reopen cycle that spans processes: a
     * second life attaching `write_base=<first life's draws at the
     * cut>` numbers its programs as a continuation of the first, and
     * `cut_after=` addresses any ordinal of the whole multi-generation
     * history. (Within one process the counter never resets, so
     * in-process reopen is monotone without this.) Note the per-draw
     * RNG mixes the *global* ordinal, so the drawn persisted prefix is
     * also a function of the whole history, not the life.
     */
    uint64_t write_draw_base = 0;
    /** Read re-issues the device attempts before declaring data loss. */
    unsigned max_retries = 4;
    /** Extra modeled delay before each re-issued command. */
    SimTime retry_backoff = SimTime::microseconds(250);
};

/** Outcome of one fault draw for one read attempt of one page. */
struct ReadFault {
    bool timeout = false;
    bool uncorrectable = false;
    bool garble = false;
    /** First garbled byte offset within the page (valid when garble). */
    uint32_t garble_offset = 0;
    /** Seed for the deterministic garble noise (valid when garble). */
    uint64_t garble_seed = 0;
    /** Bit offsets (little-endian within each byte) to flip. */
    std::vector<uint32_t> flipped_bits;

    /** The device reported the read failed; caller should retry. */
    bool failed() const { return timeout || uncorrectable; }
    /** The read "succeeded" but the returned bytes are damaged. */
    bool corrupts() const { return garble || !flipped_bits.empty(); }
};

/** Outcome of one fault draw for one page program (write). */
struct WriteFault {
    /** Program stopped after persisted_bytes; the device still acks. */
    bool torn = false;
    /** Program never reached the media; the device still acks. */
    bool dropped = false;
    /** Power failed mid-program: persisted_bytes land, then the device
     *  goes dark (every later command fails kUnavailable). */
    bool power_cut = false;
    /** Bytes of the program that reached the media (valid when torn or
     *  power_cut). */
    uint32_t persisted_bytes = 0;

    /** The write did not persist the full payload. */
    bool damages() const { return torn || dropped || power_cut; }
};

/**
 * Deterministic tallies of every fault one plan dealt. The `fault.*`
 * metrics mirror them, but a registry may be shared by several plans
 * (one per LogService shard); these are the plan's own, and
 * write_draws is the ordinal that picks the power-cut program.
 */
struct FaultCounters {
    uint64_t draws = 0;
    uint64_t timeouts = 0;
    uint64_t uncorrectable = 0;
    uint64_t bits_flipped = 0;
    uint64_t blocks_garbled = 0;
    uint64_t write_draws = 0;
    uint64_t torn_writes = 0;
    uint64_t dropped_writes = 0;
    uint64_t power_cuts = 0;
};

/**
 * A seeded fault schedule the storage layer consults on every read.
 *
 * Stateful: the draw counter advances on every drawRead, so repeated
 * reads of the same page see independent (but reproducible) faults —
 * that is what makes retry-with-backoff effective against transient
 * timeouts while persistent rates stay persistent in expectation.
 */
class FaultPlan
{
  public:
    /**
     * Counts its `fault.*` metrics into @p metrics (or, when null, a
     * registry of its own). A caller that wants them next to a system's
     * `ssd.*` counters passes that system's registry.
     */
    explicit FaultPlan(FaultPlanConfig config,
                       obs::MetricsRegistry *metrics = nullptr);

    /**
     * Parses a plan spec like
     *   "seed=7,ber=1e-6,timeout=0.01,ecc=1e-4,garble=1e-4,retries=4"
     * into @p out (keys: seed, ber, ecc, timeout, garble, torn, drop,
     * cut_after, write_base, retries, backoff_us). Unmentioned keys
     * keep their defaults; an empty spec is a valid all-zero
     * (null-fault) plan.
     */
    static Status parse(std::string_view spec, FaultPlanConfig *out);

    const FaultPlanConfig &config() const { return config_; }
    const FaultCounters &counters() const { return counters_; }

    /**
     * Draws the fault outcome for one read attempt of @p page_id with
     * @p page_bytes payload bytes. Advances the draw counter and the
     * fault counters (counting happens at draw time so the tally is
     * identical whether or not the caller applies the corruption).
     */
    ReadFault drawRead(uint64_t page_id, size_t page_bytes);

    /**
     * Draws the fault outcome for one page program of @p page_id with
     * @p page_bytes payload bytes. Advances the write-draw counter (a
     * separate ordinal stream from reads, so read retries never shift
     * the power-cut point) and the fault counters.
     */
    WriteFault drawWrite(uint64_t page_id, size_t page_bytes);

    /** Applies bit flips and garbling from @p f to a page copy. */
    void applyCorruption(const ReadFault &f,
                         std::span<uint8_t> page) const;

  private:
    FaultPlanConfig config_;
    FaultCounters counters_;
    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    obs::Counter *obs_[9] = {};
};

} // namespace mithril::fault

#endif // MITHRIL_FAULT_FAULT_PLAN_H
