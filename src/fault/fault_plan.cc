#include "fault/fault_plan.h"

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/hash.h"
#include "common/rng.h"

namespace mithril::fault {

namespace {

enum ObsSlot {
    kObsDraws = 0,
    kObsTimeouts,
    kObsUncorrectable,
    kObsBitsFlipped,
    kObsBlocksGarbled,
    kObsWriteDraws,
    kObsTornWrites,
    kObsDroppedWrites,
    kObsPowerCuts,
};

/** Domain separator so write draws use an RNG stream independent of
 *  the read draws for the same (seed, page). */
constexpr uint64_t kWriteStream = 0x57524954u;  // "WRIT"

/**
 * Geometric(p) gap: clean bits to skip before the next flipped bit.
 * Inverse-CDF sampling keeps a 1e-6 BER at ~0 draws per 4 KB page
 * instead of 32768 Bernoulli trials.
 */
uint64_t
geometricGap(Rng &rng, double p)
{
    double denom = std::log1p(-p); // < 0 for p in (0, 1]; -inf at p = 1
    double g = std::log1p(-rng.uniform()) / denom;
    if (!(g < 1e18)) {
        g = 1e18;
    }
    return static_cast<uint64_t>(g);
}

Status
parseDouble(std::string_view key, std::string_view value, double lo,
            double hi, double *out)
{
    std::string buf(value);
    char *end = nullptr;
    double v = std::strtod(buf.c_str(), &end);
    if (end == buf.c_str() || *end != '\0' || !(v >= lo) || !(v <= hi)) {
        return Status::invalidArgument("fault plan: bad value for '" +
                                       std::string(key) + "': " + buf);
    }
    *out = v;
    return Status::ok();
}

Status
parseU64(std::string_view key, std::string_view value, uint64_t *out)
{
    std::string buf(value);
    char *end = nullptr;
    uint64_t v = std::strtoull(buf.c_str(), &end, 0);
    if (end == buf.c_str() || *end != '\0') {
        return Status::invalidArgument("fault plan: bad value for '" +
                                       std::string(key) + "': " + buf);
    }
    *out = v;
    return Status::ok();
}

} // namespace

FaultPlan::FaultPlan(FaultPlanConfig config,
                     obs::MetricsRegistry *metrics)
    : config_(config)
{
    MITHRIL_ASSERT(config_.bit_error_rate >= 0 &&
                   config_.bit_error_rate <= 1);
    MITHRIL_ASSERT(config_.uncorrectable_rate >= 0 &&
                   config_.uncorrectable_rate <= 1);
    MITHRIL_ASSERT(config_.timeout_rate >= 0 && config_.timeout_rate <= 1);
    MITHRIL_ASSERT(config_.block_garble_rate >= 0 &&
                   config_.block_garble_rate <= 1);
    MITHRIL_ASSERT(config_.torn_write_rate >= 0 &&
                   config_.torn_write_rate <= 1);
    MITHRIL_ASSERT(config_.dropped_write_rate >= 0 &&
                   config_.dropped_write_rate <= 1);
    // Start the write-ordinal stream at the configured base so
    // cut_after= can address ordinals of a multi-generation history
    // (see FaultPlanConfig::write_draw_base).
    counters_.write_draws = config_.write_draw_base;

    obs::MetricsRegistry &m = obs::registryOrOwn(metrics, &owned_metrics_);
    obs_[kObsDraws] = &m.counter("fault.draws");
    obs_[kObsTimeouts] = &m.counter("fault.timeouts");
    obs_[kObsUncorrectable] = &m.counter("fault.uncorrectable");
    obs_[kObsBitsFlipped] = &m.counter("fault.bits_flipped");
    obs_[kObsBlocksGarbled] = &m.counter("fault.blocks_garbled");
    obs_[kObsWriteDraws] = &m.counter("fault.write_draws");
    obs_[kObsTornWrites] = &m.counter("fault.torn_writes");
    obs_[kObsDroppedWrites] = &m.counter("fault.dropped_writes");
    obs_[kObsPowerCuts] = &m.counter("fault.power_cuts");
}

Status
FaultPlan::parse(std::string_view spec, FaultPlanConfig *out)
{
    FaultPlanConfig cfg;
    std::string_view rest = spec;
    while (!rest.empty()) {
        size_t comma = rest.find(',');
        std::string_view item = rest.substr(0, comma);
        rest = comma == std::string_view::npos
                   ? std::string_view{}
                   : rest.substr(comma + 1);
        if (item.empty()) {
            continue;
        }
        size_t eq = item.find('=');
        if (eq == std::string_view::npos) {
            return Status::invalidArgument(
                "fault plan: expected key=value, got '" +
                std::string(item) + "'");
        }
        std::string_view key = item.substr(0, eq);
        std::string_view value = item.substr(eq + 1);
        if (key == "seed") {
            MITHRIL_RETURN_IF_ERROR(parseU64(key, value, &cfg.seed));
        } else if (key == "ber") {
            MITHRIL_RETURN_IF_ERROR(
                parseDouble(key, value, 0.0, 1.0, &cfg.bit_error_rate));
        } else if (key == "ecc") {
            MITHRIL_RETURN_IF_ERROR(parseDouble(
                key, value, 0.0, 1.0, &cfg.uncorrectable_rate));
        } else if (key == "timeout") {
            MITHRIL_RETURN_IF_ERROR(
                parseDouble(key, value, 0.0, 1.0, &cfg.timeout_rate));
        } else if (key == "garble") {
            MITHRIL_RETURN_IF_ERROR(parseDouble(
                key, value, 0.0, 1.0, &cfg.block_garble_rate));
        } else if (key == "torn") {
            MITHRIL_RETURN_IF_ERROR(parseDouble(
                key, value, 0.0, 1.0, &cfg.torn_write_rate));
        } else if (key == "drop") {
            MITHRIL_RETURN_IF_ERROR(parseDouble(
                key, value, 0.0, 1.0, &cfg.dropped_write_rate));
        } else if (key == "cut_after") {
            MITHRIL_RETURN_IF_ERROR(
                parseU64(key, value, &cfg.power_cut_after_writes));
        } else if (key == "write_base") {
            MITHRIL_RETURN_IF_ERROR(
                parseU64(key, value, &cfg.write_draw_base));
        } else if (key == "retries") {
            uint64_t v = 0;
            MITHRIL_RETURN_IF_ERROR(parseU64(key, value, &v));
            cfg.max_retries = static_cast<unsigned>(v);
        } else if (key == "backoff_us") {
            double us = 0;
            MITHRIL_RETURN_IF_ERROR(
                parseDouble(key, value, 0.0, 1e9, &us));
            cfg.retry_backoff = SimTime::microseconds(us);
        } else {
            return Status::invalidArgument("fault plan: unknown key '" +
                                           std::string(key) + "'");
        }
    }
    *out = cfg;
    return Status::ok();
}

ReadFault
FaultPlan::drawRead(uint64_t page_id, size_t page_bytes)
{
    ReadFault fault;
    ++counters_.draws;
    obs_[kObsDraws]->add();
    // One independent stream per (plan seed, page, draw ordinal): the
    // same plan replays the same faults in the same order, but a retry
    // of the same page gets a fresh draw.
    Rng rng(mix64(mix64(config_.seed ^ page_id) + counters_.draws));

    if (config_.timeout_rate > 0 && rng.chance(config_.timeout_rate)) {
        fault.timeout = true;
        ++counters_.timeouts;
        obs_[kObsTimeouts]->add();
        return fault;
    }
    if (config_.uncorrectable_rate > 0 &&
        rng.chance(config_.uncorrectable_rate)) {
        fault.uncorrectable = true;
        ++counters_.uncorrectable;
        obs_[kObsUncorrectable]->add();
        return fault;
    }
    if (config_.block_garble_rate > 0 &&
        rng.chance(config_.block_garble_rate)) {
        fault.garble = true;
        fault.garble_offset =
            static_cast<uint32_t>(rng.below(page_bytes > 0 ? page_bytes
                                                           : 1));
        fault.garble_seed = rng.next();
        ++counters_.blocks_garbled;
        obs_[kObsBlocksGarbled]->add();
    }
    if (config_.bit_error_rate > 0) {
        uint64_t bits = static_cast<uint64_t>(page_bytes) * 8;
        uint64_t pos = geometricGap(rng, config_.bit_error_rate);
        while (pos < bits) {
            fault.flipped_bits.push_back(static_cast<uint32_t>(pos));
            pos += 1 + geometricGap(rng, config_.bit_error_rate);
        }
        counters_.bits_flipped += fault.flipped_bits.size();
        obs_[kObsBitsFlipped]->add(fault.flipped_bits.size());
    }
    return fault;
}

WriteFault
FaultPlan::drawWrite(uint64_t page_id, size_t page_bytes)
{
    WriteFault fault;
    ++counters_.write_draws;
    obs_[kObsWriteDraws]->add();
    // Independent stream per (plan seed, page, write ordinal); the
    // kWriteStream separator keeps it disjoint from read draws so the
    // same plan replays the same crash point regardless of how many
    // read retries happened in between.
    Rng rng(mix64(mix64(config_.seed ^ page_id ^ kWriteStream) +
                  counters_.write_draws));

    if (config_.power_cut_after_writes > 0 &&
        counters_.write_draws == config_.power_cut_after_writes) {
        fault.power_cut = true;
        fault.persisted_bytes =
            static_cast<uint32_t>(rng.below(page_bytes + 1));
        ++counters_.power_cuts;
        obs_[kObsPowerCuts]->add();
        return fault;
    }
    if (config_.torn_write_rate > 0 &&
        rng.chance(config_.torn_write_rate)) {
        fault.torn = true;
        fault.persisted_bytes =
            static_cast<uint32_t>(rng.below(page_bytes + 1));
        ++counters_.torn_writes;
        obs_[kObsTornWrites]->add();
        return fault;
    }
    if (config_.dropped_write_rate > 0 &&
        rng.chance(config_.dropped_write_rate)) {
        fault.dropped = true;
        ++counters_.dropped_writes;
        obs_[kObsDroppedWrites]->add();
    }
    return fault;
}

void
FaultPlan::applyCorruption(const ReadFault &f,
                           std::span<uint8_t> page) const
{
    for (uint32_t bit : f.flipped_bits) {
        size_t byte = bit / 8;
        if (byte < page.size()) {
            page[byte] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
    }
    if (f.garble && f.garble_offset < page.size()) {
        Rng noise(f.garble_seed);
        for (size_t i = f.garble_offset; i < page.size(); ++i) {
            page[i] = static_cast<uint8_t>(noise.next());
        }
    }
}

} // namespace mithril::fault
