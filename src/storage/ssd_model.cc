#include "storage/ssd_model.h"

#include <algorithm>
#include <string>

namespace mithril::storage {

SsdModel::SsdModel(SsdConfig config, obs::MetricsRegistry *metrics)
    : config_(config),
      metrics_(&obs::registryOrOwn(metrics, &owned_metrics_))
{
    counters_.pages_read = &metrics_->counter("ssd.pages_read");
    counters_.bytes_read = &metrics_->counter("ssd.bytes_read");
    counters_.pages_written = &metrics_->counter("ssd.pages_written");
    counters_.bytes_written = &metrics_->counter("ssd.bytes_written");
    counters_.read_commands = &metrics_->counter("ssd.read_commands");
    counters_.chained_reads = &metrics_->counter("ssd.chained_reads");
    counters_.overlapped_reads =
        &metrics_->counter("ssd.overlapped_reads");
    counters_.read_retries = &metrics_->counter("ssd.read_retries");
    counters_.flushes = &metrics_->counter("ssd.flushes");
    counters_.link_busy_ps[0] =
        &metrics_->counter("ssd.internal_link_busy_ps");
    counters_.link_busy_ps[1] =
        &metrics_->counter("ssd.external_link_busy_ps");
    counters_.batch_pages = &metrics_->quantileHistogram("ssd.batch_pages");
}

double
SsdModel::bandwidth(Link link) const
{
    return link == Link::kInternal ? config_.internal_bw_bps
                                   : config_.external_bw_bps;
}

void
SsdModel::meterRead(uint64_t pages, SimTime busy, Link link,
                    obs::Counter *kind)
{
    clock_ += busy;
    counters_.pages_read->add(pages);
    counters_.bytes_read->add(pages * kPageSize);
    kind->add();
    counters_.link_busy_ps[link == Link::kInternal ? 0 : 1]->add(busy.ps());
    counters_.batch_pages->record(
        std::min<uint64_t>(pages, config_.parallel_commands));
}

SimTime
SsdModel::timeBatchRead(uint64_t pages, Link link) const
{
    if (pages == 0) {
        return SimTime();
    }
    // Commands beyond the device's parallelism serialize in waves;
    // within the envelope the transfer is bandwidth-bound. One latency
    // covers time-to-first-byte; later waves pipeline behind it.
    uint64_t waves =
        (pages + config_.parallel_commands - 1) / config_.parallel_commands;
    SimTime transfer =
        SimTime::transfer(pages * kPageSize, bandwidth(link));
    SimTime extra_waves =
        SimTime::picoseconds(config_.read_latency.ps() * (waves - 1));
    return config_.read_latency + SimTime::max(transfer, extra_waves);
}

SimTime
SsdModel::timeChainRead(uint64_t hops, uint64_t fanout_pages,
                        Link link) const
{
    if (hops == 0) {
        return SimTime();
    }
    // Each hop: one dependent read latency, then the fanout pages read as
    // an independent batch overlapping the next hop's latency only after
    // the hop's own page returned.
    SimTime per_hop = config_.read_latency;
    SimTime fanout = timeBatchRead(fanout_pages, link);
    SimTime total;
    for (uint64_t h = 0; h < hops; ++h) {
        total += per_hop;
    }
    // Fanout batches across hops pipeline with the chain; they add only
    // where they exceed the chain latency per hop.
    SimTime fanout_total =
        SimTime::picoseconds(fanout.ps() * hops);
    return SimTime::max(total, fanout_total);
}

Status
SsdModel::writePage(PageId id, std::span<const uint8_t> data)
{
    if (power_lost_) {
        return Status::unavailable("device power lost");
    }
    if (!store_.contains(id) || data.size() > kPageSize) {
        // Validate before charging time or drawing a fault so a bad
        // call never perturbs the deterministic fault stream.
        return Status::invalidArgument(
            "bad page program: id " + std::to_string(id) + ", " +
            std::to_string(data.size()) + " bytes");
    }
    clock_ += SimTime::transfer(kPageSize, config_.internal_bw_bps);
    counters_.pages_written->add();
    counters_.bytes_written->add(data.size());
    if (fault_plan_ != nullptr) {
        fault::WriteFault f = fault_plan_->drawWrite(id, data.size());
        if (f.power_cut) {
            // The in-flight program lands a prefix, then the device
            // goes dark: this command and every later one fail.
            MITHRIL_RETURN_IF_ERROR(
                store_.write(id, data.first(f.persisted_bytes)));
            power_lost_ = true;
            return Status::unavailable(
                "power cut during program of page " + std::to_string(id));
        }
        if (f.dropped) {
            return Status::ok(); // acked, never reached the media
        }
        if (f.torn) {
            return store_.write(id, data.first(f.persisted_bytes));
        }
    }
    return store_.write(id, data);
}

Status
SsdModel::writePhysical(uint64_t slot, std::span<const uint8_t> data)
{
    if (power_lost_) {
        return Status::unavailable("device power lost");
    }
    if (slot >= store_.physicalSlotCount() || data.size() > kPageSize) {
        // Validate before charging time or drawing a fault so a bad
        // call never perturbs the deterministic fault stream.
        return Status::invalidArgument(
            "bad physical program: slot " + std::to_string(slot) + ", " +
            std::to_string(data.size()) + " bytes");
    }
    clock_ += SimTime::transfer(kPageSize, config_.internal_bw_bps);
    counters_.pages_written->add();
    counters_.bytes_written->add(data.size());
    if (fault_plan_ != nullptr) {
        fault::WriteFault f = fault_plan_->drawWrite(slot, data.size());
        if (f.power_cut) {
            MITHRIL_RETURN_IF_ERROR(
                store_.writePhysical(slot, data.first(f.persisted_bytes)));
            power_lost_ = true;
            return Status::unavailable(
                "power cut during program of slot " + std::to_string(slot));
        }
        if (f.dropped) {
            return Status::ok(); // acked, never reached the media
        }
        if (f.torn) {
            return store_.writePhysical(slot, data.first(f.persisted_bytes));
        }
    }
    return store_.writePhysical(slot, data);
}

Status
SsdModel::readPhysical(uint64_t slot, std::span<const uint8_t> *out)
{
    if (power_lost_) {
        return Status::unavailable("device power lost");
    }
    meterRead(1, SimTime::transfer(kPageSize, config_.internal_bw_bps),
              Link::kInternal, counters_.overlapped_reads);
    return store_.readPhysical(slot, out);
}

Status
SsdModel::flushBarrier()
{
    if (power_lost_) {
        return Status::unavailable("device power lost");
    }
    clock_ += config_.flush_latency;
    counters_.flushes->add();
    return Status::ok();
}

/**
 * Moves one page's bytes into @p out (appending), consulting the fault
 * plan. Device-reported failures (timeout, ECC-uncorrectable) are
 * retried in place with backoff + a fresh command latency charged into
 * the clock; silent corruption damages the appended copy. Timing for
 * the *initial* command is the caller's responsibility, which keeps
 * batch/chained/overlapped charging identical to the unfaulted model.
 */
Status
SsdModel::fetchPage(PageId id, std::vector<uint8_t> *out)
{
    if (power_lost_) {
        return Status::unavailable("device power lost");
    }
    std::span<const uint8_t> view;
    MITHRIL_RETURN_IF_ERROR(store_.read(id, &view));
    if (fault_plan_ == nullptr) {
        out->insert(out->end(), view.begin(), view.end());
        return Status::ok();
    }
    unsigned attempts = fault_plan_->config().max_retries + 1;
    for (unsigned attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            clock_ +=
                config_.read_latency + fault_plan_->config().retry_backoff;
            counters_.read_retries->add();
        }
        fault::ReadFault f = fault_plan_->drawRead(id, kPageSize);
        if (f.failed()) {
            continue;
        }
        size_t base = out->size();
        out->insert(out->end(), view.begin(), view.end());
        if (f.corrupts()) {
            fault_plan_->applyCorruption(
                f, std::span<uint8_t>(out->data() + base, kPageSize));
        }
        return Status::ok();
    }
    return Status::dataLoss("page " + std::to_string(id) +
                            " unreadable after " +
                            std::to_string(attempts) + " attempts");
}

Status
SsdModel::readBatch(std::span<const PageId> ids, Link link,
                    std::vector<uint8_t> *out)
{
    std::vector<uint8_t> batch;
    batch.reserve(ids.size() * kPageSize);
    for (PageId id : ids) {
        MITHRIL_RETURN_IF_ERROR(fetchPage(id, &batch));
    }
    meterRead(ids.size(), timeBatchRead(ids.size(), link), link,
              counters_.read_commands);
    out->insert(out->end(), batch.begin(), batch.end());
    return Status::ok();
}

void
SsdModel::chargeOverlappedRead(uint64_t pages, Link link)
{
    meterRead(pages, SimTime::transfer(pages * kPageSize, bandwidth(link)),
              link, counters_.overlapped_reads);
}

Status
SsdModel::readChained(PageId id, Link link, std::vector<uint8_t> *out)
{
    meterRead(1,
              config_.read_latency +
                  SimTime::transfer(kPageSize, bandwidth(link)),
              link, counters_.chained_reads);
    out->clear();
    return fetchPage(id, out);
}

Status
SsdModel::readOverlapped(PageId id, Link link, std::vector<uint8_t> *out)
{
    meterRead(1, SimTime::transfer(kPageSize, bandwidth(link)), link,
              counters_.overlapped_reads);
    out->clear();
    return fetchPage(id, out);
}

Status
SsdModel::rereadPage(PageId id, Link link, std::vector<uint8_t> *out)
{
    SimTime backoff = fault_plan_ != nullptr
                          ? fault_plan_->config().retry_backoff
                          : SimTime();
    meterRead(1,
              backoff + config_.read_latency +
                  SimTime::transfer(kPageSize, bandwidth(link)),
              link, counters_.read_retries);
    out->clear();
    return fetchPage(id, out);
}

} // namespace mithril::storage
