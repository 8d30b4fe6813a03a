#include "perfbench/spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "perfbench/stats.h"

namespace mithril::perfbench {

namespace {

/** Layer of a program span the obs::Tracer emits. */
std::string
programLayer(std::string_view name)
{
    static const std::pair<std::string_view, std::string_view> kMap[] = {
        {"recover.journal_replay", "storage"},
        {"recover.verify_pages", "storage"},
        {"recover.sweep", "storage"},
        {"recover.index_rebuild", "index"},
        {"checkpoint.truncate", "storage"},
        {"checkpoint.clean", "storage"},
        {"query.index_lookup", "index"},
        {"query.typed_lookup", "typed"},
        {"query.compile", "accel"},
        {"query.page_stream", "storage"},
        {"query.filter", "accel"},
    };
    for (const auto &[prefix, layer] : kMap) {
        if (name == prefix) {
            return std::string(layer);
        }
    }
    return "core";  // recover, checkpoint, query, ingest.seal, ...
}

std::string
layerOf(std::string_view name)
{
    size_t dot = name.find('.');
    return std::string(dot == std::string_view::npos ? name
                                                     : name.substr(0, dot));
}

/** Length of the union of @p intervals clipped to [lo, hi]. */
uint64_t
coveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
          uint64_t lo, uint64_t hi)
{
    std::sort(intervals.begin(), intervals.end());
    uint64_t covered = 0;
    uint64_t cursor = lo;
    for (auto [s, e] : intervals) {
        s = std::max(s, cursor);
        e = std::min(e, hi);
        if (e > s) {
            covered += e - s;
            cursor = e;
        }
    }
    return covered;
}

} // namespace

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

uint64_t
SpanLog::nowNs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

uint64_t
SpanLog::open(std::string_view name, uint64_t parent, uint64_t request)
{
    if (!enabled_) {
        return 0;
    }
    SpanRecord rec;
    rec.parent = parent;
    rec.request = request;
    rec.name = std::string(name);
    rec.layer = layerOf(name);
    MutexLock lock(mu_);
    rec.id = spans_.size() + 1;
    rec.start_ns = nowNs();
    spans_.push_back(std::move(rec));
    return spans_.back().id;
}

void
SpanLog::close(uint64_t id)
{
    if (id == 0) {
        return;
    }
    uint64_t now = nowNs();
    MutexLock lock(mu_);
    spans_[id - 1].end_ns = now;
}

void
SpanLog::adopt(const std::vector<obs::TraceEvent> &events,
               std::chrono::steady_clock::time_point tracer_epoch,
               uint64_t parent, uint64_t request)
{
    if (!enabled_ || events.empty()) {
        return;
    }
    int64_t shift =
        std::chrono::duration_cast<std::chrono::nanoseconds>(tracer_epoch -
                                                             epoch_)
            .count();
    std::vector<const obs::TraceEvent *> order;
    for (const obs::TraceEvent &e : events) {
        order.push_back(&e);
    }
    // Outer spans first: earlier start, then longer duration.
    std::sort(order.begin(), order.end(),
              [](const obs::TraceEvent *a, const obs::TraceEvent *b) {
                  if (a->wall_start_ns != b->wall_start_ns) {
                      return a->wall_start_ns < b->wall_start_ns;
                  }
                  return a->wall_dur_ns > b->wall_dur_ns;
              });
    MutexLock lock(mu_);
    std::vector<std::pair<uint64_t, uint64_t>> stack;  // (id, end_ns)
    for (const obs::TraceEvent *e : order) {
        SpanRecord rec;
        int64_t start = static_cast<int64_t>(e->wall_start_ns) + shift;
        rec.start_ns = static_cast<uint64_t>(std::max<int64_t>(start, 0));
        rec.end_ns = rec.start_ns + e->wall_dur_ns;
        while (!stack.empty() && stack.back().second < rec.end_ns) {
            stack.pop_back();
        }
        rec.id = spans_.size() + 1;
        rec.parent = stack.empty() ? parent : stack.back().first;
        rec.request = request;
        rec.name = "prog." + e->name;
        rec.layer = programLayer(e->name);
        stack.emplace_back(rec.id, rec.end_ns);
        spans_.push_back(std::move(rec));
    }
}

std::vector<double>
SpanLog::durationsMs(std::string_view name) const
{
    std::vector<double> out;
    MutexLock lock(mu_);
    for (const SpanRecord &s : spans_) {
        if (s.name == name && s.end_ns >= s.start_ns && s.end_ns != 0) {
            out.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                          1e6);
        }
    }
    return out;
}

std::map<std::string, double>
SpanLog::selfMsByLayer() const
{
    MutexLock lock(mu_);
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        spans_.size() + 1);
    for (const SpanRecord &s : spans_) {
        if (s.parent != 0 && s.end_ns != 0) {
            children[s.parent].emplace_back(s.start_ns, s.end_ns);
        }
    }
    std::map<std::string, double> self;
    for (const SpanRecord &s : spans_) {
        if (s.end_ns < s.start_ns || s.end_ns == 0) {
            continue;
        }
        uint64_t dur = s.end_ns - s.start_ns;
        uint64_t covered = coveredNs(children[s.id], s.start_ns, s.end_ns);
        self[s.layer] += static_cast<double>(dur - covered) / 1e6;
    }
    return self;
}

double
SpanLog::rootMs() const
{
    MutexLock lock(mu_);
    double total = 0.0;
    for (const SpanRecord &s : spans_) {
        if (s.parent == 0 && s.end_ns > s.start_ns) {
            total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        }
    }
    return total;
}

Status
SpanLog::writeJson(const std::string &path) const
{
    std::map<std::string, double> self = selfMsByLayer();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return Status::invalidArgument("cannot write " + path);
    }
    std::fprintf(f, "{\"self_ms_by_layer\": {");
    bool first = true;
    for (const auto &[layer, ms] : self) {
        std::fprintf(f, "%s%s: %s", first ? "" : ", ",
                     jsonString(layer).c_str(), jsonNumber(ms).c_str());
        first = false;
    }
    std::fprintf(f, "},\n\"spans\": [\n");
    MutexLock lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f,
                     "%s{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                     "\"name\": %s, \"layer\": %s, \"start_ns\": %llu, "
                     "\"end_ns\": %llu}",
                     i ? ",\n" : "", static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     jsonString(s.name).c_str(), jsonString(s.layer).c_str(),
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns));
    }
    std::fprintf(f, "\n]}\n");
    bool ok = std::fclose(f) == 0;
    return ok ? Status::ok() : Status::invalidArgument("short write " + path);
}

} // namespace mithril::perfbench
