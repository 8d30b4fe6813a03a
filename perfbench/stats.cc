#include "perfbench/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/hash.h"
#include "common/wall_timer.h"

namespace mithril::perfbench {

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    double pos = q * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty()) {
        return 0.0;
    }
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

double
hostRefMs()
{
    constexpr size_t kWords = (1u << 20) / sizeof(uint64_t);
    constexpr size_t kSteps = 1u << 21;
    static std::vector<uint64_t> table = [] {
        std::vector<uint64_t> t(kWords);
        for (size_t i = 0; i < kWords; ++i) {
            t[i] = mix64(i);
        }
        return t;
    }();
    WallTimer timer;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < kSteps; ++i) {
        x ^= table[x & (kWords - 1)];
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 29;
    }
    double ms = timer.seconds() * 1e3;
    // Keep the walk observable so it cannot be folded away.
    table[0] ^= x & 1;
    return ms;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back(Metric{name, value, unit});
}

void
Report::wall(const std::string &name, const std::vector<double> &samples,
             const std::string &unit)
{
    double p50 = median(samples);
    metric(name, p50, unit);
    spreads_.push_back(Spread{name, quantile(samples, 0.25), p50,
                              quantile(samples, 0.75), samples.size()});
}

void
Report::diag(const std::string &name, double value)
{
    diags_.emplace_back(name, value);
}

void
Report::op(bool ok)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
    }
}

void
Report::fail(const std::string &why)
{
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
    op(false);
}

double
Report::okFrac() const
{
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "0";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + "\"";
}

std::string
Report::resultJson() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
               jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
               "}";
    }
    return out + "}}";
}

std::string
Report::diagJson() const
{
    std::string out = "{\"diag\": {";
    for (size_t i = 0; i < diags_.size(); ++i) {
        out += (i ? ", " : "") + jsonString(diags_[i].first) + ": " +
               jsonNumber(diags_[i].second);
    }
    out += "}, \"wall\": {";
    for (size_t i = 0; i < spreads_.size(); ++i) {
        const Spread &s = spreads_[i];
        out += (i ? ", " : "") + jsonString(s.name) + ": {\"p25\": " +
               jsonNumber(s.p25) + ", \"p50\": " + jsonNumber(s.p50) +
               ", \"p75\": " + jsonNumber(s.p75) +
               ", \"n\": " + std::to_string(s.n) + "}";
    }
    return out + "}}";
}

} // namespace mithril::perfbench
