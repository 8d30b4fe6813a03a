#include "obs/report.h"

namespace mithril::obs {

std::string
metricsToJson(const MetricsSnapshot &snapshot)
{
    std::string out;
    JsonWriter w(&out);
    w.beginObject();

    w.key("counters");
    w.beginObject();
    for (const auto &[name, value] : snapshot.counters) {
        w.key(name);
        w.value(value);
    }
    w.endObject();

    w.key("gauges");
    w.beginObject();
    for (const auto &[name, value] : snapshot.gauges) {
        w.key(name);
        w.value(value);
    }
    w.endObject();

    w.key("quantiles");
    w.beginObject();
    for (const auto &[name, h] : snapshot.quantile_histograms) {
        w.key(name);
        w.beginObject();
        w.key("count");
        w.value(h.count);
        w.key("sum");
        w.value(h.sum);
        w.key("min");
        w.value(h.min);
        w.key("max");
        w.value(h.max);
        w.key("p50");
        w.value(h.quantiles.p50);
        w.key("p90");
        w.value(h.quantiles.p90);
        w.key("p99");
        w.value(h.quantiles.p99);
        w.key("p999");
        w.value(h.quantiles.p999);
        w.key("buckets");
        w.beginArray();
        for (const auto &[lo, count] : h.buckets) {
            w.beginObject();
            w.key("lo");
            w.value(lo);
            w.key("count");
            w.value(count);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.endObject();
    return out;
}

std::string
metricsToJson(const MetricsRegistry &registry)
{
    return metricsToJson(registry.snapshot());
}

Status
writeMetricsJson(const MetricsRegistry &registry, const std::string &path)
{
    std::string json = metricsToJson(registry);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        return Status::invalidArgument("cannot open " + path);
    }
    bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !ok) {
        return Status::internal("short write to " + path);
    }
    return Status::ok();
}

JsonRecord::JsonRecord(std::string_view bench) : writer_(&body_)
{
    writer_.beginObject();
    writer_.key("bench");
    writer_.value(bench);
}

JsonRecord &
JsonRecord::field(std::string_view key, std::string_view v)
{
    writer_.key(key);
    writer_.value(v);
    return *this;
}

JsonRecord &
JsonRecord::field(std::string_view key, double v)
{
    writer_.key(key);
    writer_.value(v);
    return *this;
}

JsonRecord &
JsonRecord::field(std::string_view key, uint64_t v)
{
    writer_.key(key);
    writer_.value(v);
    return *this;
}

JsonRecord &
JsonRecord::field(std::string_view key, bool v)
{
    writer_.key(key);
    writer_.value(v);
    return *this;
}

std::string
JsonRecord::json() const
{
    return body_ + "}";
}

void
JsonRecord::emit(std::FILE *out, const std::string &file_path)
{
    std::string line = json();
    if (out != nullptr) {
        std::fprintf(out, "BENCH_JSON %s\n", line.c_str());
    }
    if (!file_path.empty()) {
        std::FILE *f = std::fopen(file_path.c_str(), "ab");
        if (f != nullptr) {
            std::fprintf(f, "%s\n", line.c_str());
            std::fclose(f);
        }
    }
}

} // namespace mithril::obs
