/**
 * @file
 * json_check — validates machine-readable bench/metrics output.
 *
 * Usage: json_check <file> [required-key ...]
 *
 * Every non-empty line of <file> must be a syntactically valid JSON
 * document (metrics snapshots are one document; --json-out files are
 * one record per line), and every required key must appear as a quoted
 * string somewhere in the file. Exits non-zero with a message on the
 * first violation — CTest runs this after a bench's --metrics-out to
 * keep the telemetry contract honest.
 *
 * Documents carrying a "quantiles" object (metrics snapshots with
 * obs::Histogram data) additionally get a schema check per histogram:
 *   - bucket lower bounds strictly increasing;
 *   - bucket counts summing exactly to the histogram count;
 *   - p50 <= p90 <= p99 <= p999, bracketed by the first bucket's
 *     lower bound and the exact max (quantiles are reported as bucket
 *     lower bounds, so they may sit below the exact min but never
 *     below the min's bucket, and never above the max);
 *   - count/sum/min/max/quantile fields present and numeric.
 */
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace {

/** Schema check of one histogram entry in a "quantiles" object.
 *  Returns false after printing the first violation. */
bool
checkQuantileHistogram(const char *file, const std::string &name,
                       const mithril::obs::JsonValue &h)
{
    auto complain = [&](const std::string &what) {
        std::fprintf(stderr, "json_check: %s: quantiles[%s]: %s\n",
                     file, name.c_str(), what.c_str());
        return false;
    };
    if (!h.isObject()) {
        return complain("not an object");
    }
    for (const char *key :
         {"count", "sum", "min", "max", "p50", "p90", "p99", "p999"}) {
        const mithril::obs::JsonValue *v = h.find(key);
        if (v == nullptr || !v->isNumber()) {
            return complain(std::string(key) + " missing or not a number");
        }
    }
    double p50 = h.numberOr("p50", 0), p90 = h.numberOr("p90", 0);
    double p99 = h.numberOr("p99", 0), p999 = h.numberOr("p999", 0);
    if (!(p50 <= p90 && p90 <= p99 && p99 <= p999)) {
        return complain("quantiles not monotone (p50<=p90<=p99<=p999)");
    }
    double count = h.numberOr("count", 0);
    double max = h.numberOr("max", 0);
    if (count > 0 && p999 > max) {
        return complain("p999 above the exact max");
    }

    const mithril::obs::JsonValue *buckets = h.find("buckets");
    if (buckets == nullptr || !buckets->isArray()) {
        return complain("buckets missing or not an array");
    }
    double bucket_total = 0.0;
    double prev_lo = -1.0;
    for (size_t i = 0; i < buckets->items.size(); ++i) {
        const mithril::obs::JsonValue &b = buckets->items[i];
        const mithril::obs::JsonValue *lo = b.find("lo");
        const mithril::obs::JsonValue *c = b.find("count");
        if (!b.isObject() || lo == nullptr || !lo->isNumber() ||
            c == nullptr || !c->isNumber()) {
            return complain("bucket " + std::to_string(i) +
                            " malformed (want {lo, count})");
        }
        if (lo->number <= prev_lo) {
            return complain("bucket lower bounds not strictly "
                            "increasing at index " + std::to_string(i));
        }
        prev_lo = lo->number;
        bucket_total += c->number;
    }
    if (bucket_total != count) {
        return complain("bucket counts sum to " +
                        std::to_string(bucket_total) + ", count is " +
                        std::to_string(count));
    }
    if (count > 0 && !buckets->items.empty() &&
        p50 < buckets->items.front().numberOr("lo", 0)) {
        return complain("p50 below the first bucket's lower bound");
    }
    return true;
}

/** Validates every histogram under a document's "quantiles" key; a
 *  document without one passes vacuously. */
bool
checkQuantilesSchema(const char *file,
                     const mithril::obs::JsonValue &doc)
{
    const mithril::obs::JsonValue *quantiles = doc.find("quantiles");
    if (quantiles == nullptr) {
        return true;
    }
    if (!quantiles->isObject()) {
        std::fprintf(stderr,
                     "json_check: %s: \"quantiles\" is not an object\n",
                     file);
        return false;
    }
    for (const auto &[name, h] : quantiles->members) {
        if (!checkQuantileHistogram(file, name, h)) {
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: json_check <file> [required-key ...]\n");
        return 2;
    }
    std::ifstream in(argv[1], std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "json_check: cannot open %s\n", argv[1]);
        return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    if (text.empty()) {
        std::fprintf(stderr, "json_check: %s is empty\n", argv[1]);
        return 1;
    }

    size_t pos = 0, line_no = 0, documents = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            nl = text.size();
        }
        std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++line_no;
        if (line.find_first_not_of(" \t\r") == std::string::npos) {
            continue;
        }
        std::string err;
        mithril::obs::JsonValue doc;
        if (!mithril::obs::jsonParse(line, &doc, &err)) {
            std::fprintf(stderr, "json_check: %s:%zu: %s\n", argv[1],
                         line_no, err.c_str());
            return 1;
        }
        if (!checkQuantilesSchema(argv[1], doc)) {
            return 1;
        }
        ++documents;
    }
    if (documents == 0) {
        std::fprintf(stderr, "json_check: %s has no JSON documents\n",
                     argv[1]);
        return 1;
    }

    for (int i = 2; i < argc; ++i) {
        std::string quoted = "\"" + std::string(argv[i]) + "\"";
        if (text.find(quoted) == std::string::npos) {
            std::fprintf(stderr,
                         "json_check: %s: required key %s missing\n",
                         argv[1], argv[i]);
            return 1;
        }
    }
    std::printf("json_check: %s ok (%zu documents, %d required keys)\n",
                argv[1], documents, argc - 2);
    return 0;
}
