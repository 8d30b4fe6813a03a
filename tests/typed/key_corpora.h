/**
 * @file
 * Line corpora for the typed-extraction tests: HPC4 generator lines,
 * the incident scenario, and seeded lines of values glued to log
 * syntax. ExtractTest.KeyStreamDigestIsStable pins the keys
 * typed::extractLine() emits over them, and the ingest and mount
 * postings are checked against the same lines.
 */
#ifndef MITHRIL_TESTS_TYPED_KEY_CORPORA_H
#define MITHRIL_TESTS_TYPED_KEY_CORPORA_H

#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/text.h"
#include "loggen/datasets.h"
#include "loggen/incident.h"
#include "loggen/log_generator.h"

namespace mithril::typed {

/** The first @p count lines of HPC4 generator @p dataset. */
inline std::vector<std::string>
hpc4Lines(size_t dataset, size_t count)
{
    loggen::LogGenerator gen(loggen::hpc4Datasets()[dataset]);
    std::vector<std::string> lines;
    for (size_t i = 0; i < count; ++i) {
        lines.push_back(gen.line());
    }
    return lines;
}

inline std::vector<std::string>
incidentLines()
{
    loggen::IncidentGroundTruth truth;
    std::string text =
        loggen::generateIncident(loggen::IncidentSpec{}, &truth);
    std::vector<std::string> lines;
    forEachLine(text, [&](std::string_view line) {
        lines.emplace_back(line);
    });
    return lines;
}

/**
 * Seeded lines of values glued to log syntax: brackets, trailing '.'
 * and ',', k=v, host:v, 0x prefixes, near-miss addresses, and 1-8
 * byte tokens with and without ':' (the short-token skip's edge).
 */
inline std::vector<std::string>
fuzzLines(size_t count)
{
    Rng rng(0x7e57);
    auto pick = [&](std::string_view alphabet, size_t len) {
        std::string s;
        for (size_t i = 0; i < len; ++i) {
            s += alphabet[rng.below(alphabet.size())];
        }
        return s;
    };
    auto octet = [&]() {
        // Mostly valid, sometimes a leading zero or an overflow.
        switch (rng.below(8)) {
        case 0:
            return std::string("0") + std::to_string(rng.below(10));
        case 1:
            return std::to_string(256 + rng.below(100));
        default:
            return std::to_string(rng.below(256));
        }
    };
    auto value = [&]() -> std::string {
        switch (rng.below(10)) {
        case 0:
            return octet() + "." + octet() + "." + octet() + "." + octet();
        case 1: {
            std::string v = pick("0123456789abcdefABCDEF", 1 + rng.below(4));
            for (size_t g = 0, n = rng.below(8); g < n; ++g) {
                v += (rng.chance(0.2) ? "::" : ":")
                     + pick("0123456789abcdef", 1 + rng.below(4));
            }
            return rng.chance(0.2) ? "::ffff:" + octet() + ".1.2."
                                         + octet()
                                   : v;
        }
        case 2: {
            const char *sep = rng.chance(0.5) ? ":" : "-";
            std::string v = pick("0123456789abcdefABCDEF", 2);
            for (int g = 0; g < 5; ++g) {
                v += (rng.chance(0.05) ? "." : sep)
                     + pick("0123456789abcdefABCDEF", 2);
            }
            return v;
        }
        case 3:
            return (rng.chance(0.3) ? "0x" : "")
                   + pick(rng.chance(0.3) ? "0123456789"
                                          : "0123456789abcdefABCDEF",
                          4 + rng.below(66));
        case 4:
            return "20" + pick("0123456789", 2) + "-"
                   + pick("01", 1) + pick("0123456789", 1) + "-"
                   + pick("0123", 1) + pick("0123456789", 1) + "T"
                   + pick("012", 1) + pick("0123456789", 1) + ":"
                   + pick("012345", 1) + pick("0123456789", 1) + ":"
                   + pick("012345", 1) + pick("0123456789", 1)
                   + (rng.chance(0.3) ? "." + pick("0123456789", 3) : "")
                   + (rng.chance(0.5) ? "Z" : "+05:30");
        case 5:
        case 6:
            // 1-8 bytes, with and without ':'.
            return pick(rng.chance(0.5) ? "0123456789abcdefx.:"
                                        : "0123456789abcdefx.",
                        1 + rng.below(8));
        default:
            return pick("abcdefghijklmnopqrstuvwxyz0123456789.-_/",
                        1 + rng.below(12));
        }
    };
    auto glue = [&](const std::string &v) -> std::string {
        switch (rng.below(12)) {
        case 0:
            return "[" + v + "]";
        case 1:
            return "(" + v + "),";
        case 2:
            return v + ".";
        case 3:
            return v + ",";
        case 4:
            return "src=" + v;
        case 5:
            return "dst=" + v + ",";
        case 6:
            return "host:" + v;
        case 7:
            return "\"" + v + "\";";
        case 8:
            return "k=[" + v + "]!";
        default:
            return v;
        }
    };
    static const char *const kSyslog[] = {"Aug  9 12:34:56", "Jun 3 22:02:50",
                                          "Dec 31 23:59:60", "Feb 30 1:2:3"};
    std::vector<std::string> lines;
    for (size_t i = 0; i < count; ++i) {
        std::string line;
        if (rng.chance(0.15)) {
            line += kSyslog[rng.below(std::size(kSyslog))];
        }
        for (size_t t = 0, n = 1 + rng.below(8); t < n; ++t) {
            if (!line.empty()) {
                line += rng.chance(0.8) ? " " : "\t ";
            }
            line += glue(value());
        }
        lines.push_back(std::move(line));
    }
    return lines;
}

} // namespace mithril::typed

#endif // MITHRIL_TESTS_TYPED_KEY_CORPORA_H
