/**
 * @file
 * Seeded corpora and union-of-intersections queries shared by the
 * accelerator's equivalence and digest tests. The vocabulary overlaps
 * the HPC4 generators' tokens, so random queries hit realistic logs
 * too.
 */
#ifndef MITHRIL_TESTS_ACCEL_RANDOM_PROGRAMS_H
#define MITHRIL_TESTS_ACCEL_RANDOM_PROGRAMS_H

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/lzah.h"
#include "query/query.h"

namespace mithril::accel::test {

/** Vocabulary the random corpus and queries draw from (overlapping so
 *  queries actually hit). */
inline const char *const kVocab[] = {
    "RAS", "KERNEL", "INFO", "FATAL", "APP", "error", "parity",
    "cache", "link", "up", "down", "node-7", "pbs_mom:", "retry",
    "0x1f", "alpha", "beta", "gamma", "averyveryverylongtokenover16b",
};

inline std::vector<std::string>
randomCorpus(Rng *rng, size_t lines)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < lines; ++i) {
        std::string line;
        size_t n = rng->below(12);
        for (size_t t = 0; t < n; ++t) {
            if (t > 0) {
                line += ' ';
            }
            line += kVocab[rng->below(std::size(kVocab))];
        }
        out.push_back(std::move(line));
    }
    return out;
}

inline query::Query
randomQuery(Rng *rng)
{
    size_t sets = 1 + rng->below(4);
    std::vector<query::IntersectionSet> out;
    for (size_t s = 0; s < sets; ++s) {
        query::IntersectionSet set;
        size_t terms = 1 + rng->below(5);
        std::set<std::string> used;
        for (size_t t = 0; t < terms; ++t) {
            std::string tok = kVocab[rng->below(std::size(kVocab))];
            if (!used.insert(tok).second) {
                continue;  // polarity conflicts would be invalid
            }
            set.terms.push_back({tok, rng->chance(0.3)});
        }
        if (set.terms.empty()) {
            set.terms.push_back({"RAS", false});
        }
        out.push_back(std::move(set));
    }
    return query::Query(std::move(out));
}

/** Compresses lines into LZAH pages and returns owning buffers. */
inline std::vector<compress::Bytes>
makePages(const std::vector<std::string> &lines)
{
    compress::LzahPageEncoder enc;
    for (const std::string &line : lines) {
        EXPECT_NE(enc.addLine(line), compress::AddLineResult::kRejected);
    }
    enc.flush();
    return std::move(enc.pages());
}

} // namespace mithril::accel::test

#endif // MITHRIL_TESTS_ACCEL_RANDOM_PROGRAMS_H
