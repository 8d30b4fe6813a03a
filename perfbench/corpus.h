/**
 * @file
 * Seeded inputs and host oracles shared by the three workloads.
 *
 * Every input is a pure function of the workload seed: the incident
 * corpus (loggen::generateIncident: Spirit2 background plus planted
 * attacker, session and decoy lines) and the query library mined from
 * it with the FT-tree. The oracle is query::SoftwareMatcher over
 * the raw corpus lines.
 */
#ifndef MITHRIL_PERFBENCH_CORPUS_H
#define MITHRIL_PERFBENCH_CORPUS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "accel/filter_pipeline.h"
#include "loggen/incident.h"
#include "query/query.h"

namespace mithril::perfbench {

/** Line-aligned slices of @p text of about @p bytes each. */
std::vector<std::string_view> segmentText(std::string_view text,
                                          size_t bytes);

/** Query classes of the search mix (README.md explains the shares). */
enum class QueryClass : uint8_t {
    kSelective,  ///< one FT-tree template: index-pruned
    kNegated,    ///< a template minus another template's token
    kBroad,      ///< 2-way and 8-way template unions: full scans
    kTyped,      ///< ip:/id:/time: predicates, alone or with a keyword
};

const char *className(QueryClass c);

/** One distinct query of a library. */
struct LibQuery {
    std::string text;  ///< parseQuery syntax, run as given
    QueryClass cls = QueryClass::kSelective;
};

/** Sizes of a template-derived library. */
struct LibraryShape {
    size_t selective = 64;  ///< at most; fewer when fewer are mined
    size_t negated = 8;
    size_t pairs = 6;
    size_t eights = 4;
};

/**
 * Mines FT-tree templates from @p text and builds the keyword part of
 * a query library: up to @p shape.selective templates evenly spread
 * over the support ranks, negated variants, and 2-way / 8-way unions
 * of the most supported templates. A pure function of @p text.
 */
std::vector<LibQuery> templateLibrary(std::string_view text,
                                      const LibraryShape &shape);

/**
 * A seeded incident scenario: the stretch of one long
 * loggen::generateIncident log that the seed picks, with the ground
 * truth renumbered to it. The seed also picks the attacker's /28 and
 * the session id. Query libraries are mined from the log's opening
 * stretch (at most 4 MB) and run on the seeded one, as dashboards built
 * from past logs run on today's: the library is the same for every
 * seed.
 */
struct Incident {
    loggen::IncidentSpec spec;
    std::string text;
    std::string reference;  ///< the log's opening stretch
    loggen::IncidentGroundTruth truth;
    std::string cidr;  ///< the /28 holding attacker and decoy
};

/** The incident stretch of seed @p seed: @p bytes to 33/32 @p bytes,
 *  by seed. */
Incident incidentCorpus(uint64_t seed, uint64_t bytes);

/**
 * Typed queries over an incident corpus: exact and CIDR `ip:`, `id:`,
 * `ip:` AND keyword, and `time:` windows (one AND a keyword) around
 * the epoch stamps of seeded corpus lines.
 */
std::vector<LibQuery> typedLibrary(const Incident &inc, uint64_t seed);

/**
 * A seeded query sequence: @p decks decks, each holding library index
 * i exactly @p slots[i] times in an order shuffled with mithril::Rng.
 */
std::vector<size_t> shuffledDecks(const std::vector<size_t> &slots,
                                  uint64_t seed, size_t decks);

/** Order-independent digest of a set of matched lines: the count plus
 *  two independent multiset hashes of the line texts. */
struct Digest {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t sum2 = 0;

    void add(std::string_view line);
    bool operator==(const Digest &) const = default;
};

/** Digest of the lines a store kept for a query. */
Digest digestOf(const std::vector<accel::KeptLine> &lines);

/** Expected answer of one query over one corpus. */
struct Answer {
    Digest digest;
    /** 0-based corpus line numbers, ascending. */
    std::vector<uint64_t> line_numbers;
};

/** Runs query::SoftwareMatcher for every query over every line. */
std::vector<Answer> oracleAnswers(std::string_view text,
                                  const std::vector<LibQuery> &library);

/** Lines matched, summed over @p answers (a deterministic count). */
uint64_t matchedLines(const std::vector<Answer> &answers);

} // namespace mithril::perfbench

#endif // MITHRIL_PERFBENCH_CORPUS_H
