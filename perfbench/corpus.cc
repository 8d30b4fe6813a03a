#include "perfbench/corpus.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/hash.h"
#include "common/rng.h"
#include "common/text.h"
#include "query/matcher.h"
#include "query/parser.h"
#include "templates/ft_tree.h"

namespace mithril::perfbench {

namespace {

/**
 * Seeds pick where their stretch of the one long synthetic log starts,
 * up to this many bytes in: the template library is the same for every
 * seed (one system's log on different days), so seeds differ in data,
 * not in the selectivity profile of the mined query library.
 */
constexpr uint64_t kMaxSkipBytes = 2ull << 20;

/** Size of the opening stretch the query libraries are mined from. */
constexpr uint64_t kReferenceBytes = 4ull << 20;

/** Support ranks the 2-way and 8-way unions draw their templates from. */
constexpr size_t kUnionPool2 = 4;
constexpr size_t kUnionPool8 = 16;

/** [start, end) of the line-aligned stretch of @p text that starts at
 *  the first line at or after byte @p skip and holds about @p bytes. */
std::pair<size_t, size_t>
stretchAt(std::string_view text, uint64_t skip, uint64_t bytes)
{
    size_t start = skip == 0 ? 0 : text.find('\n', skip - 1) + 1;
    size_t nl = text.find('\n', std::min(text.size(), start + bytes));
    return {start, nl == std::string_view::npos ? text.size() : nl + 1};
}

/** Parsed form of every library query (aborts on a parse error: the
 *  library is built by this file, so a failure is a benchmark bug). */
std::vector<query::Query>
parseLibrary(const std::vector<LibQuery> &library)
{
    std::vector<query::Query> out(library.size());
    for (size_t i = 0; i < library.size(); ++i) {
        Status st = query::parseQuery(library[i].text, &out[i]);
        if (!st.isOk()) {
            std::fprintf(stderr, "library query %s: %s\n",
                         library[i].text.c_str(), st.toString().c_str());
            std::abort();
        }
    }
    return out;
}

} // namespace

std::vector<std::string_view>
segmentText(std::string_view text, size_t bytes)
{
    std::vector<std::string_view> out;
    size_t start = 0;
    while (start < text.size()) {
        size_t end = std::min(text.size(), start + bytes);
        size_t nl = text.find('\n', end == 0 ? 0 : end - 1);
        end = nl == std::string_view::npos ? text.size() : nl + 1;
        out.push_back(text.substr(start, end - start));
        start = end;
    }
    return out;
}

const char *
className(QueryClass c)
{
    switch (c) {
      case QueryClass::kSelective:
        return "selective";
      case QueryClass::kNegated:
        return "negated";
      case QueryClass::kBroad:
        return "broad";
      case QueryClass::kTyped:
        return "typed";
    }
    return "?";
}

std::vector<LibQuery>
templateLibrary(std::string_view text, const LibraryShape &shape)
{
    templates::FtTreeConfig cfg;
    cfg.max_depth = 8;
    // Support scales with corpus size, as the repo's benches do, so the
    // library stays in the paper's tens-of-templates range.
    cfg.template_min_support =
        std::max<uint64_t>(24, text.size() / (128 << 10));
    std::vector<templates::ExtractedTemplate> tpls =
        templates::FtTree::build(text, cfg).extractTemplates();
    if (tpls.size() <= kUnionPool2) {
        std::fprintf(stderr, "corpus too small: %zu templates\n",
                     tpls.size());
        std::abort();
    }
    // Templates by descending support.
    std::vector<size_t> popular(tpls.size());
    for (size_t i = 0; i < popular.size(); ++i) {
        popular[i] = i;
    }
    std::sort(popular.begin(), popular.end(), [&](size_t a, size_t b) {
        return tpls[a].support != tpls[b].support
                   ? tpls[a].support > tpls[b].support
                   : a < b;
    });
    auto query = [&](size_t rank) {
        return templates::templateToQuery(tpls[popular[rank]]);
    };
    std::vector<LibQuery> out;

    // Selective: the templates below the most popular few (those feed
    // the unions), the middle one of each equal-width rank stratum.
    const size_t first = kUnionPool2;
    const size_t ranks = popular.size() - first;
    const size_t singles = std::min(shape.selective, ranks);
    std::vector<size_t> picked;
    for (size_t i = 0; i < singles; ++i) {
        picked.push_back(first + (2 * i + 1) * ranks / (2 * singles));
        out.push_back({query(picked.back()).toString(),
                       QueryClass::kSelective});
    }

    // Negated: a selective template minus the leading token, not
    // already in it, of the template one stratum down.
    for (size_t i = 0; i < shape.negated && singles > 1; ++i) {
        size_t a = picked[i * singles / shape.negated];
        const templates::ExtractedTemplate &ta = tpls[popular[a]];
        const templates::ExtractedTemplate &tb =
            tpls[popular[picked[(i * singles / shape.negated + 1) % singles]]];
        std::set<std::string> used(ta.tokens.begin(), ta.tokens.end());
        used.insert(ta.negations.begin(), ta.negations.end());
        query::Query q = query(a);
        for (const std::string &tok : tb.tokens) {
            if (!used.count(tok)) {
                query::Term neg;
                neg.token = tok;
                neg.negated = true;
                q.sets().front().terms.push_back(neg);
                break;
            }
        }
        out.push_back({q.toString(), QueryClass::kNegated});
    }

    // Unions of the most supported templates: their page estimate
    // crosses the planner's threshold, so they run as full scans (the
    // filter path, not the index path). Pairs: each pair of the top
    // kUnionPool2; eights: sliding windows over the top kUnionPool8.
    std::vector<std::vector<size_t>> unions;
    for (size_t a = 0; a < kUnionPool2; ++a) {
        for (size_t b = a + 1; b < kUnionPool2; ++b) {
            unions.push_back({a, b});
        }
    }
    unions.resize(std::min(unions.size(), shape.pairs));
    const size_t pool8 = std::min(kUnionPool8, popular.size());
    for (size_t j = 0; j < shape.eights && pool8 >= 8; ++j) {
        std::vector<size_t> members;
        for (size_t k = 0; k < 8; ++k) {
            members.push_back((2 * j + k) % pool8);
        }
        unions.push_back(members);
    }
    for (const std::vector<size_t> &members : unions) {
        std::vector<query::Query> parts;
        for (size_t rank : members) {
            parts.push_back(query(rank));
        }
        out.push_back({query::Query::unionOf(parts).toString(),
                       QueryClass::kBroad});
    }
    return out;
}

Incident
incidentCorpus(uint64_t seed, uint64_t bytes)
{
    Rng rng(mix64(seed ^ 0x1c1de7ull));
    Incident inc;
    // The attacker and the decoy share one seeded /28 of TEST-NET-1.
    uint64_t block = 64 + 16 * rng.below(12);
    inc.spec.attacker_ip = "192.0.2." + std::to_string(block + 13);
    inc.spec.decoy_ip = "192.0.2." + std::to_string(block + 14);
    inc.cidr = "192.0.2." + std::to_string(block) + "/28";
    char id[24];
    std::snprintf(id, sizeof id, "%016llx",
                  static_cast<unsigned long long>(rng.next()));
    inc.spec.session_id = id;
    // Sparse evidence (a burst every ~2500 lines, about every 16th data
    // page) keeps the typed queries selective, as an investigation's are.
    inc.spec.incident_every = 2500;
    const uint64_t skip = rng.below(kMaxSkipBytes);
    // Days differ in volume too: up to 1/32 more than asked for, so
    // page counts, and the modeled times that follow them, vary with
    // the seed. The whole log is generated every time, so set-up cost
    // does not vary with the seed.
    const uint64_t extra = rng.below(bytes / 32 + 1);
    inc.spec.background_bytes = kMaxSkipBytes + bytes + bytes / 32;

    loggen::IncidentGroundTruth full;
    std::string text = loggen::generateIncident(inc.spec, &full);
    auto [start, end] = stretchAt(text, skip, bytes + extra);
    inc.text = text.substr(start, end - start);
    inc.reference = text.substr(
        0, stretchAt(text, 0, std::min(bytes, kReferenceBytes)).second);
    const uint64_t skip_lines = static_cast<uint64_t>(
        std::count(text.begin(), text.begin() + start, '\n'));
    uint64_t lines = static_cast<uint64_t>(
        std::count(inc.text.begin(), inc.text.end(), '\n'));
    auto window = [&](const std::vector<uint64_t> &in) {
        std::vector<uint64_t> out;
        for (uint64_t l : in) {
            if (l >= skip_lines && l < skip_lines + lines) {
                out.push_back(l - skip_lines);
            }
        }
        return out;
    };
    inc.truth.attacker_lines = window(full.attacker_lines);
    inc.truth.session_lines = window(full.session_lines);
    inc.truth.decoy_lines = window(full.decoy_lines);
    inc.truth.total_lines = lines;
    return inc;
}

std::vector<LibQuery>
typedLibrary(const Incident &inc, uint64_t seed)
{
    const std::string_view text = inc.text;
    const loggen::IncidentSpec &spec = inc.spec;
    std::vector<LibQuery> out;
    auto add = [&](std::string q) {
        out.push_back({std::move(q), QueryClass::kTyped});
    };
    add("ip:" + spec.attacker_ip);
    add("ip:" + inc.cidr);
    add("id:" + spec.session_id);
    add("ip:" + spec.attacker_ip + " & password");

    // time: windows around the epoch stamp (header token 1) of seeded
    // corpus lines. The extractor reads a syslog time only from the
    // first four tokens, and this corpus has its stamp later in the
    // header, so these windows resolve to empty posting ranges: they
    // time the typed lookup of a range, and their oracle answer is no
    // line.
    std::vector<std::string_view> lines = splitLines(text);
    Rng rng(mix64(seed ^ 0x71e5ull));
    for (int w = 0; w < 3; ++w) {
        std::vector<std::string_view> toks =
            splitTokens(lines[rng.below(lines.size())]);
        uint64_t epoch = 0;
        for (char c : toks.size() > 1 ? toks[1] : std::string_view()) {
            epoch = c >= '0' && c <= '9' ? epoch * 10 + (c - '0') : epoch;
        }
        std::string window = "time:[" + std::to_string(epoch) + "," +
                             std::to_string(epoch + 120) + "]";
        if (w == 2 && toks.size() > 8) {
            // Typed AND keyword: the window and the sampled line's
            // daemon (syslog header token 8).
            window += " & \"" + std::string(toks[8]) + "\"";
        }
        add(window);
    }
    return out;
}

std::vector<size_t>
shuffledDecks(const std::vector<size_t> &slots, uint64_t seed, size_t decks)
{
    std::vector<size_t> deck;
    for (size_t i = 0; i < slots.size(); ++i) {
        deck.insert(deck.end(), slots[i], i);
    }
    Rng rng(mix64(seed ^ 0xdec4ull));
    std::vector<size_t> out;
    for (size_t d = 0; d < decks; ++d) {
        for (size_t i = deck.size(); i > 1; --i) {
            std::swap(deck[i - 1], deck[rng.below(i)]);
        }
        out.insert(out.end(), deck.begin(), deck.end());
    }
    return out;
}

void
Digest::add(std::string_view line)
{
    ++count;
    sum += hash64(line);
    sum2 += hash64(line, 0x5eedf00dull);
}

Digest
digestOf(const std::vector<accel::KeptLine> &lines)
{
    Digest d;
    for (const accel::KeptLine &l : lines) {
        d.add(l.text);
    }
    return d;
}

std::vector<Answer>
oracleAnswers(std::string_view text, const std::vector<LibQuery> &library)
{
    std::vector<query::Query> parsed = parseLibrary(library);
    std::vector<query::SoftwareMatcher> matchers;
    matchers.reserve(parsed.size());
    for (const query::Query &q : parsed) {
        matchers.emplace_back(q);
    }
    std::vector<Answer> out(library.size());
    uint64_t line_no = 0;
    forEachLine(text, [&](std::string_view line) {
        for (size_t i = 0; i < matchers.size(); ++i) {
            if (matchers[i].matches(line)) {
                out[i].digest.add(line);
                out[i].line_numbers.push_back(line_no);
            }
        }
        ++line_no;
    });
    return out;
}

uint64_t
matchedLines(const std::vector<Answer> &answers)
{
    uint64_t n = 0;
    for (const Answer &a : answers) {
        n += a.digest.count;
    }
    return n;
}


} // namespace mithril::perfbench
