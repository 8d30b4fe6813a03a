/**
 * @file
 * Ingest and a mount build the typed postings by running the extractor
 * once per distinct token of a page (MithriLog::indexLine), yet a key
 * must post to exactly the lines on which typed::extractLine() emits
 * it. Every key the oracle finds is looked up exactly after ingest,
 * after flush(), and after saveDeviceImage() + recover(), over corpora
 * that fill many pages (DESIGN.md §15).
 */
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/mithrilog.h"
#include "key_corpora.h"
#include "typed/extract.h"
#include "typed/predicate.h"
#include "typed/typed_index.h"

namespace mithril::typed {
namespace {

using Postings = std::map<TypedKey, std::vector<uint64_t>>;

/** Each key extractLine() emits over @p lines, with the ascending
 *  numbers of the lines that emit it. */
Postings
oracle(const std::vector<std::string> &lines)
{
    Postings postings;
    for (uint64_t n = 0; n < lines.size(); ++n) {
        extractLine(lines[n], [&](const TypedKey &key) {
            std::vector<uint64_t> &posted = postings[key];
            if (posted.empty() || posted.back() != n) {
                posted.push_back(n);
            }
        });
    }
    return postings;
}

/** @p store's typed index holds exactly @p expect: the same keys, and
 *  an exact lookup of each returns the oracle's lines. */
void
expectPostings(core::MithriLog *store, const Postings &expect,
               const char *when)
{
    TypedIndex &index = store->typedIndex();
    EXPECT_EQ(index.keyCount(), expect.size()) << when;
    size_t wrong = 0;
    for (const auto &[key, lines] : expect) {
        Predicate exact{key.kind, key.bytes, key.bytes, formatKey(key)};
        LookupResult r = index.lookup(exact);
        EXPECT_FALSE(r.integrity_lost) << when;
        if (r.lines != lines && ++wrong <= 5) {
            ADD_FAILURE() << when << ": " << kindName(key.kind) << " "
                          << formatKey(key) << " posts to "
                          << r.lines.size() << " lines, the oracle to "
                          << lines.size();
        }
    }
    EXPECT_EQ(wrong, 0u) << when << ": keys with wrong postings";
}

/**
 * Syslog headers after 0 to 5 leading tokens: headerKey() finds one
 * that starts at one of the first four tokens and none after, so these
 * lines tell the first six tokens from any other six.
 */
std::vector<std::string>
headerLines(size_t count)
{
    static const char *const kMonths[] = {"Aug", "Jun", "Dec"};
    std::vector<std::string> lines;
    for (size_t i = 0; i < count; ++i) {
        std::string line;
        for (size_t t = 0; t < i % 6; ++t) {
            line += "tok" + std::to_string(t) + " ";
        }
        line += std::string(kMonths[i % 3]) + " " +
                std::to_string(1 + i % 28) + " 12:34:" +
                std::to_string(10 + i % 50) + " node" +
                std::to_string(i % 50) + " src=10.0." +
                std::to_string(i % 7) + ".1";
        lines.push_back(std::move(line));
    }
    return lines;
}

struct Corpus {
    const char *name;
    std::vector<std::string> (*lines)();
};

const Corpus kCorpora[] = {
    {"hpc4_0", [] { return hpc4Lines(0, 20000); }},
    {"hpc4_1", [] { return hpc4Lines(1, 20000); }},
    {"hpc4_2", [] { return hpc4Lines(2, 20000); }},
    {"hpc4_3", [] { return hpc4Lines(3, 20000); }},
    {"incident", [] { return incidentLines(); }},
    {"fuzz", [] { return fuzzLines(20000); }},
    {"headers", [] { return headerLines(20000); }},
};

class TypedPostingsTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(TypedPostingsTest, IngestAndMountPostExtractLineKeys)
{
    std::vector<std::string> lines = kCorpora[GetParam()].lines();
    Postings expect = oracle(lines);
    ASSERT_FALSE(expect.empty());

    core::MithriLog store;
    for (const std::string &line : lines) {
        ASSERT_TRUE(store.ingestLine(line).isOk());
    }
    // Many sealed pages: the per-page key memo restarts on each.
    ASSERT_GE(store.dataPageCount(), 20u);
    expectPostings(&store, expect, "after ingest");

    ASSERT_TRUE(store.flush().isOk());
    expectPostings(&store, expect, "after flush");

    // One file per corpus and per process: ctest runs these at once.
    std::string path = ::testing::TempDir() + "typed_postings_" +
                       kCorpora[GetParam()].name + "_" +
                       std::to_string(::getpid()) + ".img";
    ASSERT_TRUE(store.saveDeviceImage(path).isOk());
    core::MithriLog mounted;
    Status st = mounted.recover(path);
    std::remove(path.c_str());
    ASSERT_TRUE(st.isOk()) << st.toString();
    ASSERT_EQ(mounted.lineCount(), lines.size());
    expectPostings(&mounted, expect, "after recover");
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, TypedPostingsTest,
    ::testing::Range<size_t>(0, std::size(kCorpora)),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return std::string(kCorpora[info.param].name);
    });

} // namespace
} // namespace mithril::typed
