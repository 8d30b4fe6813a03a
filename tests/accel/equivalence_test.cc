/**
 * @file
 * The repository's core correctness property: the emulated hardware
 * filter and the reference SoftwareMatcher implement identical
 * semantics. Randomized queries over randomized log-like corpora must
 * agree line for line, in corpus order, across negations, unions, long
 * tokens, and batched execution.
 */
#include <gtest/gtest.h>

#include "accel/accelerator.h"
#include "common/text.h"
#include "loggen/log_generator.h"
#include "query/matcher.h"
#include "query/parser.h"
#include "random_programs.h"

namespace mithril::accel {
namespace {

using test::makePages;
using test::randomCorpus;
using test::randomQuery;

/** The texts of @p r's kept lines, in the order process() returned
 *  them. */
std::vector<std::string_view>
keptTexts(const AccelResult &r)
{
    std::vector<std::string_view> out;
    for (const KeptLine &line : r.kept) {
        out.push_back(line.text);
    }
    return out;
}

/** The lines of @p corpus that SoftwareMatcher keeps for @p q, in
 *  corpus order. */
std::vector<std::string_view>
matchedTexts(const query::Query &q, const std::vector<std::string> &corpus)
{
    query::SoftwareMatcher matcher(q);
    std::vector<std::string_view> out;
    for (const std::string &line : corpus) {
        if (matcher.matches(line)) {
            out.push_back(line);
        }
    }
    return out;
}

class EquivalenceTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(EquivalenceTest, AcceleratorAgreesWithSoftwareMatcher)
{
    Rng rng(GetParam());
    // At least 9 pages, so each of the 4 pipelines filters two or more
    // and the in-order check sees the batch order across pipelines.
    std::vector<std::string> corpus = randomCorpus(&rng, 1000);
    auto pages = makePages(corpus);
    ASSERT_GE(pages.size(), 9u);
    std::vector<compress::ByteView> page_views;
    for (const auto &p : pages) {
        page_views.emplace_back(p);
    }

    for (int trial = 0; trial < 8; ++trial) {
        query::Query q = randomQuery(&rng);
        ASSERT_TRUE(q.validate().isOk()) << q.toString();

        Accelerator accel;
        Status st = accel.configure(q);
        if (!st.isOk()) {
            // Capacity failures are legal (fallback path); skip here.
            ASSERT_EQ(st.code(), StatusCode::kCapacityExceeded)
                << st.toString();
            continue;
        }
        AccelResult result;
        ASSERT_TRUE(accel.process(page_views, Mode::kFilter,
                                  &result).isOk());

        EXPECT_EQ(keptTexts(result), matchedTexts(q, corpus))
            << q.toString();
        EXPECT_EQ(result.lines_kept, result.kept.size()) << q.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, EquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15, 16));

class EquivalenceOnRealisticLogsTest
    : public ::testing::TestWithParam<int>
{
};

TEST_P(EquivalenceOnRealisticLogsTest, SyntheticHpcCorpus)
{
    loggen::LogGenerator gen(loggen::hpc4Datasets()[GetParam()]);
    std::string text = gen.generate(256 * 1024);

    std::vector<std::string> corpus;
    forEachLine(text, [&](std::string_view line) {
        corpus.emplace_back(line);
    });
    auto pages = makePages(corpus);
    std::vector<compress::ByteView> page_views;
    for (const auto &p : pages) {
        page_views.emplace_back(p);
    }

    const char *queries[] = {
        "RAS & KERNEL & !FATAL",
        "INFO | WARNING | error | failed",
        "\"cache\" & \"parity\"",
        "!INFO & !WARNING & !error",
        "(link & up) | (link & down) | !link",
    };
    for (const char *text_q : queries) {
        query::Query q;
        ASSERT_TRUE(query::parseQuery(text_q, &q).isOk());

        Accelerator accel;
        ASSERT_TRUE(accel.configure(q).isOk());
        AccelResult result;
        ASSERT_TRUE(accel.process(page_views, Mode::kFilter,
                                  &result).isOk());

        EXPECT_EQ(keptTexts(result), matchedTexts(q, corpus)) << text_q;
        EXPECT_EQ(result.lines_kept, result.kept.size()) << text_q;
    }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, EquivalenceOnRealisticLogsTest,
                         ::testing::Values(0, 1, 2, 3));

} // namespace
} // namespace mithril::accel
