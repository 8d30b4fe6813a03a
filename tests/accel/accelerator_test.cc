#include "accel/accelerator.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>

#include "common/bits.h"
#include "common/hash.h"
#include "loggen/log_generator.h"
#include "query/parser.h"
#include "random_programs.h"
#include "templates/prefix_tree.h"

namespace mithril::accel {
namespace {

using test::makePages;

std::vector<compress::ByteView>
views(const std::vector<compress::Bytes> &pages)
{
    std::vector<compress::ByteView> out;
    for (const auto &p : pages) {
        out.emplace_back(p);
    }
    return out;
}

query::Query
mustParse(std::string_view text)
{
    query::Query q;
    Status st = query::parseQuery(text, &q);
    EXPECT_TRUE(st.isOk()) << st.toString();
    return q;
}

TEST(AcceleratorTest, FilterModeKeepsMatchingLines)
{
    auto pages = makePages({"RAS KERNEL INFO ok",
                            "APP MESSAGE plain",
                            "RAS KERNEL FATAL bad"});
    Accelerator accel;
    ASSERT_TRUE(accel.configure(mustParse("KERNEL & !FATAL")).isOk());
    AccelResult result;
    ASSERT_TRUE(accel.process(views(pages), Mode::kFilter,
                              &result).isOk());
    EXPECT_EQ(result.lines_in, 3u);
    ASSERT_EQ(result.lines_kept, 1u);
    ASSERT_EQ(result.kept.size(), 1u);
    EXPECT_EQ(result.kept[0].text, "RAS KERNEL INFO ok");
}

TEST(AcceleratorTest, DecompressModeReturnsText)
{
    auto pages = makePages({"line one", "line two"});
    Accelerator accel;
    AccelResult result;
    ASSERT_TRUE(accel.process(views(pages), Mode::kDecompress,
                              &result).isOk());
    EXPECT_EQ(result.text, "line one\nline two\n");
    EXPECT_GT(result.cycles, 0u);
}

TEST(AcceleratorTest, RawModeForwardsBytes)
{
    auto pages = makePages({"anything"});
    Accelerator accel;
    AccelResult result;
    ASSERT_TRUE(accel.process(views(pages), Mode::kRaw, &result).isOk());
    EXPECT_EQ(result.raw.size(), pages.size() * 4096);
}

TEST(AcceleratorTest, FilterWithoutProgramFails)
{
    auto pages = makePages({"x"});
    Accelerator accel;
    AccelResult result;
    EXPECT_FALSE(accel.process(views(pages), Mode::kFilter,
                               &result).isOk());
}

TEST(AcceleratorTest, BatchedQueriesCountedPerQuery)
{
    std::vector<std::string> lines;
    for (int i = 0; i < 100; ++i) {
        lines.push_back(i % 2 == 0 ? "even token line"
                                   : "odd marker line");
    }
    auto pages = makePages(lines);
    std::vector<query::Query> queries{mustParse("even"),
                                      mustParse("odd"),
                                      mustParse("even | odd")};
    Accelerator accel;
    ASSERT_TRUE(accel.configure(queries).isOk());
    AccelResult result;
    ASSERT_TRUE(accel.process(views(pages), Mode::kFilter,
                              &result).isOk());
    ASSERT_GE(result.kept_per_query.size(), 3u);
    EXPECT_EQ(result.kept_per_query[0], 50u);
    EXPECT_EQ(result.kept_per_query[1], 50u);
    EXPECT_EQ(result.kept_per_query[2], 100u);
    EXPECT_EQ(result.lines_kept, 100u);
}

TEST(AcceleratorTest, CyclesScaleWithData)
{
    std::vector<std::string> small_lines(10, "tok a b"), big_lines;
    for (int i = 0; i < 1000; ++i) {
        big_lines.push_back("tok number " + std::to_string(i) +
                            " with more content to process");
    }
    Accelerator accel;
    ASSERT_TRUE(accel.configure(mustParse("tok")).isOk());

    auto small_pages = makePages(small_lines);
    auto big_pages = makePages(big_lines);
    AccelResult small_result, big_result;
    ASSERT_TRUE(accel.process(views(small_pages), Mode::kFilter,
                              &small_result).isOk());
    ASSERT_TRUE(accel.process(views(big_pages), Mode::kFilter,
                              &big_result).isOk());
    EXPECT_GT(big_result.cycles, small_result.cycles * 5);
    EXPECT_GT(big_result.filterThroughput(), 0.0);
}

TEST(AcceleratorTest, MorePipelinesFewerCycles)
{
    std::vector<std::string> lines;
    for (int i = 0; i < 6000; ++i) {
        lines.push_back("payload line number " + std::to_string(i * 977) +
                        " alpha beta gamma delta epsilon zeta");
    }
    auto pages = makePages(lines);
    ASSERT_GT(pages.size(), 8u);

    AccelResult one, four;
    Accelerator a1(AccelConfig{.pipelines = 1});
    Accelerator a4(AccelConfig{.pipelines = 4});
    ASSERT_TRUE(a1.configure(mustParse("alpha")).isOk());
    ASSERT_TRUE(a4.configure(mustParse("alpha")).isOk());
    ASSERT_TRUE(a1.process(views(pages), Mode::kFilter, &one).isOk());
    ASSERT_TRUE(a4.process(views(pages), Mode::kFilter, &four).isOk());
    // Four pipelines split the page stream ~4x.
    EXPECT_LT(four.cycles, one.cycles / 2);
    EXPECT_EQ(one.lines_kept, four.lines_kept);
}

TEST(AcceleratorTest, UsefulRatioReported)
{
    std::vector<std::string> lines(200, "ab cd ef gh ij");
    auto pages = makePages(lines);
    Accelerator accel;
    ASSERT_TRUE(accel.configure(mustParse("ab")).isOk());
    AccelResult result;
    ASSERT_TRUE(accel.process(views(pages), Mode::kFilter,
                              &result).isOk());
    // 2-byte tokens in 16-byte words: 12.5% useful.
    EXPECT_NEAR(result.usefulRatio(), 0.125, 0.01);
}

TEST(AcceleratorTest, KeepLinesDisabledStillCounts)
{
    auto pages = makePages({"hit a", "hit b", "miss"});
    Accelerator accel(AccelConfig{.keep_lines = false});
    ASSERT_TRUE(accel.configure(mustParse("hit")).isOk());
    AccelResult result;
    ASSERT_TRUE(accel.process(views(pages), Mode::kFilter,
                              &result).isOk());
    EXPECT_EQ(result.lines_kept, 2u);
    EXPECT_TRUE(result.kept.empty());
    EXPECT_EQ(result.kept_per_query[0], 2u);
}

/** A hash64 chain over values and byte strings, in the order added. */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        h_ = hash64(&v, sizeof v, h_);
    }

    void
    add(std::string_view s)
    {
        add(s.size());
        h_ = hash64(s.data(), s.size(), h_);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0;
};

/** Adds every field of @p r to @p d. */
void
digestResult(const AccelResult &r, Digest *d)
{
    d->add(r.kept.size());
    for (const KeptLine &k : r.kept) {
        d->add(k.text);
        d->add(k.query_mask);
        d->add(k.page_index);
        d->add(k.line_in_page);
    }
    d->add(r.lines_in);
    d->add(r.lines_kept);
    d->add(r.kept_per_query.size());
    for (uint64_t n : r.kept_per_query) {
        d->add(n);
    }
    d->add(r.line_masks.size());
    for (uint64_t m : r.line_masks) {
        d->add(m);
    }
    d->add(r.cycles);
    d->add(r.stall_cycles);
    d->add(r.decompressed_bytes);
    d->add(r.padded_bytes);
    d->add(r.tokenized_words);
    d->add(r.useful_token_bytes);
    d->add(r.pages_with_matches);
    d->add(r.text);
    d->add(asChars(r.raw));
}

/**
 * Lines of every length 0-40, so a line's '\n' lands at every offset
 * of a 16-byte word: delimiter-only lines, single tokens (longer than
 * a word from 17 bytes on), and vocabulary words, some cut short,
 * between runs of mixed delimiters.
 */
std::vector<std::string>
lengthSweepCorpus(Rng *rng)
{
    constexpr char kDelims[] = {' ', '\t', '\r'};
    std::vector<std::string> out;
    for (int rep = 0; rep < 120; ++rep) {
        for (size_t len = 0; len <= 40; ++len) {
            std::string line;
            const char *word = test::kVocab[rng->below(
                std::size(test::kVocab))];
            switch (rep % 3) {
            case 0:
                while (line.size() < len) {
                    line += kDelims[rng->below(3)];
                }
                break;
            case 1:
                while (line.size() < len) {
                    line += word;
                }
                break;
            default:
                while (line.size() < len) {
                    line += test::kVocab[rng->below(
                        std::size(test::kVocab))];
                    for (size_t r = 1 + rng->below(3); r > 0; --r) {
                        line += kDelims[rng->below(3)];
                    }
                }
                break;
            }
            line.resize(len);
            out.push_back(std::move(line));
        }
    }
    return out;
}

TEST(AcceleratorTest, ResultDigestIsStable)
{
    // Pins every field the filter and decompress modes return, so a
    // change to the emulation's host code cannot move a kept line, a
    // mask or a cycle unnoticed.
    std::vector<std::vector<std::string>> corpora;
    for (const loggen::DatasetSpec &spec : loggen::hpc4Datasets()) {
        loggen::LogGenerator gen(spec);
        std::vector<std::string> lines;
        for (int i = 0; i < 20000; ++i) {
            lines.push_back(gen.line());
        }
        corpora.push_back(std::move(lines));
    }
    Rng rng(22);
    corpora.push_back(lengthSweepCorpus(&rng));

    // EquivalenceTest's random programs, alone and batched in pairs
    // (capacity failures fall back to the host and are skipped), plus
    // one column-constrained program.
    const AccelConfig config{.collect_masks = true};
    std::vector<std::unique_ptr<Accelerator>> accels;
    for (int i = 0; i < 6; ++i) {
        std::vector<query::Query> batch{test::randomQuery(&rng)};
        if (i % 2 == 1) {
            batch.push_back(test::randomQuery(&rng));
        }
        auto accel = std::make_unique<Accelerator>(config);
        Status st = accel->configure(batch);
        if (!st.isOk()) {
            ASSERT_EQ(st.code(), StatusCode::kCapacityExceeded)
                << st.toString();
            continue;
        }
        accels.push_back(std::move(accel));
    }
    ASSERT_GE(accels.size(), 4u);
    const std::vector<templates::PrefixTemplate> columns{
        {{{6, "RAS"}, {7, "KERNEL"}}},
        {{{8, "pbs_mom:"}}},
        {{{0, "-"}, {4, "Dec"}}},
        {{{1, "error"}}},
    };
    FilterProgram column_program;
    ASSERT_TRUE(templates::compilePrefixTemplates(columns,
                                                  &column_program)
                    .isOk());
    accels.push_back(std::make_unique<Accelerator>(config));
    accels.back()->configureProgram(std::move(column_program));
    Accelerator decompressor(config);

    Digest digest;
    uint64_t kept = 0;
    for (const std::vector<std::string> &corpus : corpora) {
        auto pages = makePages(corpus);
        std::vector<compress::ByteView> all = views(pages);
        for (size_t batch : {1u, 3u, 9u}) {
            for (size_t off = 0; off < all.size(); off += batch) {
                std::span<const compress::ByteView> sub =
                    std::span(all).subspan(
                        off, std::min(batch, all.size() - off));
                for (const auto &accel : accels) {
                    AccelResult r;
                    ASSERT_TRUE(accel->process(sub, Mode::kFilter, &r)
                                    .isOk());
                    kept += r.lines_kept;
                    digestResult(r, &digest);
                }
                AccelResult text;
                ASSERT_TRUE(decompressor
                                .process(sub, Mode::kDecompress, &text)
                                .isOk());
                digestResult(text, &digest);
            }
        }
    }
    EXPECT_GT(kept, 0u);
    EXPECT_EQ(digest.value(), 0x0f28ee3229c2af0dull) << std::hex << digest.value();
}

} // namespace
} // namespace mithril::accel
