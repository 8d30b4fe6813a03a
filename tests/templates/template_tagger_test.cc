#include "templates/template_tagger.h"

#include <gtest/gtest.h>

#include "common/text.h"
#include "compress/lzah.h"
#include "loggen/log_generator.h"

namespace mithril::templates {
namespace {

struct TaggedCorpus {
    std::vector<std::string> lines;
    std::vector<compress::Bytes> pages;
    std::vector<compress::ByteView> views;
    std::vector<ExtractedTemplate> templates;
    FtTree tree;
};

TaggedCorpus
makeCorpus(size_t template_count)
{
    TaggedCorpus corpus{.lines = {}, .pages = {}, .views = {},
                        .templates = {}, .tree = FtTree::build("", {})};
    // template_count distinct two-token templates + a variable token.
    std::string text;
    for (size_t t = 0; t < template_count; ++t) {
        for (int i = 0; i < 40; ++i) {
            std::string line = "tplA" + std::to_string(t) + " tplB" +
                               std::to_string(t) + " v" +
                               std::to_string(i);
            text += line + "\n";
            corpus.lines.push_back(std::move(line));
        }
    }
    FtTreeConfig cfg;
    cfg.token_min_count = 30;
    cfg.token_frequency_ratio = 0.0;
    cfg.template_min_support = 30;
    corpus.tree = FtTree::build(text, cfg);
    corpus.templates = corpus.tree.extractTemplates();

    compress::LzahPageEncoder enc;
    for (const std::string &line : corpus.lines) {
        EXPECT_NE(enc.addLine(line), compress::AddLineResult::kRejected);
    }
    enc.flush();
    corpus.pages = std::move(enc.pages());
    for (const auto &p : corpus.pages) {
        corpus.views.emplace_back(p);
    }
    return corpus;
}

TEST(TemplateTaggerTest, TagsEveryLineSinglePass)
{
    TaggedCorpus corpus = makeCorpus(5);
    ASSERT_EQ(corpus.templates.size(), 5u);

    accel::Accelerator accel(accel::AccelConfig{.collect_masks = true});
    TagResult result;
    ASSERT_TRUE(tagTemplates(corpus.templates, corpus.views, &accel,
                             &result).isOk());
    EXPECT_EQ(result.passes, 1u);
    ASSERT_EQ(result.tags.size(), corpus.lines.size());
    EXPECT_EQ(result.untagged, 0u);
    for (uint64_t count : result.histogram) {
        EXPECT_EQ(count, 40u);
    }
    // Tags agree with tree classification line by line.
    for (size_t i = 0; i < corpus.lines.size(); ++i) {
        EXPECT_EQ(result.tags[i], corpus.tree.classify(corpus.lines[i]))
            << corpus.lines[i];
    }
}

TEST(TemplateTaggerTest, MultiPassBeyondEightTemplates)
{
    TaggedCorpus corpus = makeCorpus(20);
    ASSERT_EQ(corpus.templates.size(), 20u);

    accel::Accelerator accel(accel::AccelConfig{.collect_masks = true});
    TagResult result;
    ASSERT_TRUE(tagTemplates(corpus.templates, corpus.views, &accel,
                             &result).isOk());
    EXPECT_EQ(result.passes, 3u);  // ceil(20 / 8)
    EXPECT_EQ(result.untagged, 0u);
    EXPECT_GT(result.cycles, 0u);
    uint64_t total = 0;
    for (uint64_t count : result.histogram) {
        total += count;
    }
    EXPECT_EQ(total, corpus.lines.size());
}

TEST(TemplateTaggerTest, UnknownLinesStayUntagged)
{
    TaggedCorpus corpus = makeCorpus(3);
    // Append pages holding out-of-library lines.
    compress::LzahPageEncoder enc;
    ASSERT_NE(enc.addLine("nothing matches here"),
              compress::AddLineResult::kRejected);
    enc.flush();
    std::vector<compress::Bytes> extra = std::move(enc.pages());
    for (const auto &p : extra) {
        corpus.pages.push_back(p);
    }
    corpus.views.clear();
    for (const auto &p : corpus.pages) {
        corpus.views.emplace_back(p);
    }

    accel::Accelerator accel(accel::AccelConfig{.collect_masks = true});
    TagResult result;
    ASSERT_TRUE(tagTemplates(corpus.templates, corpus.views, &accel,
                             &result).isOk());
    EXPECT_EQ(result.untagged, 1u);
    EXPECT_EQ(result.tags.back(), kUntagged);
}

TEST(TemplateTaggerTest, MostSpecificTemplateWins)
{
    // Two overlapping templates: (A) and (A B); a line with both tokens
    // must be tagged with the deeper one.
    std::vector<ExtractedTemplate> templates(2);
    templates[0].tokens = {"A"};
    templates[1].tokens = {"A", "B"};

    compress::LzahPageEncoder enc;
    ASSERT_NE(enc.addLine("A alone"), compress::AddLineResult::kRejected);
    ASSERT_NE(enc.addLine("A with B"),
              compress::AddLineResult::kRejected);
    enc.flush();
    std::vector<compress::ByteView> views;
    for (const auto &p : enc.pages()) {
        views.emplace_back(p);
    }

    accel::Accelerator accel(accel::AccelConfig{.collect_masks = true});
    TagResult result;
    ASSERT_TRUE(tagTemplates(templates, views, &accel, &result).isOk());
    ASSERT_EQ(result.tags.size(), 2u);
    EXPECT_EQ(result.tags[0], 0u);
    EXPECT_EQ(result.tags[1], 1u);
}

TEST(TemplateTaggerTest, RequiresMaskCollection)
{
    TaggedCorpus corpus = makeCorpus(2);
    accel::Accelerator accel;  // collect_masks defaults to false
    TagResult result;
    EXPECT_EQ(tagTemplates(corpus.templates, corpus.views, &accel,
                           &result).code(),
              StatusCode::kInvalidArgument);
}

TEST(TemplateTaggerTest, SyntheticDatasetEndToEnd)
{
    loggen::LogGenerator gen(loggen::hpc4Datasets()[3]);
    std::string text = gen.generate(512 * 1024);
    FtTreeConfig cfg;
    cfg.template_min_support = 64;
    FtTree tree = FtTree::build(text, cfg);
    auto templates = tree.extractTemplates();
    ASSERT_GT(templates.size(), 3u);

    compress::LzahPageEncoder enc;
    size_t line_count = 0;
    forEachLine(text, [&](std::string_view line) {
        enc.addLine(line);
        ++line_count;
    });
    enc.flush();
    std::vector<compress::ByteView> views;
    for (const auto &p : enc.pages()) {
        views.emplace_back(p);
    }

    accel::Accelerator accel(accel::AccelConfig{.collect_masks = true});
    TagResult result;
    ASSERT_TRUE(tagTemplates(templates, views, &accel, &result).isOk());
    EXPECT_EQ(result.tags.size(), line_count);
    // The Zipf head templates must dominate the tagged mass.
    uint64_t tagged = line_count - result.untagged;
    EXPECT_GT(tagged, line_count / 2);
}

} // namespace
} // namespace mithril::templates
