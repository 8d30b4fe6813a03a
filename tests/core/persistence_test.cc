/**
 * @file
 * Device-image persistence, the one image format: a store saved with
 * saveDeviceImage() and mounted with recover() on a fresh instance must
 * answer every query identically — same matches, same page pruning —
 * and keep accepting ingest after reopen().
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/hash.h"
#include "common/text.h"
#include "core/mithrilog.h"
#include "loggen/incident.h"
#include "loggen/log_generator.h"
#include "query/matcher.h"
#include "query/parser.h"

namespace mithril::core {
namespace {

query::Query
mustParse(std::string_view text)
{
    query::Query q;
    Status st = query::parseQuery(text, &q);
    EXPECT_TRUE(st.isOk()) << st.toString();
    return q;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/** @p image with the 8-byte little-endian count at @p offset forged. */
std::string
withCount(std::string image, size_t offset, uint64_t count)
{
    for (size_t i = 0; i < 8; ++i) {
        image[offset + i] = static_cast<char>(count >> (8 * i));
    }
    return image;
}

/** Offset of the page count in a device image (after magic, version). */
constexpr size_t kDevicePageCount = 8;

/** Temp file path cleaned up by each test. */
class PersistenceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "mithrilog_image_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".bin";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(PersistenceTest, RoundTripPreservesQueries)
{
    loggen::LogGenerator gen(loggen::hpc4Datasets()[0]);
    std::string text = gen.generate(1 << 20);

    MithriLog original;
    ASSERT_TRUE(original.ingestText(text).isOk());
    ASSERT_TRUE(original.flush().isOk());
    ASSERT_TRUE(original.saveDeviceImage(path_).isOk());

    MithriLog restored;
    ASSERT_TRUE(restored.recover(path_).isOk());

    EXPECT_EQ(restored.lineCount(), original.lineCount());
    EXPECT_EQ(restored.rawBytes(), original.rawBytes());
    EXPECT_EQ(restored.dataPageCount(), original.dataPageCount());

    for (const char *q :
         {"KERNEL & INFO", "FATAL & !APP", "error | corrected"}) {
        QueryResult a, b;
        ASSERT_TRUE(original.run(mustParse(q), &a).isOk()) << q;
        ASSERT_TRUE(restored.run(mustParse(q), &b).isOk()) << q;
        EXPECT_EQ(a.matched_lines, b.matched_lines) << q;
        EXPECT_EQ(a.breakdown.pages_scanned, b.breakdown.pages_scanned) << q;
    }
}

TEST_F(PersistenceTest, IngestContinuesAfterRestore)
{
    MithriLog original;
    ASSERT_TRUE(original.ingestText("before save alpha\n").isOk());
    ASSERT_TRUE(original.flush().isOk());
    ASSERT_TRUE(original.saveDeviceImage(path_).isOk());

    MithriLog restored;
    ASSERT_TRUE(restored.recover(path_).isOk());
    ASSERT_TRUE(restored.reopen().isOk());
    ASSERT_TRUE(restored.ingestText("after load beta\n").isOk());
    EXPECT_TRUE(restored.flush().isOk());

    QueryResult r;
    ASSERT_TRUE(restored.run(mustParse("alpha | beta"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 2u);
    EXPECT_EQ(restored.lineCount(), 2u);
}

TEST_F(PersistenceTest, PageDirectoryAscendsAcrossRecoverAndReopen)
{
    // Every query path numbers a kept line from its page's first line,
    // found by binary search over the page directory, which needs page
    // ids that ascend with ingest order through every mount and reopen.
    loggen::LogGenerator gen(loggen::hpc4Datasets()[0]);
    std::string first = gen.generate(256 << 10);
    std::string second = gen.generate(256 << 10);
    MithriLog original;
    ASSERT_TRUE(original.ingestText(first).isOk());
    ASSERT_TRUE(original.flush().isOk());
    ASSERT_TRUE(original.saveDeviceImage(path_).isOk());

    MithriLog reopened;
    ASSERT_TRUE(reopened.recover(path_).isOk());
    ASSERT_TRUE(reopened.reopen().isOk());
    ASSERT_TRUE(reopened.ingestText(second).isOk());
    ASSERT_TRUE(reopened.flush().isOk());
    ASSERT_TRUE(reopened.saveDeviceImage(path_).isOk());

    MithriLog mounted;
    ASSERT_TRUE(mounted.recover(path_).isOk());
    const std::string corpus = first + second;
    // 9 union sets exceed the 8 flag pairs: the host evaluator scans
    // every page.
    query::Query q = mustParse(
        "INFO | FATAL | APP | KERNEL | cache | TLB | ciod | parity | "
        "interrupt");
    query::SoftwareMatcher matcher(q);
    std::vector<std::string_view> lines = splitLines(corpus);
    std::vector<uint64_t> expected;
    for (uint64_t i = 0; i < lines.size(); ++i) {
        if (matcher.matches(lines[i])) {
            expected.push_back(i);
        }
    }
    ASSERT_FALSE(expected.empty());
    for (MithriLog *store : {&reopened, &mounted}) {
        const auto &dir = store->pageDirectory();
        const auto &ids = store->dataPages();
        ASSERT_EQ(dir.size(), ids.size());
        for (size_t i = 1; i < dir.size(); ++i) {
            EXPECT_LT(ids[i - 1], ids[i]) << i;
            EXPECT_EQ(dir[i - 1].first_line + dir[i - 1].line_count,
                      dir[i].first_line)
                << i;
        }
        QueryResult r;
        ASSERT_TRUE(store->run(q, &r).isOk());
        EXPECT_TRUE(r.breakdown.used_fallback);
        EXPECT_EQ(r.line_numbers, expected);
    }
}

TEST_F(PersistenceTest, LoadRequiresFreshSystem)
{
    MithriLog original;
    ASSERT_TRUE(original.ingestText("x y z\n").isOk());
    ASSERT_TRUE(original.flush().isOk());
    ASSERT_TRUE(original.saveDeviceImage(path_).isOk());

    MithriLog dirty;
    ASSERT_TRUE(dirty.ingestText("already has data\n").isOk());
    EXPECT_TRUE(dirty.flush().isOk());
    EXPECT_EQ(dirty.recover(path_).code(), StatusCode::kInvalidArgument);
}

TEST_F(PersistenceTest, MissingFileFails)
{
    MithriLog system;
    EXPECT_FALSE(system.recover("/nonexistent/dir/image.bin").isOk());
}

TEST_F(PersistenceTest, TruncatedImageRejected)
{
    MithriLog original;
    ASSERT_TRUE(original.ingestText("some content here\n").isOk());
    ASSERT_TRUE(original.flush().isOk());
    ASSERT_TRUE(original.saveDeviceImage(path_).isOk());
    const std::string device = readBytes(path_);
    ASSERT_GT(device.size(), 16u);

    // The forged page count times the page size wraps 64 bits to a
    // small number, so a loader that multiplies before it compares
    // reads far past the end of the file.
    constexpr uint64_t kWrapsTimesPage = (1ull << 52) + 1;
    struct Row {
        const char *what;
        std::string image;
    };
    const Row rows[] = {
        {"device page count",
         withCount(device, kDevicePageCount, kWrapsTimesPage)},
        {"device image cut in half", device.substr(0, device.size() / 2)},
        {"header shorter than 16 bytes", device.substr(0, 12)},
    };
    for (const Row &row : rows) {
        writeBytes(path_, row.image);
        MithriLog restored;
        Status st = restored.recover(path_);
        EXPECT_EQ(st.code(), StatusCode::kCorruptData)
            << row.what << ": " << st.toString();
    }
}

/**
 * The bytes a store leaves behind are its format: an ingest-path
 * change that claims "bytes unchanged" must reproduce the device
 * image and the recovered image exactly. The constants were recorded
 * when seal() stopped writing the keyword index's partial leaves and
 * roots (only full nodes reach the device).
 */
TEST_F(PersistenceTest, ImageDigestsAreStable)
{
    loggen::IncidentGroundTruth truth;
    const std::string text =
        loggen::generateIncident(loggen::IncidentSpec{}, &truth);

    MithriLogConfig config;
    config.checkpoint_every_pages = 8;
    MithriLog store(config);
    constexpr size_t kSegment = 64 * 1024;
    for (size_t pos = 0; pos < text.size();) {
        size_t end = std::min(pos + kSegment, text.size());
        if (end < text.size()) {
            end = text.rfind('\n', end - 1) + 1;  // line-aligned
        }
        ASSERT_TRUE(
            store.ingestText(std::string_view(text).substr(pos, end - pos))
                .isOk());
        pos = end;
    }
    ASSERT_TRUE(store.seal().isOk());
    ASSERT_GT(store.dataPageCount(), 8u * 3);

    ASSERT_TRUE(store.saveDeviceImage(path_).isOk());
    const std::string device = readBytes(path_);

    MithriLog recovered;
    ASSERT_TRUE(recovered.recover(path_).isOk());
    EXPECT_EQ(recovered.lineCount(), truth.total_lines);
    ASSERT_TRUE(recovered.saveDeviceImage(path_).isOk());
    const std::string recovered_device = readBytes(path_);

    EXPECT_EQ(hash64(device), 0x0471290c6cdbde33ull);
    EXPECT_EQ(hash64(recovered_device), 0xc3133ad76047a546ull);
}

TEST_F(PersistenceTest, ConfigMismatchRejected)
{
    // recover() reads one format, the device image. A file that
    // carries the retired host-image header ("MLOG", version 7) in
    // front of otherwise valid device-image bytes is foreign.
    MithriLog original;
    ASSERT_TRUE(original.ingestText("payload line\n").isOk());
    ASSERT_TRUE(original.flush().isOk());
    ASSERT_TRUE(original.saveDeviceImage(path_).isOk());
    std::vector<uint8_t> header;
    putLe<uint32_t>(header, 0x474f4c4d);  // "MLOG"
    putLe<uint32_t>(header, 7);
    std::string image = readBytes(path_);
    image.replace(0, header.size(), asChars(header));
    writeBytes(path_, image);

    MithriLog restored;
    EXPECT_EQ(restored.recover(path_).code(), StatusCode::kCorruptData);
}

} // namespace
} // namespace mithril::core
