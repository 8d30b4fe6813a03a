#include "obs/metrics.h"

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/report.h"

namespace mithril::obs {
namespace {

TEST(MetricsRegistry, CounterBasics)
{
    MetricsRegistry m;
    Counter &c = m.counter("core.lines_ingested");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name resolves to the same counter.
    EXPECT_EQ(&m.counter("core.lines_ingested"), &c);
    EXPECT_EQ(m.counterValue("core.lines_ingested"), 42u);
    EXPECT_EQ(m.counterValue("no.such"), 0u);
}

// The concurrent-increment stress test lives with the other
// cross-thread obs tests in tests/svc/histogram_concurrency_test.cc,
// where the TSan tier covers it.

TEST(MetricsRegistry, Labels)
{
    MetricsRegistry m;
    m.counter("ssd.link_busy_ps", {{"link", "internal"}}).add(10);
    m.counter("ssd.link_busy_ps", {{"link", "external"}}).add(20);
    EXPECT_EQ(m.counterValue("ssd.link_busy_ps{link=internal}"), 10u);
    EXPECT_EQ(m.counterValue("ssd.link_busy_ps{link=external}"), 20u);
}

TEST(MetricsRegistry, Gauge)
{
    MetricsRegistry m;
    Gauge &g = m.gauge("lzah.ratio");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.set(3.0);
    MetricsSnapshot snap = m.snapshot();
    EXPECT_DOUBLE_EQ(snap.gauges.at("lzah.ratio"), 3.0);
}

TEST(MetricsRegistry, SnapshotJsonIsValid)
{
    MetricsRegistry m;
    m.counter("a.count").add(1);
    m.counter("b.count", {{"k", "v"}}).add(2);
    m.gauge("c.ratio").set(0.5);
    m.quantileHistogram("d.sizes").record(100);
    std::string json = metricsToJson(m);
    std::string err;
    EXPECT_TRUE(jsonValid(json, &err)) << err << "\n" << json;
    EXPECT_NE(json.find("\"a.count\""), std::string::npos);
    EXPECT_NE(json.find("\"d.sizes\""), std::string::npos);
}

TEST(JsonWriter, EscapesAndNesting)
{
    std::string out;
    JsonWriter w(&out);
    w.beginObject();
    w.key("text");
    w.value("line\n\"quoted\"\t\\");
    w.key("list");
    w.beginArray();
    w.value(static_cast<uint64_t>(1));
    w.value(-2.5);
    w.value(true);
    w.endArray();
    w.endObject();
    std::string err;
    EXPECT_TRUE(jsonValid(out, &err)) << err << "\n" << out;
    EXPECT_NE(out.find("\\n"), std::string::npos);
    EXPECT_NE(out.find("\\\""), std::string::npos);
}

/** One row of the JSON grammar table: a document and the error
 *  jsonValid() reports for it (empty when the document is valid). */
struct JsonCase {
    std::string_view text;
    std::string_view error;
};

constexpr JsonCase kJsonGrammar[] = {
    // Accepted forms: every value kind, escapes, number shapes and
    // insignificant whitespace.
    {"{}", ""},
    {"[]", ""},
    {"{\"a\": [1, 2.5e3, null, \"x\"]}", ""},
    {" \t\r\n{ \"k\" : [ true , false ] }\n", ""},
    {"[[{}], [{\"k\": []}]]", ""},
    {"true", ""},
    {"null", ""},
    {"\"\\\" \\\\ \\/ \\b \\f \\n \\r \\t \\u00e9\"", ""},
    {"0", ""},
    {"-0", ""},
    {"-12.5E-3", ""},
    {"1e+9", ""},
    {"4E2", ""},
    // Literals.
    {"tru", "bad literal at offset 0"},
    {"[nul]", "bad literal at offset 1"},
    {"falsy", "bad literal at offset 0"},
    // Strings.
    {"\"a\x01z\"", "control char in string at offset 2"},
    {"\"\\u12G4\"", "bad \\u escape at offset 2"},
    {"\"\\u12\"", "bad \\u escape at offset 2"},
    {"\"\\q\"", "bad escape at offset 2"},
    {"\"abc", "unterminated string at offset 4"},
    {"\"abc\\", "unterminated string at offset 5"},
    {"{'a': 1}", "expected string at offset 1"},
    // Numbers.
    {"-", "bad number at offset 1"},
    {"+1", "bad number at offset 0"},
    {".5", "bad number at offset 0"},
    {"{\"a\":}", "bad number at offset 5"},
    {"1.", "bad fraction at offset 2"},
    {"1.e5", "bad fraction at offset 2"},
    {"1e", "bad exponent at offset 2"},
    {"[1e+]", "bad exponent at offset 4"},
    // Structure.
    {"", "unexpected end at offset 0"},
    {"[", "unexpected end at offset 1"},
    {"{\"a\":", "unexpected end at offset 5"},
    {"{", "expected string at offset 1"},
    {"{\"a\" 1}", "expected ':' at offset 5"},
    {"{\"a\": 1 \"b\": 2}", "expected ',' or '}' at offset 8"},
    {"[1 2]", "expected ',' or ']' at offset 3"},
    {"{\"a\": 1} extra", "trailing data at offset 9"},
    {"1 2", "trailing data at offset 2"},
    // Trailing commas.
    {"{\"a\": 1,}", "expected string at offset 8"},
    {"[1,]", "bad number at offset 3"},
};

TEST(JsonValid, RejectsMalformed)
{
    for (const JsonCase &c : kJsonGrammar) {
        std::string err;
        EXPECT_EQ(jsonValid(c.text, &err), c.error.empty()) << c.text;
        EXPECT_EQ(err, c.error) << c.text;
        JsonValue doc;
        EXPECT_EQ(jsonParse(c.text, &doc), c.error.empty()) << c.text;
    }
}

TEST(JsonRecord, BenchLineFormat)
{
    JsonRecord rec("my_bench");
    rec.field("dataset", "BGL2")
        .field("value", 1.5)
        .field("count", static_cast<uint64_t>(7))
        .field("ok", true);
    std::string json = rec.json();
    std::string err;
    EXPECT_TRUE(jsonValid(json, &err)) << err << "\n" << json;
    EXPECT_NE(json.find("\"bench\":\"my_bench\""), std::string::npos);
}

} // namespace
} // namespace mithril::obs
