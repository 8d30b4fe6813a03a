/**
 * @file
 * Minimal JSON utilities for the observability layer: a streaming
 * writer (commas and escaping handled), and a strict parser used by
 * tests and the bench-output checker. No external dependencies, by
 * repo policy.
 */
#ifndef MITHRIL_OBS_JSON_H
#define MITHRIL_OBS_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mithril::obs {

/** Escapes @p s for use inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

/**
 * Streaming JSON writer appending to a caller-owned string.
 *
 * Usage:
 *   JsonWriter w(&out);
 *   w.beginObject();
 *   w.key("name"); w.value("x");
 *   w.key("list"); w.beginArray(); w.value(1.0); w.endArray();
 *   w.endObject();
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string *out) : out_(out) {}

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    void key(std::string_view k);

    void value(std::string_view v);
    void value(const char *v) { value(std::string_view(v)); }
    void value(double v);
    void value(uint64_t v);
    void value(int64_t v);
    void value(bool v);

  private:
    void separate();

    std::string *out_;
    /** Whether a comma is due before the next element, per depth. */
    std::string pending_;  // stack of 0/1 chars
    bool after_key_ = false;
};

/**
 * Strict syntax check of one complete JSON document: jsonParse() with
 * the result discarded.
 * @param err if non-null, receives a short description on failure.
 */
bool jsonValid(std::string_view text, std::string *err = nullptr);

/**
 * Parsed JSON document (a small DOM), for schema checks — e.g.
 * json_check verifying that a metrics snapshot's histogram quantiles
 * are internally consistent. Numbers are held as double (every value the
 * observability layer emits fits), object members keep insertion
 * order, and lookup is linear — fine at telemetry sizes.
 */
struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;                            ///< kArray
    std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

    bool isObject() const { return kind == Kind::kObject; }
    bool isArray() const { return kind == Kind::kArray; }
    bool isNumber() const { return kind == Kind::kNumber; }

    /** Member lookup; null when absent or not an object. */
    const JsonValue *find(std::string_view key) const;
    /** The member's number, or @p fallback when absent/non-numeric. */
    double numberOr(std::string_view key, double fallback) const;
};

/**
 * Parses one complete JSON document into @p out.
 * @param err if non-null, receives a short description on failure.
 */
bool jsonParse(std::string_view text, JsonValue *out,
               std::string *err = nullptr);

} // namespace mithril::obs

#endif // MITHRIL_OBS_JSON_H
