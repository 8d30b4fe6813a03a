#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mithril::obs {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

void
JsonWriter::separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!pending_.empty()) {
        if (pending_.back() == '1') {
            *out_ += ',';
        } else {
            pending_.back() = '1';
        }
    }
}

void
JsonWriter::beginObject()
{
    separate();
    *out_ += '{';
    pending_ += '0';
}

void
JsonWriter::endObject()
{
    *out_ += '}';
    pending_.pop_back();
}

void
JsonWriter::beginArray()
{
    separate();
    *out_ += '[';
    pending_ += '0';
}

void
JsonWriter::endArray()
{
    *out_ += ']';
    pending_.pop_back();
}

void
JsonWriter::key(std::string_view k)
{
    separate();
    *out_ += '"';
    *out_ += jsonEscape(k);
    *out_ += "\":";
    after_key_ = true;
}

void
JsonWriter::value(std::string_view v)
{
    separate();
    *out_ += '"';
    *out_ += jsonEscape(v);
    *out_ += '"';
}

void
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        *out_ += "null";  // JSON has no Inf/NaN
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    *out_ += buf;
}

void
JsonWriter::value(uint64_t v)
{
    separate();
    *out_ += std::to_string(v);
}

void
JsonWriter::value(int64_t v)
{
    separate();
    *out_ += std::to_string(v);
}

void
JsonWriter::value(bool v)
{
    separate();
    *out_ += v ? "true" : "false";
}

namespace {

/** Recursive-descent parser building a JsonValue DOM; the one reader
 *  of the grammar (jsonValid() parses and discards the result). */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    bool
    run(JsonValue *out, std::string *err)
    {
        bool ok = value(out) && (skipWs(), pos_ == text_.size());
        if (!ok && err != nullptr) {
            *err = error_.empty()
                       ? "trailing data at offset " + std::to_string(pos_)
                       : error_;
        }
        return ok;
    }

  private:
    bool
    fail(const char *what)
    {
        if (error_.empty()) {
            error_ = std::string(what) + " at offset " +
                     std::to_string(pos_);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word) {
            return fail("bad literal");
        }
        pos_ += word.size();
        return true;
    }

    bool
    string(std::string *out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"') {
            return fail("expected string");
        }
        ++pos_;
        out->clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                return fail("control char in string");
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) {
                    break;
                }
                char e = text_[pos_];
                switch (e) {
                case '"': *out += '"'; break;
                case '\\': *out += '\\'; break;
                case '/': *out += '/'; break;
                case 'b': *out += '\b'; break;
                case 'f': *out += '\f'; break;
                case 'n': *out += '\n'; break;
                case 'r': *out += '\r'; break;
                case 't': *out += '\t'; break;
                case 'u': {
                    unsigned code = 0;
                    for (int i = 1; i <= 4; ++i) {
                        if (pos_ + i >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_ + i]))) {
                            return fail("bad \\u escape");
                        }
                        char h = text_[pos_ + i];
                        code = code * 16 +
                               static_cast<unsigned>(
                                   std::isdigit(
                                       static_cast<unsigned char>(h))
                                       ? h - '0'
                                       : (std::tolower(h) - 'a') + 10);
                    }
                    pos_ += 4;
                    // Telemetry keys/values are ASCII; anything
                    // beyond is preserved byte-wise as UTF-8 would
                    // need surrogate handling this layer never emits.
                    if (code < 0x80) {
                        *out += static_cast<char>(code);
                    } else {
                        *out += '?';
                    }
                    break;
                }
                default: return fail("bad escape");
                }
                ++pos_;
                continue;
            }
            *out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    /** Consumes a run of decimal digits; false when there is none. */
    bool
    digits()
    {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    number(JsonValue *out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        if (!digits()) {
            return fail("bad number");
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits()) {
                return fail("bad fraction");
            }
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-')) {
                ++pos_;
            }
            if (!digits()) {
                return fail("bad exponent");
            }
        }
        // The grammar above guarantees strtod consumes exactly the
        // token.
        std::string token(text_.substr(start, pos_ - start));
        out->kind = JsonValue::Kind::kNumber;
        out->number = std::strtod(token.c_str(), nullptr);
        return true;
    }

    bool
    value(JsonValue *out)
    {
        skipWs();
        if (pos_ >= text_.size()) {
            return fail("unexpected end");
        }
        switch (text_[pos_]) {
        case '{': return object(out);
        case '[': return array(out);
        case '"':
            out->kind = JsonValue::Kind::kString;
            return string(&out->text);
        case 't':
            out->kind = JsonValue::Kind::kBool;
            out->boolean = true;
            return literal("true");
        case 'f':
            out->kind = JsonValue::Kind::kBool;
            out->boolean = false;
            return literal("false");
        case 'n':
            out->kind = JsonValue::Kind::kNull;
            return literal("null");
        default: return number(out);
        }
    }

    bool
    object(JsonValue *out)
    {
        out->kind = JsonValue::Kind::kObject;
        ++pos_;  // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!string(&key)) {
                return false;
            }
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                return fail("expected ':'");
            }
            ++pos_;
            JsonValue member;
            if (!value(&member)) {
                return false;
            }
            out->members.emplace_back(std::move(key),
                                      std::move(member));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(JsonValue *out)
    {
        out->kind = JsonValue::Kind::kArray;
        ++pos_;  // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue item;
            if (!value(&item)) {
                return false;
            }
            out->items.push_back(std::move(item));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    std::string_view text_;
    size_t pos_ = 0;
    std::string error_;
};

} // namespace

bool
jsonValid(std::string_view text, std::string *err)
{
    JsonValue discarded;
    return jsonParse(text, &discarded, err);
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind != Kind::kObject) {
        return nullptr;
    }
    for (const auto &[k, v] : members) {
        if (k == key) {
            return &v;
        }
    }
    return nullptr;
}

double
JsonValue::numberOr(std::string_view key, double fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr && v->isNumber() ? v->number : fallback;
}

bool
jsonParse(std::string_view text, JsonValue *out, std::string *err)
{
    *out = JsonValue{};
    return Parser(text).run(out, err);
}

} // namespace mithril::obs
