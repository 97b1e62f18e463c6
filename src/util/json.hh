/**
 * @file
 * Minimal streaming JSON writer shared by every machine-readable
 * emitter in the tree (the run report, the perf-smoke BENCH file).
 * One writer means one escaping policy, one number format, and one
 * place to get comma/indent bookkeeping right, instead of each
 * harness hand-rolling `os << "{...}"` with its own quoting bugs.
 * Code that splices JSON text by hand uses the same escaper,
 * json::escape, and re-encodes parsed input with json::encode.
 *
 * Usage mirrors the document structure:
 *
 *   JsonWriter w(os);
 *   w.beginObject();
 *   w.field("schema", "slacksim.run_report.v5");
 *   w.beginArray("runs");
 *   w.beginObject(); w.field("name", name); w.endObject();
 *   w.endArray();
 *   w.endObject();
 *
 * Scalars only — the caller drives the structure. Doubles are written
 * with enough digits to round-trip meaningfully and non-finite values
 * degrade to 0 (JSON has no NaN/Inf).
 */

#ifndef SLACKSIM_UTIL_JSON_HH
#define SLACKSIM_UTIL_JSON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/json_parse.hh"

namespace slacksim {

namespace json {

/**
 * @return @p s escaped for the inside of a JSON string literal: quote,
 * backslash, newline, tab and carriage return by name, every other
 * control byte as \u00XX, all else (UTF-8 included) verbatim.
 */
inline std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (const auto u = static_cast<unsigned char>(c); u < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Write @p v as compact JSON (object keys in the Value's sorted
 * order). Integral numbers print exactly, since wall-epoch
 * microsecond timestamps overflow %.12g; the rest print as %.17g,
 * which round-trips every double. JSON has no NaN or Inf, so those
 * print as null.
 */
inline void
encode(std::ostream &os, const Value &v)
{
    switch (v.type) {
      case Value::Type::Null:
        os << "null";
        break;
      case Value::Type::Bool:
        os << (v.boolean ? "true" : "false");
        break;
      case Value::Type::Number: {
        const double n = v.number;
        if (!std::isfinite(n)) {
            os << "null";
        } else if (n >= -0x1p63 && n < 0x1p63 &&
                   n == static_cast<double>(
                            static_cast<long long>(n))) {
            os << static_cast<long long>(n);
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", n);
            os << buf;
        }
        break;
      }
      case Value::Type::String:
        os << '"' << escape(v.str) << '"';
        break;
      case Value::Type::Object: {
        os << '{';
        bool first = true;
        for (const auto &[key, val] : v.object) {
            if (!first)
                os << ',';
            first = false;
            os << '"' << escape(key) << "\":";
            encode(os, val);
        }
        os << '}';
        break;
      }
      case Value::Type::Array:
        os << '[';
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            if (i)
                os << ',';
            encode(os, v.array[i]);
        }
        os << ']';
        break;
    }
}

} // namespace json

/** Streaming JSON emitter with indentation and escaping. */
class JsonWriter
{
  public:
    /** @param indent_step spaces per nesting level (0 = compact). */
    explicit JsonWriter(std::ostream &os, int indent_step = 2)
        : os_(os),
          step_(indent_step)
    {
    }

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void
    beginObject()
    {
        element();
        os_ << '{';
        push();
    }

    void
    beginObject(const char *key)
    {
        fieldKey(key);
        os_ << '{';
        push();
    }

    void
    endObject()
    {
        pop();
        os_ << '}';
    }

    void
    beginArray()
    {
        element();
        os_ << '[';
        push();
    }

    void
    beginArray(const char *key)
    {
        fieldKey(key);
        os_ << '[';
        push();
    }

    void
    endArray()
    {
        pop();
        os_ << ']';
    }

    void
    field(const char *key, const std::string &v)
    {
        fieldKey(key);
        writeString(v);
    }

    void
    field(const char *key, const char *v)
    {
        fieldKey(key);
        writeString(v ? v : "");
    }

    void
    field(const char *key, bool v)
    {
        fieldKey(key);
        os_ << (v ? "true" : "false");
    }

    void
    field(const char *key, double v)
    {
        fieldKey(key);
        writeDouble(v);
    }

    void
    field(const char *key, std::uint64_t v)
    {
        fieldKey(key);
        os_ << v;
    }

    void
    field(const char *key, std::int64_t v)
    {
        fieldKey(key);
        os_ << v;
    }

    void
    field(const char *key, std::uint32_t v)
    {
        field(key, static_cast<std::uint64_t>(v));
    }

    void
    field(const char *key, std::int32_t v)
    {
        field(key, static_cast<std::int64_t>(v));
    }

    void
    fieldNull(const char *key)
    {
        fieldKey(key);
        os_ << "null";
    }

    void
    value(const std::string &v)
    {
        element();
        writeString(v);
    }

    void
    value(std::uint64_t v)
    {
        element();
        os_ << v;
    }

    void
    value(std::int64_t v)
    {
        element();
        os_ << v;
    }

    void
    value(double v)
    {
        element();
        writeDouble(v);
    }

    /** Terminate the document with a trailing newline. */
    void
    finish()
    {
        os_ << '\n';
    }

  private:
    /** Comma/newline/indent before the next element at this depth. */
    void
    element()
    {
        if (!first_.empty()) {
            if (!first_.back())
                os_ << ',';
            first_.back() = false;
            newline();
        }
    }

    void
    fieldKey(const char *key)
    {
        element();
        writeString(key);
        os_ << ':';
        if (step_ > 0)
            os_ << ' ';
    }

    void
    push()
    {
        first_.push_back(true);
    }

    void
    pop()
    {
        const bool had_elements = !first_.empty() && !first_.back();
        first_.pop_back();
        if (had_elements)
            newline();
    }

    void
    newline()
    {
        if (step_ <= 0)
            return;
        os_ << '\n';
        for (std::size_t i = 0; i < first_.size() * step_; ++i)
            os_ << ' ';
    }

    void
    writeString(std::string_view s)
    {
        os_ << '"' << json::escape(s) << '"';
    }

    void
    writeDouble(double v)
    {
        if (!std::isfinite(v)) // JSON has no NaN/Inf
            v = 0.0;
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        os_ << buf;
    }

    std::ostream &os_;
    int step_;
    std::vector<bool> first_; //!< per-depth "no element written yet"
};

} // namespace slacksim

#endif // SLACKSIM_UTIL_JSON_HH
