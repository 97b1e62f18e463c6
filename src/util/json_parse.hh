/**
 * @file
 * Minimal recursive-descent JSON parser (header-only).
 *
 * Grown out of tests/json_lite.hh when the serve subsystem needed to
 * read JSON off the wire (job specs, client/daemon protocol frames)
 * rather than only validate artifacts in tests. Same design point:
 * a small DOM (Value) plus a strict parser that throws
 * json::ParseError on malformed input. Callers on untrusted input
 * (the daemon) catch ParseError and turn it into a protocol-level
 * rejection; test callers let it fail the test.
 *
 * Supported: objects, arrays, strings (with the escape set our
 * writers emit), numbers (as double — exact for integers < 2^53,
 * which covers every counter the artifacts carry), true/false/null.
 */

#ifndef SLACKSIM_UTIL_JSON_PARSE_HH
#define SLACKSIM_UTIL_JSON_PARSE_HH

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace slacksim {
namespace json {

/** Thrown on any malformed input; what() carries the byte offset. */
class ParseError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * @return true when @p n is an integer in [0, 2^64): exactly the
 * numbers whose cast to std::uint64_t is defined (NaN is not). Check
 * before casting any number a client sent.
 */
inline bool
isUint64(double n)
{
    return n >= 0 && n < 0x1p64 && n == std::trunc(n);
}

/** One parsed JSON value (recursive DOM node). */
struct Value
{
    enum class Type { Null, Bool, Number, String, Object, Array };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::map<std::string, Value> object;
    std::vector<Value> array;

    bool isNull() const { return type == Type::Null; }
    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isBool() const { return type == Type::Bool; }

    bool
    has(const std::string &key) const
    {
        return type == Type::Object && object.count(key) != 0;
    }

    const Value &
    at(const std::string &key) const
    {
        if (type != Type::Object)
            throw ParseError("json: not an object, key=" + key);
        auto it = object.find(key);
        if (it == object.end())
            throw ParseError("json: missing key " + key);
        return it->second;
    }

    const Value &
    item(std::size_t i) const
    {
        if (type != Type::Array || i >= array.size())
            throw ParseError("json: bad array index");
        return array[i];
    }

    double
    asNumber() const
    {
        if (type != Type::Number)
            throw ParseError("json: not a number");
        return number;
    }

    std::uint64_t
    asUint() const
    {
        const double n = asNumber();
        if (!isUint64(n))
            throw ParseError("json: expected an integer in [0, 2^64)");
        return static_cast<std::uint64_t>(n);
    }

    const std::string &
    asString() const
    {
        if (type != Type::String)
            throw ParseError("json: not a string");
        return str;
    }

    bool
    asBool() const
    {
        if (type != Type::Bool)
            throw ParseError("json: not a bool");
        return boolean;
    }
};

class Parser
{
  public:
    explicit Parser(const std::string &text)
        : text_(text)
    {
    }

    Value
    parse()
    {
        const Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw ParseError("json parse error at offset " +
                         std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::string(lit).size();
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Value
    parseValue()
    {
        const char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            Value v;
            v.type = Value::Type::String;
            v.str = parseString();
            return v;
        }
        if (consumeLiteral("true")) {
            Value v;
            v.type = Value::Type::Bool;
            v.boolean = true;
            return v;
        }
        if (consumeLiteral("false")) {
            Value v;
            v.type = Value::Type::Bool;
            v.boolean = false;
            return v;
        }
        if (consumeLiteral("null"))
            return Value{};
        return parseNumber();
    }

    Value
    parseObject()
    {
        Value v;
        v.type = Value::Type::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            const std::string key = parseString();
            expect(':');
            v.object[key] = parseValue();
            const char c = peek();
            ++pos_;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    Value
    parseArray()
    {
        Value v;
        v.type = Value::Type::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(parseValue());
            const char c = peek();
            ++pos_;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("bad escape");
                const char e = text_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        fail("bad \\u escape");
                    const unsigned code = static_cast<unsigned>(
                        std::strtoul(text_.substr(pos_, 4).c_str(),
                                     nullptr, 16));
                    pos_ += 4;
                    // Our writers only emit \u for control chars.
                    out += static_cast<char>(code & 0x7f);
                    break;
                  }
                  default:
                    fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        fail("unterminated string");
    }

    Value
    parseNumber()
    {
        skipWs();
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start)
            fail("expected a value");
        Value v;
        v.type = Value::Type::Number;
        v.number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                               nullptr);
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

inline Value
parse(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace json
} // namespace slacksim

#endif // SLACKSIM_UTIL_JSON_PARSE_HH
