#include "sim/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace vsnoop
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

void
JsonWriter::beginElement()
{
    if (stack_.empty())
        return;
    if (stack_.back() == Frame::Object) {
        vsnoop_assert(keyPending_,
                      "JSON object member needs a key() first");
        keyPending_ = false;
        return;
    }
    if (counts_.back() > 0)
        out_ += ',';
    counts_.back()++;
}

JsonWriter &
JsonWriter::beginObject()
{
    beginElement();
    out_ += '{';
    stack_.push_back(Frame::Object);
    counts_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    vsnoop_assert(!stack_.empty() && stack_.back() == Frame::Object,
                  "endObject() without a matching beginObject()");
    vsnoop_assert(!keyPending_, "dangling key() at endObject()");
    out_ += '}';
    stack_.pop_back();
    counts_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beginElement();
    out_ += '[';
    stack_.push_back(Frame::Array);
    counts_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    vsnoop_assert(!stack_.empty() && stack_.back() == Frame::Array,
                  "endArray() without a matching beginArray()");
    out_ += ']';
    stack_.pop_back();
    counts_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    vsnoop_assert(!stack_.empty() && stack_.back() == Frame::Object,
                  "key() is only valid inside an object");
    vsnoop_assert(!keyPending_, "two key() calls in a row");
    if (counts_.back() > 0)
        out_ += ',';
    counts_.back()++;
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\":";
    keyPending_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &s)
{
    beginElement();
    out_ += '"';
    out_ += jsonEscape(s);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *s)
{
    return value(std::string(s));
}

JsonWriter &
JsonWriter::value(double d)
{
    if (!std::isfinite(d))
        return null();
    beginElement();
    char buf[32];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), d);
    vsnoop_assert(ec == std::errc(), "double formatting failed");
    out_.append(buf, end);
    return *this;
}

JsonWriter &
JsonWriter::value(bool b)
{
    beginElement();
    out_ += b ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t u)
{
    beginElement();
    char buf[24];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), u);
    vsnoop_assert(ec == std::errc(), "integer formatting failed");
    out_.append(buf, end);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t i)
{
    beginElement();
    char buf[24];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), i);
    vsnoop_assert(ec == std::errc(), "integer formatting failed");
    out_.append(buf, end);
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    beginElement();
    out_ += "null";
    return *this;
}

std::string
JsonWriter::str() const
{
    vsnoop_assert(stack_.empty(),
                  "JsonWriter::str() with ", stack_.size(),
                  " unclosed container(s)");
    return out_;
}

bool
JsonValue::boolean() const
{
    vsnoop_assert(kind_ == Kind::Bool, "JsonValue is not a bool");
    return bool_;
}

double
JsonValue::number() const
{
    vsnoop_assert(kind_ == Kind::Number, "JsonValue is not a number");
    return num_;
}

const std::string &
JsonValue::string() const
{
    vsnoop_assert(kind_ == Kind::String, "JsonValue is not a string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    vsnoop_assert(kind_ == Kind::Array, "JsonValue is not an array");
    return items_;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    vsnoop_assert(kind_ == Kind::Object, "JsonValue is not an object");
    return members_;
}

std::optional<std::uint64_t>
JsonValue::uinteger(std::uint64_t max) const
{
    if (kind_ != Kind::Number || num_ < 0 || num_ != std::floor(num_) ||
        num_ > 9007199254740992.0)
        return std::nullopt;
    auto u = static_cast<std::uint64_t>(num_);
    if (u > max)
        return std::nullopt;
    return u;
}

const JsonValue *
JsonValue::find(const std::string &name) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const Member &m : members_) {
        if (m.first == name)
            return &m.second;
    }
    return nullptr;
}

double
JsonValue::numberAt(const std::string &name, double fallback) const
{
    const JsonValue *v = find(name);
    return v && v->isNumber() ? v->num_ : fallback;
}

std::string
JsonValue::stringAt(const std::string &name,
                    const std::string &fallback) const
{
    const JsonValue *v = find(name);
    return v && v->isString() ? v->str_ : fallback;
}

/**
 * Recursive-descent parser over one in-memory document.  Errors
 * abort the parse by setting failed_; every production checks it so
 * the first error's message and offset survive to the caller.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    std::optional<JsonValue>
    run(std::string *error)
    {
        JsonValue root = parseValue(0);
        skipSpace();
        if (!failed_ && pos_ != text_.size())
            fail("trailing characters after document");
        if (failed_) {
            if (error)
                *error = error_ + " at byte " + std::to_string(errorPos_);
            return std::nullopt;
        }
        return root;
    }

  private:
    static constexpr int kMaxDepth = 64;

    void
    fail(const std::string &why)
    {
        if (!failed_) {
            failed_ = true;
            error_ = why;
            errorPos_ = pos_;
        }
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            pos_++;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            pos_++;
            return true;
        }
        return false;
    }

    bool
    consumeWord(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    JsonValue
    parseValue(int depth)
    {
        JsonValue v;
        skipSpace();
        if (failed_)
            return v;
        if (depth > kMaxDepth) {
            fail("nesting too deep");
            return v;
        }
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return v;
        }
        char c = text_[pos_];
        if (c == '{')
            return parseObject(depth);
        if (c == '[')
            return parseArray(depth);
        if (c == '"') {
            v.kind_ = JsonValue::Kind::String;
            v.str_ = parseString();
            return v;
        }
        if (consumeWord("null"))
            return v;
        if (consumeWord("true")) {
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = true;
            return v;
        }
        if (consumeWord("false")) {
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = false;
            return v;
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            v.kind_ = JsonValue::Kind::Number;
            v.num_ = parseNumber();
            return v;
        }
        fail(std::string("unexpected character '") + c + "'");
        return v;
    }

    JsonValue
    parseObject(int depth)
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::Object;
        consume('{');
        skipSpace();
        if (consume('}'))
            return v;
        while (!failed_) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected member name");
                break;
            }
            std::string name = parseString();
            skipSpace();
            if (!consume(':')) {
                fail("expected ':' after member name");
                break;
            }
            v.members_.emplace_back(std::move(name), parseValue(depth + 1));
            skipSpace();
            if (consume(','))
                continue;
            if (!consume('}'))
                fail("expected ',' or '}' in object");
            break;
        }
        return v;
    }

    JsonValue
    parseArray(int depth)
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::Array;
        consume('[');
        skipSpace();
        if (consume(']'))
            return v;
        while (!failed_) {
            v.items_.push_back(parseValue(depth + 1));
            skipSpace();
            if (consume(','))
                continue;
            if (!consume(']'))
                fail("expected ',' or ']' in array");
            break;
        }
        return v;
    }

    std::string
    parseString()
    {
        std::string out;
        consume('"');
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    if (pos_ >= text_.size()) {
                        fail("truncated \\u escape");
                        return out;
                    }
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else {
                        fail("bad hex digit in \\u escape");
                        return out;
                    }
                }
                // UTF-8 encode the code point; surrogate pairs are
                // not combined (the writer only escapes controls,
                // so none appear in our own output).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("bad escape character");
                return out;
            }
        }
        fail("unterminated string");
        return out;
    }

    double
    parseNumber()
    {
        const char *begin = text_.data() + pos_;
        const char *end = text_.data() + text_.size();
        double d = 0.0;
        auto [rest, ec] = std::from_chars(begin, end, d);
        if (ec != std::errc() || rest == begin) {
            fail("malformed number");
            return 0.0;
        }
        pos_ += static_cast<std::size_t>(rest - begin);
        return d;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
    std::size_t errorPos_ = 0;
};

std::optional<JsonValue>
parseJson(std::string_view text, std::string *error)
{
    return JsonParser(text).run(error);
}

} // namespace vsnoop
