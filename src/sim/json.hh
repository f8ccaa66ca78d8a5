/**
 * @file
 * Minimal deterministic JSON writer.
 *
 * The sweep runner and the stats layer emit machine-readable
 * results as JSON; this writer is the single place that defines the
 * encoding so every producer is byte-identical for identical
 * values:
 *
 *  - no insignificant whitespace;
 *  - doubles use shortest-round-trip formatting (std::to_chars), so
 *    equal doubles always print the same bytes;
 *  - non-finite doubles (JSON has no representation) encode as
 *    null;
 *  - object members appear in insertion order — callers are
 *    responsible for iterating sorted containers when they need
 *    name-sorted output.
 *
 * Usage:
 *   JsonWriter json;
 *   json.beginObject().key("runtime").value(t).endObject();
 *   std::string line = json.str();
 *
 * Structural misuse (a value without a key inside an object, str()
 * with open containers) is asserted on.
 */

#ifndef VSNOOP_SIM_JSON_HH_
#define VSNOOP_SIM_JSON_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vsnoop
{

/** Escape a string for embedding in a JSON document (no quotes). */
std::string jsonEscape(const std::string &s);

/**
 * Streaming JSON document builder with automatic comma placement.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit a member name; must be inside an object. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &s);
    JsonWriter &value(const char *s);
    JsonWriter &value(double d);
    JsonWriter &value(bool b);
    JsonWriter &value(std::uint64_t u);
    JsonWriter &value(std::int64_t i);
    JsonWriter &value(std::uint32_t u) {
        return value(static_cast<std::uint64_t>(u));
    }
    JsonWriter &value(int i) { return value(static_cast<std::int64_t>(i)); }
    JsonWriter &null();

    /** The finished document; asserts all containers are closed. */
    std::string str() const;

  private:
    enum class Frame : std::uint8_t { Object, Array };

    /** Prefix a comma if needed and account for the new element. */
    void beginElement();

    std::string out_;
    std::vector<Frame> stack_;
    /** Elements emitted in the innermost container. */
    std::vector<std::size_t> counts_;
    /** A key was just written; the next value completes the member. */
    bool keyPending_ = false;
};

/**
 * A parsed JSON document node (the read-side counterpart of
 * JsonWriter).  Object members keep source order, matching the
 * writer's insertion-order contract, so a write -> parse -> inspect
 * round trip observes members in the order they were emitted.
 *
 * Numbers are stored as double; every integer the simulator emits
 * (counts, ticks) round-trips exactly up to 2^53, far above any
 * value a run produces.
 */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }

    /** Typed accessors; assert on kind mismatch. */
    bool boolean() const;
    double number() const;
    const std::string &string() const;
    const std::vector<JsonValue> &items() const;
    const std::vector<Member> &members() const;

    /**
     * The node as an exact non-negative integer no larger than
     * @p max; nullopt for anything else (a non-number, a fraction, a
     * negative, or a value beyond 2^53, where doubles stop holding
     * integers exactly).
     */
    std::optional<std::uint64_t> uinteger(
        std::uint64_t max = UINT64_MAX) const;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &name) const;
    /** Member's number, or fallback when absent / not a number. */
    double numberAt(const std::string &name, double fallback = 0.0) const;
    /** Member's string, or fallback when absent / not a string. */
    std::string stringAt(const std::string &name,
                         const std::string &fallback = "") const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

/**
 * Parse one complete JSON document (leading / trailing whitespace
 * allowed, trailing garbage rejected).  Returns nullopt on
 * malformed input and, when @p error is non-null, stores a one-line
 * description with the byte offset.
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string *error = nullptr);

} // namespace vsnoop

#endif // VSNOOP_SIM_JSON_HH_
