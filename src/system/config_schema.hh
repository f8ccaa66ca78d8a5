/**
 * @file
 * The SystemConfig knob table.
 *
 * Every configuration knob is declared once, as one row of the table
 * in config_schema.cc: its JSON key, where that key appears, the
 * field it sets, its command-line flag and help text, and its
 * minimum.  Everything that used to spell the knobs out by hand is
 * derived from the rows: the "config" block of run records, the
 * "config" object of wire submissions (both directions), the cache
 * key, and the configuration flags of vsnoopsim and vsnoopsweep.
 * Adding a knob is adding a row (DESIGN.md §11).
 *
 * Enum-valued settings get the same treatment: one {token, value}
 * table per enum backs both printing and parsing of its tokens.
 */

#ifndef VSNOOP_SYSTEM_CONFIG_SCHEMA_HH_
#define VSNOOP_SYSTEM_CONFIG_SCHEMA_HH_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sim/cli.hh"
#include "sim/logging.hh"
#include "system/sim_system.hh"

namespace vsnoop
{

class JsonValue;
class JsonWriter;

/** One token of an enum-valued setting. */
template <typename E>
struct EnumToken
{
    const char *token;
    E value;
};

/**
 * @{ The token tables.  The tokens are the run-record values, the
 * wire axis values and the CLI flag values alike.
 */
inline constexpr EnumToken<PolicyKind> kPolicyKindTokens[] = {
    {"tokenb", PolicyKind::TokenB},
    {"vsnoop", PolicyKind::VirtualSnoop},
    {"region", PolicyKind::IdealRegionFilter},
};
inline constexpr EnumToken<RelocationMode> kRelocationModeTokens[] = {
    {"base", RelocationMode::Base},
    {"counter", RelocationMode::Counter},
    {"counter-threshold", RelocationMode::CounterThreshold},
    {"counter-flush", RelocationMode::CounterFlush},
};
inline constexpr EnumToken<RoPolicy> kRoPolicyTokens[] = {
    {"broadcast", RoPolicy::Broadcast},
    {"memory-direct", RoPolicy::MemoryDirect},
    {"intra-vm", RoPolicy::IntraVm},
    {"friend-vm", RoPolicy::FriendVm},
};

constexpr std::span<const EnumToken<PolicyKind>>
enumTokens(PolicyKind)
{
    return kPolicyKindTokens;
}
constexpr std::span<const EnumToken<RelocationMode>>
enumTokens(RelocationMode)
{
    return kRelocationModeTokens;
}
constexpr std::span<const EnumToken<RoPolicy>>
enumTokens(RoPolicy)
{
    return kRoPolicyTokens;
}
/** @} */

/** The token of @p value. */
template <typename E>
const char *
enumToken(E value)
{
    for (const EnumToken<E> &t : enumTokens(E{}))
        if (t.value == value)
            return t.token;
    vsnoop_panic("enum value ", static_cast<int>(value),
                 " has no token");
}

/** Parse @p token; false (output untouched) on an unknown token. */
template <typename E>
bool
parseEnumToken(std::string_view token, E *out)
{
    for (const EnumToken<E> &t : enumTokens(E{})) {
        if (token == t.token) {
            *out = t.value;
            return true;
        }
    }
    return false;
}

/** Every token of E, space-separated (for "known: ..." messages). */
template <typename E>
std::string
enumTokenList()
{
    std::string out;
    for (const EnumToken<E> &t : enumTokens(E{}))
        out += (out.empty() ? "" : " ") + std::string(t.token);
    return out;
}

/** @p value as an E token; an unknown token dies naming @p flag. */
template <typename E>
E
tokenArg(const std::string &flag, const std::string &value)
{
    E out{};
    if (!parseEnumToken(value, &out))
        cli::die("unknown " + flag + " token '" + value +
                 "'; known: " + enumTokenList<E>());
    return out;
}

/** Where a knob's key appears; a row holds a combination. */
enum KnobIn : std::uint8_t
{
    /** The "config" block of run records. */
    kInRecord = 1 << 0,
    /** The "config" object of wire bodies and of cache keys. */
    kInWire = 1 << 1,
    /** The cache key's "extra" block: fields off the wire. */
    kInExtra = 1 << 2,
};

/** Typed accessor of the SystemConfig field a knob sets. */
using KnobField = std::variant<std::uint32_t &(*)(SystemConfig &),
                               std::uint64_t &(*)(SystemConfig &),
                               bool &(*)(SystemConfig &),
                               double &(*)(SystemConfig &),
                               std::vector<std::uint64_t> &(*)(
                                   SystemConfig &)>;

/** One row of the knob table. */
struct Knob
{
    /** Key in records, wire bodies and cache keys. */
    const char *key;
    /** Where the key appears (KnobIn bits). */
    std::uint8_t in;
    KnobField field;
    /**
     * CLI flag of vsnoopsim and vsnoopsweep, or nullptr.  Rows
     * sharing a flag take one 'x'-separated part each (--mesh WxH).
     */
    const char *flag = nullptr;
    /** Value name in --help; nullptr makes a bool flag a switch. */
    const char *metavar = nullptr;
    const char *help = nullptr;
    /** Flag unit to field unit (1024 for --l2-kb). */
    std::uint64_t scale = 1;
    /** Smallest accepted value, from a flag or the wire. */
    std::uint64_t min = 0;
    /**
     * The record shows the key only while this switch is on, so
     * perf-off and pages-off records keep their historical bytes.
     */
    bool SystemConfig::*gate = nullptr;
};

/** The table, in run-record order. */
std::span<const Knob> knobs();

/**
 * Write every knob that appears in @p section (kInRecord, kInWire or
 * kInExtra) as a member of the currently open object.  Record rows
 * honour their gate; an empty list is omitted everywhere.
 */
void writeKnobs(JsonWriter &json, const SystemConfig &config,
                KnobIn section);

/** Outcome of applyWireKnob(). */
enum class WireKnob : std::uint8_t
{
    Applied,
    UnknownKey,
    /** Known key, but a mistyped, out-of-range or too-small value. */
    BadValue,
};

/** Decode one member of a submission's "config" object. */
WireKnob applyWireKnob(const std::string &key, const JsonValue &value,
                       SystemConfig *config);

/**
 * Reject configurations the simulator would abort on (its
 * constructors assert), plus service-level sanity bounds, with a
 * one-line @p error.  The wire and both CLIs share it.
 */
bool validateConfig(const SystemConfig &config, std::string *error);

/**
 * The table's command-line flags, shared by vsnoopsim and
 * vsnoopsweep.
 */
class ConfigFlags
{
  public:
    /** Parse into @p config, starting from the CLIs' default of
     *  20000 accesses per vCPU. */
    explicit ConfigFlags(SystemConfig *config);

    /**
     * If the current flag of @p args is a table flag, consume it
     * and its value and return true.  Bad values die (exit 2).
     */
    bool consume(cli::Args &args);

    /**
     * Default warmup to accesses/4 unless --warmup was given, then
     * validate; an invalid config dies with validateConfig()'s
     * message.
     */
    void finish();

    /** One --help entry per table flag. */
    static void writeUsage(std::ostream &os);

  private:
    SystemConfig *config_;
    bool warmupGiven_ = false;
};

} // namespace vsnoop

#endif // VSNOOP_SYSTEM_CONFIG_SCHEMA_HH_
