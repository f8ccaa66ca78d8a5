#include "service/sweep_wire.hh"

#include <cstdio>
#include <type_traits>

#include "sim/json.hh"
#include "sim/version.hh"
#include "system/config_schema.hh"
#include "system/run_result.hh"
#include "virt/sched_sim.hh"
#include "workload/app_profile.hh"

namespace vsnoop
{

std::string
writeSweepRequestJson(const SweepMatrix &matrix, const std::string &label)
{
    JsonWriter json;
    json.beginObject();
    json.key("apps").beginArray();
    for (const std::string &app : matrix.apps)
        json.value(app);
    json.endArray();
    auto tokens = [&](const char *name, const auto &axis) {
        json.key(name).beginArray();
        for (auto value : axis)
            json.value(enumToken(value));
        json.endArray();
    };
    tokens("policies", matrix.policies);
    tokens("relocations", matrix.relocations);
    tokens("ro_policies", matrix.roPolicies);
    json.key("seeds").beginArray();
    for (std::uint64_t seed : matrix.seeds)
        json.value(seed);
    json.endArray();
    if (!label.empty())
        json.key("label").value(label);
    json.key("config").beginObject();
    writeKnobs(json, matrix.base, kInWire);
    json.endObject();
    json.endObject();
    return json.str();
}

bool
parseSweepRequest(const JsonValue &root, SweepRequest *out,
                  std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (!root.isObject())
        return fail("submission must be a JSON object");

    SweepRequest req;
    const JsonValue *apps = root.find("apps");
    if (apps == nullptr || !apps->isArray() || apps->items().empty())
        return fail("\"apps\" must be a non-empty array of app names");
    req.matrix.apps.clear();
    for (const JsonValue &item : apps->items()) {
        if (!item.isString())
            return fail("\"apps\" entries must be strings");
        if (tryFindApp(item.string()) == nullptr)
            return fail("unknown app '" + item.string() + "'");
        req.matrix.apps.push_back(item.string());
    }

    auto parseAxis = [&](const char *name, auto *axis) {
        const JsonValue *node = root.find(name);
        if (node == nullptr)
            return true; // keep the SweepMatrix default
        if (!node->isArray() || node->items().empty()) {
            return fail(std::string("\"") + name +
                        "\" must be a non-empty array");
        }
        axis->clear();
        for (const JsonValue &item : node->items()) {
            if (!item.isString())
                return fail(std::string("\"") + name +
                            "\" entries must be strings");
            typename std::remove_reference_t<decltype(*axis)>::
                value_type value{};
            if (!parseEnumToken(item.string(), &value))
                return fail("unknown " + std::string(name) +
                            " token '" + item.string() + "'");
            axis->push_back(value);
        }
        return true;
    };
    if (!parseAxis("policies", &req.matrix.policies) ||
        !parseAxis("relocations", &req.matrix.relocations) ||
        !parseAxis("ro_policies", &req.matrix.roPolicies))
        return false;

    const JsonValue *seeds = root.find("seeds");
    if (seeds != nullptr) {
        if (!seeds->isArray() || seeds->items().empty())
            return fail("\"seeds\" must be a non-empty array of "
                        "integers");
        req.matrix.seeds.clear();
        for (const JsonValue &item : seeds->items()) {
            std::optional<std::uint64_t> seed = item.uinteger();
            if (!seed)
                return fail("\"seeds\" entries must be non-negative "
                            "integers");
            req.matrix.seeds.push_back(*seed);
        }
    }

    const JsonValue *label = root.find("label");
    if (label != nullptr) {
        if (!label->isString())
            return fail("\"label\" must be a string");
        req.label = label->string();
    }

    const JsonValue *config = root.find("config");
    if (config != nullptr) {
        if (!config->isObject())
            return fail("\"config\" must be an object");
        for (const auto &[key, value] : config->members()) {
            switch (applyWireKnob(key, value, &req.matrix.base)) {
              case WireKnob::Applied:
                break;
              case WireKnob::UnknownKey:
                return fail("unknown config key \"" + key + "\"");
              case WireKnob::BadValue:
                return fail("config key \"" + key +
                            "\" has the wrong type");
            }
        }
    }

    if (root.find("trace_dir") != nullptr)
        return fail("\"trace_dir\" is not accepted over the wire");

    if (!validateConfig(req.matrix.base, error))
        return false;

    // Bound the expansion: a runaway cross-product should be a 400,
    // not a queue that takes a week to drain.
    std::size_t runs = req.matrix.runCount();
    if (runs > 4096)
        return fail("matrix expands to " + std::to_string(runs) +
                    " runs; the service caps submissions at 4096");

    *out = std::move(req);
    return true;
}

std::string
runCacheKey(const SystemConfig &config, const std::string &app)
{
    JsonWriter json;
    json.beginObject();
    json.key("tool").value("vsnoop");
    json.key("version").value(toolVersion());
    json.key("git").value(gitDescribe());
    writeRunPoint(json, app, config);
    json.key("config").beginObject();
    writeKnobs(json, config, kInWire);
    json.endObject();
    // Everything run bytes can depend on beyond the wire config:
    // fields only reachable through the C++ API.  Keying them too
    // means a direct-API caller with a customized base can never be
    // served another configuration's record.
    json.key("extra").beginObject();
    writeKnobs(json, config, kInExtra);
    // A placement trace changes run behavior; hash its contents so
    // two different traces never alias one key.
    if (config.placementTrace != nullptr) {
        const auto &events = *config.placementTrace;
        static_assert(
            std::is_trivially_copyable_v<PlacementEvent>,
            "placement events are hashed as raw bytes");
        std::string_view bytes(
            reinterpret_cast<const char *>(events.data()),
            events.size() * sizeof(PlacementEvent));
        json.key("placement_trace").value(contentHash(bytes));
    }
    json.endObject();
    json.endObject();
    return json.str();
}

std::string
contentHash(std::string_view text)
{
    auto fnv1a = [](std::string_view s, std::uint64_t hash) {
        for (unsigned char c : s) {
            hash ^= c;
            hash *= 1099511628211ull;
        }
        return hash;
    };
    std::uint64_t lo = fnv1a(text, 14695981039346656037ull);
    std::uint64_t hi = fnv1a(text, 0x9e3779b97f4a7c15ull);
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

} // namespace vsnoop
