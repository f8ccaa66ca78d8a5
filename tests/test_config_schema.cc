/**
 * @file
 * Knob-table tests (system/config_schema.hh): byte goldens for the
 * cache key, the wire body and the run-record config echo, per-row
 * wire round trips, wire rejections per value type, CLI/wire parity,
 * a check that each CLI's --help lists exactly its table flags, and
 * seeded mutations of wire bodies that the parser must survive.
 *
 * The goldens were captured from the hand-written serializers the
 * table replaced; they pin the behavioural contract (existing
 * ResultStores keep hitting, archived records keep their bytes).
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "service/sweep_wire.hh"
#include "sim/cli.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "sim/version.hh"
#include "system/config_schema.hh"
#include "system/run_result.hh"
#include "system/sweep.hh"

namespace vsnoop::test
{
namespace
{

/** runCacheKey(SystemConfig{}, "ferret"); @VERSION@ and @GIT@
 * stand for the build provenance. */
const char *const kKeyDefault =
    R"({"tool":"vsnoop","version":"@VERSION@","git":"@GIT@",)"
    R"("app":"ferret","policy":"vsnoop","relocation":"counter",)"
    R"("ro_policy":"broadcast","seed":1,"config":{"mesh_width":4,)"
    R"("mesh_height":4,"ideal_network":false,"vms":4,"vcpus_per_vm":4,)"
    R"("l2_bytes":262144,"l1_bytes":0,"accesses_per_vcpu":50000,)"
    R"("warmup_accesses_per_vcpu":0,"migration_period":0,)"
    R"("counter_threshold":10,"region_bytes":1024,"crossbar_latency":8,)"
    R"("link_bytes":16,"router_pipeline":4,"link_latency":1,)"
    R"("l1_latency":2,"l2_latency":10,"mem_latency":80,)"
    R"("retry_window":400,"max_transient_attempts":4,)"
    R"("persistent_window":600,"broadcast_attempt":3,"map_sync_bytes":8,)"
    R"("ro_token_bundle":4,"content_scan":true,"content_scan_period":0,)"
    R"("timeseries_interval":0,"tag_lookup_cycles":3,"perf":false,)"
    R"("perf_sample_interval":10000,"pages":false,"pages_top":64},)"
    R"("extra":{"l2_ways":8,"l1_ways":4,"local_latency":1,)"
    R"("mem_token_latency":6,"control_bytes":8,"data_bytes":72,)"
    R"("hypervisor_pages":64,"per_vm_shared_pages":16,"channel_pages":8,)"
    R"("trace_ticks_per_ms":20000,"invariant_check_period":0,)"
    R"("capture_trace":false,"trace_limit":1048576}})";

/** runCacheKey(everyFieldSet(), "canneal"). */
const char *const kKeyFull =
    R"({"tool":"vsnoop","version":"@VERSION@","git":"@GIT@",)"
    R"("app":"canneal","policy":"tokenb","relocation":"counter-flush",)"
    R"("ro_policy":"friend-vm","seed":42,"config":{"mesh_width":3,)"
    R"("mesh_height":2,"ideal_network":true,"vms":2,"vcpus_per_vm":3,)"
    R"("l2_bytes":65536,"l1_bytes":16384,"accesses_per_vcpu":1234,)"
    R"("warmup_accesses_per_vcpu":321,"migration_period":50000,)"
    R"("counter_threshold":7,"region_bytes":2048,"crossbar_latency":9,)"
    R"("link_bytes":32,"router_pipeline":3,"link_latency":2,)"
    R"("l1_latency":3,"l2_latency":11,"mem_latency":90,)"
    R"("retry_window":401,"max_transient_attempts":5,)"
    R"("persistent_window":601,"broadcast_attempt":2,"map_sync_bytes":12,)"
    R"("ro_token_bundle":3,"content_scan":false,)"
    R"("content_scan_period":7777,"timeseries_interval":5000,)"
    R"("tag_lookup_cycles":4,"perf":true,"perf_sample_interval":2500,)"
    R"("pages":true,"pages_top":16},"extra":{"l2_ways":4,"l1_ways":2,)"
    R"("local_latency":5,"mem_token_latency":7,"control_bytes":9,)"
    R"("data_bytes":73,"hypervisor_pages":65,"per_vm_shared_pages":17,)"
    R"("channel_pages":9,"trace_ticks_per_ms":12345.5,)"
    R"("invariant_check_period":99,"capture_trace":true,)"
    R"("trace_limit":4096,"watch_pages":[18,52]}})";

/** writeSweepRequestJson() of a default matrix over ferret. */
const char *const kWireDefault =
    R"({"apps":["ferret"],"policies":["vsnoop"],)"
    R"("relocations":["counter"],"ro_policies":["broadcast"],"seeds":[1],)"
    R"("config":{"mesh_width":4,"mesh_height":4,"ideal_network":false,)"
    R"("vms":4,"vcpus_per_vm":4,"l2_bytes":262144,"l1_bytes":0,)"
    R"("accesses_per_vcpu":50000,"warmup_accesses_per_vcpu":0,)"
    R"("migration_period":0,"counter_threshold":10,"region_bytes":1024,)"
    R"("crossbar_latency":8,"link_bytes":16,"router_pipeline":4,)"
    R"("link_latency":1,"l1_latency":2,"l2_latency":10,"mem_latency":80,)"
    R"("retry_window":400,"max_transient_attempts":4,)"
    R"("persistent_window":600,"broadcast_attempt":3,"map_sync_bytes":8,)"
    R"("ro_token_bundle":4,"content_scan":true,"content_scan_period":0,)"
    R"("timeseries_interval":0,"tag_lookup_cycles":3,"perf":false,)"
    R"("perf_sample_interval":10000,"pages":false,"pages_top":64}})";

/** writeSweepRequestJson(everyAxisSet(), "golden"). */
const char *const kWireFull =
    R"({"apps":["ferret","canneal"],"policies":["tokenb","vsnoop",)"
    R"("region"],"relocations":["base","counter","counter-threshold",)"
    R"("counter-flush"],"ro_policies":["broadcast","memory-direct",)"
    R"("intra-vm","friend-vm"],"seeds":[3,5],"label":"golden",)"
    R"("config":{"mesh_width":3,"mesh_height":2,"ideal_network":true,)"
    R"("vms":2,"vcpus_per_vm":3,"l2_bytes":65536,"l1_bytes":16384,)"
    R"("accesses_per_vcpu":1234,"warmup_accesses_per_vcpu":321,)"
    R"("migration_period":50000,"counter_threshold":7,)"
    R"("region_bytes":2048,"crossbar_latency":9,"link_bytes":32,)"
    R"("router_pipeline":3,"link_latency":2,"l1_latency":3,)"
    R"("l2_latency":11,"mem_latency":90,"retry_window":401,)"
    R"("max_transient_attempts":5,"persistent_window":601,)"
    R"("broadcast_attempt":2,"map_sync_bytes":12,"ro_token_bundle":3,)"
    R"("content_scan":false,"content_scan_period":7777,)"
    R"("timeseries_interval":5000,"tag_lookup_cycles":4,"perf":true,)"
    R"("perf_sample_interval":2500,"pages":true,"pages_top":16}})";

/** The "app" ... "config" span of a default run record. */
const char *const kEchoDefault =
    R"("app":"ferret","policy":"vsnoop","relocation":"counter",)"
    R"("ro_policy":"broadcast","seed":1,"config":{"mesh_width":4,)"
    R"("mesh_height":4,"ideal_network":false,"vms":4,"vcpus_per_vm":4,)"
    R"("l2_bytes":262144,"l1_bytes":0,"accesses_per_vcpu":50000,)"
    R"("warmup_accesses_per_vcpu":0,"migration_period":0,)"
    R"("counter_threshold":10,"region_bytes":1024,"crossbar_latency":8,)"
    R"("link_bytes":16,"router_pipeline":4,"link_latency":1,)"
    R"("l1_latency":2,"l2_latency":10,"mem_latency":80,)"
    R"("retry_window":400,"max_transient_attempts":4,)"
    R"("persistent_window":600,"broadcast_attempt":3,"map_sync_bytes":8,)"
    R"("ro_token_bundle":4,"content_scan":true,"content_scan_period":0,)"
    R"("timeseries_interval":0,"tag_lookup_cycles":3},)";

/** The same span for everyFieldSet() running canneal. */
const char *const kEchoFull =
    R"("app":"canneal","policy":"tokenb","relocation":"counter-flush",)"
    R"("ro_policy":"friend-vm","seed":42,"config":{"mesh_width":3,)"
    R"("mesh_height":2,"ideal_network":true,"vms":2,"vcpus_per_vm":3,)"
    R"("l2_bytes":65536,"l1_bytes":16384,"accesses_per_vcpu":1234,)"
    R"("warmup_accesses_per_vcpu":321,"migration_period":50000,)"
    R"("counter_threshold":7,"region_bytes":2048,"crossbar_latency":9,)"
    R"("link_bytes":32,"router_pipeline":3,"link_latency":2,)"
    R"("l1_latency":3,"l2_latency":11,"mem_latency":90,)"
    R"("retry_window":401,"max_transient_attempts":5,)"
    R"("persistent_window":601,"broadcast_attempt":2,"map_sync_bytes":12,)"
    R"("ro_token_bundle":3,"content_scan":false,)"
    R"("content_scan_period":7777,"timeseries_interval":5000,)"
    R"("tag_lookup_cycles":4,"perf":true,"perf_sample_interval":2500,)"
    R"("pages":true,"pages_top":16,"watch_pages":[18,52]},)";

/** A golden with its build-provenance placeholders filled in. */
std::string
expand(std::string golden)
{
    auto replace = [&](const std::string &from, const std::string &to) {
        std::size_t pos = golden.find(from);
        if (pos != std::string::npos)
            golden.replace(pos, from.size(), to);
    };
    replace("@VERSION@", toolVersion());
    replace("@GIT@", gitDescribe());
    return golden;
}

/** A valid configuration with every field off its default. */
SystemConfig
everyFieldSet()
{
    SystemConfig c;
    c.numVms = 2;
    c.vcpusPerVm = 3;
    c.mesh.width = 3;
    c.mesh.height = 2;
    c.mesh.linkBytes = 32;
    c.mesh.routerPipeline = 3;
    c.mesh.linkLatency = 2;
    c.mesh.localLatency = 5;
    c.idealNetwork = true;
    c.crossbarLatency = 9;
    c.protocol.l1Latency = 3;
    c.protocol.l2Latency = 11;
    c.protocol.memLatency = 90;
    c.protocol.memTokenLatency = 7;
    c.protocol.retryWindow = 401;
    c.protocol.maxTransientAttempts = 5;
    c.protocol.persistentWindow = 601;
    c.protocol.controlBytes = 9;
    c.protocol.dataBytes = 73;
    c.protocol.tagLookupCycles = 4;
    c.l2.sizeBytes = 64 * 1024;
    c.l2.ways = 4;
    c.l2.l1SizeBytes = 16 * 1024;
    c.l2.l1Ways = 2;
    c.policy = PolicyKind::TokenB;
    c.vsnoop.relocation = RelocationMode::CounterFlush;
    c.vsnoop.roPolicy = RoPolicy::FriendVm;
    c.vsnoop.counterThreshold = 7;
    c.vsnoop.broadcastAttempt = 2;
    c.vsnoop.mapSyncBytes = 12;
    c.vsnoop.roTokenBundle = 3;
    c.regionBytes = 2048;
    c.hypervisor.hypervisorPages = 65;
    c.hypervisor.perVmSharedPages = 17;
    c.hypervisor.channelPages = 9;
    c.migrationPeriod = 50000;
    c.traceTicksPerMs = 12345.5;
    c.accessesPerVcpu = 1234;
    c.warmupAccessesPerVcpu = 321;
    c.contentScan = false;
    c.contentScanPeriod = 7777;
    c.invariantCheckPeriod = 99;
    c.captureTrace = true;
    c.traceLimit = 4096;
    c.timeseriesInterval = 5000;
    c.perf = true;
    c.perfSampleInterval = 2500;
    c.pages = true;
    c.pagesTop = 16;
    c.watchPages = {0x12, 0x34};
    c.seed = 42;
    return c;
}

/** Every axis holding every token, over everyFieldSet(). */
SweepMatrix
everyAxisSet()
{
    SweepMatrix m;
    m.apps = {"ferret", "canneal"};
    m.policies = {PolicyKind::TokenB, PolicyKind::VirtualSnoop,
                  PolicyKind::IdealRegionFilter};
    m.relocations = {RelocationMode::Base, RelocationMode::Counter,
                     RelocationMode::CounterThreshold,
                     RelocationMode::CounterFlush};
    m.roPolicies = {RoPolicy::Broadcast, RoPolicy::MemoryDirect,
                    RoPolicy::IntraVm, RoPolicy::FriendVm};
    m.seeds = {3, 5};
    m.base = everyFieldSet();
    return m;
}

/** The "app" ... "config" span of a record for @p c. */
std::string
recordEcho(const SystemConfig &c, const std::string &app)
{
    RunResult r;
    r.app = app;
    r.config = c;
    std::string json = r.toJson();
    std::size_t start = json.find("\"app\":");
    std::size_t end = json.find("\"results\":");
    return json.substr(start, end - start);
}

/** One knob's value in @p c, as text. */
std::string
fieldText(const Knob &knob, SystemConfig c)
{
    return std::visit(
        [&](auto get) {
            std::ostringstream os;
            const auto &v = get(c);
            if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                         std::vector<std::uint64_t>>) {
                for (std::uint64_t item : v)
                    os << item << ",";
            } else {
                os << v;
            }
            return os.str();
        },
        knob.field);
}

/** Defaults, with the wire rows of @p from copied in. */
SystemConfig
wireRowsOf(const SystemConfig &from)
{
    SystemConfig c;
    for (const Knob &knob : knobs()) {
        if (knob.in & kInWire)
            std::visit(
                [&](auto get) {
                    get(c) = get(const_cast<SystemConfig &>(from));
                },
                knob.field);
    }
    return c;
}

std::optional<SweepRequest>
parseBody(const std::string &body, std::string *error)
{
    std::optional<JsonValue> doc = parseJson(body, error);
    SweepRequest req;
    if (!doc || !parseSweepRequest(*doc, &req, error))
        return std::nullopt;
    return req;
}

/** The parse error for a body whose config is @p config_json. */
std::string
configError(const std::string &config_json)
{
    std::string error;
    EXPECT_FALSE(parseBody("{\"apps\":[\"ferret\"],\"config\":" +
                               config_json + "}",
                           &error))
        << config_json;
    return error;
}

/** Run ConfigFlags over @p argv (argv[0] excluded) as vsnoopsim does. */
SystemConfig
fromFlags(std::vector<std::string> argv)
{
    argv.insert(argv.begin(), "test");
    std::vector<char *> ptrs;
    for (std::string &arg : argv)
        ptrs.push_back(arg.data());
    SystemConfig c;
    ConfigFlags flags(&c);
    cli::Args args("test", static_cast<int>(ptrs.size()), ptrs.data());
    while (args.next())
        EXPECT_TRUE(flags.consume(args)) << args.flag();
    flags.finish();
    return c;
}

TEST(ConfigSchema, CacheKeysMatchTheGoldens)
{
    EXPECT_EQ(runCacheKey(SystemConfig{}, "ferret"),
              expand(kKeyDefault));
    EXPECT_EQ(runCacheKey(everyFieldSet(), "canneal"), expand(kKeyFull));
}

TEST(ConfigSchema, WireBodiesMatchTheGoldens)
{
    SweepMatrix def;
    def.apps = {"ferret"};
    EXPECT_EQ(writeSweepRequestJson(def), kWireDefault);
    EXPECT_EQ(writeSweepRequestJson(everyAxisSet(), "golden"),
              kWireFull);
}

TEST(ConfigSchema, RecordConfigEchoMatchesTheGoldens)
{
    EXPECT_EQ(recordEcho(SystemConfig{}, "ferret"), kEchoDefault);
    EXPECT_EQ(recordEcho(everyFieldSet(), "canneal"), kEchoFull);
}

TEST(ConfigSchema, EveryWireKeyIsUniqueAndPresent)
{
    std::set<std::string> keys;
    for (const Knob &knob : knobs())
        EXPECT_TRUE(keys.insert(knob.key).second) << knob.key;
    std::string body = writeSweepRequestJson(everyAxisSet());
    for (const Knob &knob : knobs()) {
        bool on_wire = body.find(std::string("\"") + knob.key +
                                 "\":") != std::string::npos;
        EXPECT_EQ(on_wire, (knob.in & kInWire) != 0) << knob.key;
    }
}

TEST(ConfigSchema, EveryWireRowRoundTrips)
{
    // Per row: move that one field to another valid value, then
    // write -> parse must give back the same config, hence (the key
    // covers every table row) the same cache key.
    for (const Knob &knob : knobs()) {
        if (!(knob.in & kInWire))
            continue;
        SweepMatrix m = everyAxisSet();
        m.base = wireRowsOf(m.base);
        std::visit(
            [&](auto get) {
                auto &field = get(m.base);
                using T = std::decay_t<decltype(field)>;
                if constexpr (std::is_same_v<T, bool>) {
                    field = !field;
                } else if constexpr (std::is_integral_v<T>) {
                    const T original = field;
                    for (T candidate :
                         {T(original + 1), T(original * 2),
                          T(original / 2), T(1)}) {
                        field = candidate;
                        if (candidate != original &&
                            candidate >= knob.min &&
                            validateConfig(m.base, nullptr))
                            return;
                    }
                    ADD_FAILURE() << "no valid value for " << knob.key;
                }
            },
            knob.field);
        std::string error;
        std::optional<SweepRequest> req =
            parseBody(writeSweepRequestJson(m, "rt"), &error);
        ASSERT_TRUE(req) << knob.key << ": " << error;
        EXPECT_EQ(fieldText(knob, req->matrix.base),
                  fieldText(knob, m.base))
            << knob.key;
        EXPECT_EQ(runCacheKey(req->matrix.base, "ferret"),
                  runCacheKey(m.base, "ferret"))
            << knob.key;
    }
}

TEST(ConfigSchema, WireRejectsUnknownKeysWrongTypesAndSmallValues)
{
    EXPECT_EQ(configError("{\"bogus\":1}"), "unknown config key \"bogus\"");
    // Record-only and key-only rows are not wire keys.
    EXPECT_EQ(configError("{\"watch_pages\":[1]}"),
              "unknown config key \"watch_pages\"");
    EXPECT_EQ(configError("{\"trace_limit\":5}"),
              "unknown config key \"trace_limit\"");

    const std::string wrong = " has the wrong type";
    // u32
    for (const char *bad : {"\"4\"", "-1", "1.5", "4294967296", "true"})
        EXPECT_EQ(configError(std::string("{\"vms\":") + bad + "}"),
                  "config key \"vms\"" + wrong)
            << bad;
    // u64
    for (const char *bad : {"\"4\"", "-1", "0.5", "18014398509481984"})
        EXPECT_EQ(configError(std::string("{\"accesses_per_vcpu\":") +
                              bad + "}"),
                  "config key \"accesses_per_vcpu\"" + wrong)
            << bad;
    // bool
    for (const char *bad : {"1", "\"true\"", "null"})
        EXPECT_EQ(configError(std::string("{\"perf\":") + bad + "}"),
                  "config key \"perf\"" + wrong)
            << bad;
    // Below the row minimum.
    EXPECT_EQ(configError("{\"pages_top\":0}"),
              "config key \"pages_top\"" + wrong);
    // Valid per row, invalid as a whole: validateConfig's message.
    EXPECT_EQ(configError("{\"vms\":5}"),
              "overcommitted: 20 vCPUs on 16 cores");
    EXPECT_EQ(configError("{\"mesh_width\":0}"),
              "mesh_width and mesh_height must be at least 1");
    EXPECT_EQ(configError("{\"mesh_width\":9,\"mesh_height\":8}"),
              "mesh 9x8 has 72 cores; at most 64 are supported");
}

TEST(ConfigSchema, WireCapsTheSimulatedCacheCapacity)
{
    // (l2_bytes + l1_bytes) x cores may reach 256 MiB, not one
    // granule more: every simulated 64-byte line costs 40 host bytes.
    const std::string limit =
        "(l2_bytes + l1_bytes) x 16 cores exceeds the 268435456-byte "
        "(256 MiB) simulated cache limit";
    struct Row
    {
        const char *config;
        bool accepted;
    };
    const Row rows[] = {
        // 16 MiB x 16 cores with the L1s off.
        {R"({"l2_bytes":16777216})", true},
        {R"({"l2_bytes":16777728})", false},
        // The default 256 KiB L2 plus a 15.75 MiB L1.
        {R"({"l1_bytes":16515072})", true},
        {R"({"l1_bytes":16515328})", false},
        // Far past it, up to the largest integer the wire carries.
        {R"({"l2_bytes":4294967296})", false},
        {R"({"l2_bytes":9007199254740480})", false},
        {R"({"l1_bytes":9007199254740736})", false},
    };
    for (const Row &row : rows) {
        std::string error;
        bool ok = parseBody(std::string(R"({"apps":["ferret"],"config":)") +
                                row.config + "}",
                            &error)
                      .has_value();
        EXPECT_EQ(ok, row.accepted) << row.config;
        EXPECT_EQ(error, row.accepted ? "" : limit) << row.config;
    }
    // The cap scales with the core count: 64 cores at 4 MiB each.
    EXPECT_EQ(configError(R"({"mesh_width":8,"mesh_height":8,)"
                          R"("l2_bytes":4194816})"),
              "(l2_bytes + l1_bytes) x 64 cores exceeds the 268435456-byte "
              "(256 MiB) simulated cache limit");
}

TEST(ConfigSchema, WireCapsPagesTop)
{
    // The page monitor reserves 2 x pages_top cells up front, so the
    // heavy-hitter table is capped at 65,536 entries.
    const std::string limit = "pages_top must be at most 65536";
    struct Row
    {
        const char *config;
        bool accepted;
    };
    const Row rows[] = {
        {R"({"pages":true,"pages_top":65536})", true},
        {R"({"pages":true,"pages_top":65537})", false},
        {R"({"pages":true,"pages_top":4294967295})", false},
    };
    for (const Row &row : rows) {
        std::string error;
        bool ok = parseBody(std::string(R"({"apps":["ferret"],"config":)") +
                                row.config + "}",
                            &error)
                      .has_value();
        EXPECT_EQ(ok, row.accepted) << row.config;
        EXPECT_EQ(error, row.accepted ? "" : limit) << row.config;
    }
}

TEST(ConfigSchema, WireRejectsARunCountThatWraps)
{
    // Five axes of 8192 duplicates are 2^65 runs, which wraps a
    // 64-bit product to 0; the body is still under the 1 MB limit.
    auto axis = [](const char *name, const std::string &item) {
        std::string json = std::string("\"") + name + "\":[";
        for (int i = 0; i < 8192; ++i)
            json += (i ? "," : "") + item;
        return json + "]";
    };
    const std::string body = "{" + axis("apps", "\"fft\"") + "," +
                             axis("policies", "\"vsnoop\"") + "," +
                             axis("relocations", "\"base\"") + "," +
                             axis("ro_policies", "\"intra-vm\"") + "," +
                             axis("seeds", "1") + "}";
    ASSERT_LT(body.size(), 1024u * 1024u);
    std::string error;
    EXPECT_FALSE(parseBody(body, &error));
    EXPECT_EQ(error, "matrix expands to " + std::to_string(SIZE_MAX) +
                         " runs; the service caps submissions at 4096");
}

TEST(ConfigSchema, VsnoopsimFlagsYieldTheWireBodysConfig)
{
    // Spell every table flag for everyFieldSet(), as a user would.
    const SystemConfig want = everyFieldSet();
    std::vector<std::string> argv;
    std::span<const Knob> rows = knobs();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Knob &knob = rows[i];
        if (knob.flag == nullptr)
            continue;
        if (knob.metavar == nullptr) {
            if (fieldText(knob, want) == "1")
                argv.push_back(knob.flag);
            continue;
        }
        std::string value =
            std::to_string(std::stoull(fieldText(knob, want)) / knob.scale);
        while (i + 1 < rows.size() && rows[i + 1].flag != nullptr &&
               std::string(rows[i + 1].flag) == knob.flag)
            value += "x" + fieldText(rows[++i], want);
        argv.push_back(std::string(knob.flag) + "=" + value);
    }
    SystemConfig from_flags = fromFlags(argv);

    SweepMatrix matrix;
    matrix.apps = {"ferret"};
    matrix.base = wireRowsOf(want);
    std::string error;
    std::optional<SweepRequest> req =
        parseBody(writeSweepRequestJson(matrix), &error);
    ASSERT_TRUE(req) << error;

    for (const Knob &knob : knobs()) {
        if (knob.flag == nullptr)
            continue;
        EXPECT_EQ(fieldText(knob, from_flags), fieldText(knob, want))
            << knob.flag;
        if (knob.in & kInWire) {
            EXPECT_EQ(fieldText(knob, from_flags),
                      fieldText(knob, req->matrix.base))
                << knob.key;
        }
    }

    // Without --warmup the CLIs warm up for a quarter of the run.
    SystemConfig quarter = fromFlags({"--accesses", "8000"});
    req = parseBody("{\"apps\":[\"ferret\"],\"config\":{"
                    "\"accesses_per_vcpu\":8000,"
                    "\"warmup_accesses_per_vcpu\":2000}}",
                    &error);
    ASSERT_TRUE(req) << error;
    EXPECT_EQ(runCacheKey(quarter, "ferret"),
              runCacheKey(req->matrix.base, "ferret"));
}

/** The "--flag" names a tool's --help lists, in order. */
std::set<std::string>
helpFlags(const char *tool)
{
    std::set<std::string> flags;
    FILE *pipe = popen((std::string(tool) + " --help").c_str(), "r");
    EXPECT_NE(pipe, nullptr) << tool;
    if (pipe == nullptr)
        return flags;
    char line[512];
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
        std::string text = line;
        if (text.rfind("  --", 0) != 0)
            continue;
        flags.insert(text.substr(2, text.find_first_of(" \n", 2) - 2));
    }
    EXPECT_EQ(pclose(pipe), 0) << tool;
    return flags;
}

/** --help lists every table flag plus exactly @p own, nothing else. */
void
expectHelpFlags(const char *tool, std::set<std::string> own)
{
    for (const Knob &knob : knobs())
        if (knob.flag != nullptr)
            own.insert(knob.flag);
    EXPECT_EQ(helpFlags(tool), own) << tool;
}

TEST(ConfigSchema, VsnoopsimHelpListsTheTableFlags)
{
    expectHelpFlags(VSNOOPSIM_BIN,
                    {"--app", "--seed", "--policy", "--relocation",
                     "--ro-policy", "--trace", "--watch-page",
                     "--profile", "--stats-addr", "--energy", "--json",
                     "--help"});
}

TEST(ConfigSchema, VsnoopsweepHelpListsTheTableFlags)
{
    expectHelpFlags(VSNOOPSWEEP_BIN,
                    {"--apps", "--policies", "--relocations",
                     "--ro-policies", "--seeds", "--trace-dir",
                     "--profile", "--stats-addr", "--heartbeat",
                     "--stall-timeout", "--submit", "--jobs", "--out",
                     "--list", "--help"});
}

TEST(EnumTokens, RoundTripAndRejectUnknownTokens)
{
    for (const auto &t : kPolicyKindTokens) {
        PolicyKind parsed{};
        EXPECT_TRUE(parseEnumToken(t.token, &parsed));
        EXPECT_EQ(parsed, t.value);
        EXPECT_STREQ(enumToken(t.value), t.token);
    }
    RoPolicy untouched = RoPolicy::IntraVm;
    EXPECT_FALSE(parseEnumToken("intra_vm", &untouched));
    EXPECT_EQ(untouched, RoPolicy::IntraVm);
    EXPECT_EQ(enumTokenList<RelocationMode>(),
              "base counter counter-threshold counter-flush");
}

/** Numbers a mutation writes over a value or inserts. */
const char *const kFuzzNumbers[] = {
    "0", "-0", "-1", "1.5", "1e308", "1e999", "-1e-999", "0.1e1", "1E+2",
    "255", "4294967295", "4294967296", "9007199254740993",
    "18446744073709551615", "18446744073709551616",
    "123456789012345678901234567890"};

/** Apply one to four seeded byte-level mutations to @p body. */
std::string
mutateBody(std::string body, const std::vector<std::string> &corpus,
           Rng &rng)
{
    auto below = [&](std::size_t n) -> std::size_t {
        return rng.below(static_cast<std::uint32_t>(n));
    };
    for (std::size_t ops = 1 + below(4); ops > 0; --ops) {
        switch (below(4)) {
          case 0: // Flip one bit.
            if (!body.empty())
                body[below(body.size())] ^= static_cast<char>(1 << below(8));
            break;
          case 1: // Truncate.
            body.resize(below(body.size() + 1));
            break;
          case 2: { // Splice a span of a corpus body over a span of this.
            const std::string &donor = corpus[below(corpus.size())];
            std::size_t from = below(donor.size());
            std::size_t at = below(body.size() + 1);
            body.replace(at, below(body.size() - at + 1), donor, from,
                         1 + below(donor.size() - from));
            break;
          }
          default: { // Write a number over the next one, or insert it.
            const char *number =
                kFuzzNumbers[below(std::size(kFuzzNumbers))];
            std::size_t at = below(body.size() + 1);
            std::size_t digit = body.find_first_of("0123456789", at);
            if (digit == std::string::npos) {
                body.insert(at, number);
            } else {
                std::size_t end =
                    body.find_first_not_of("0123456789.eE+-", digit);
                body.replace(digit, end - digit, number);
            }
            break;
          }
        }
    }
    return body;
}

/** "seed S iteration I" of the input in flight, for the abort report. */
char gFuzzInput[64];

extern "C" void
reportFuzzCrash(int sig)
{
    // Only async-signal-safe calls: the text was formatted before
    // the input ran.
    const char prefix[] = "\nwire fuzz aborted on ";
    ssize_t n = ::write(2, prefix, sizeof prefix - 1);
    n = ::write(2, gFuzzInput, std::strlen(gFuzzInput));
    (void)n;
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

TEST(WireFuzz, SeededMutationsNeverCrashTheParser)
{
    // Hostile wire bytes: mutations of valid submissions must be
    // rejected with a message or accepted as a usable matrix, never
    // abort.  Accepted matrices of up to 64 runs are also expanded
    // and keyed, as the service does before it queues a job.
    SweepMatrix def;
    def.apps = {"ferret"};
    const std::vector<std::string> corpus = {
        writeSweepRequestJson(def),
        writeSweepRequestJson(everyAxisSet(), "golden"),
        R"({"a":[1,-2.5e3,[true,false,null,[{"b":"\u00e9\n\"x"}]]],)"
        R"("c":{"d":{},"e":[],"f":0.000001}})",
    };
    constexpr std::uint64_t kSeed = 0x5eed;
    constexpr std::uint64_t kIterations = 20000;
    // A vsnoop_panic aborts; name the input first.  (Sanitizer
    // reports and segfaults keep their own handlers.)
    struct AbortReport
    {
        void (*previous)(int) = std::signal(SIGABRT, reportFuzzCrash);
        ~AbortReport() { std::signal(SIGABRT, previous); }
    } abort_report;
    std::uint64_t parsed = 0;
    std::uint64_t accepted = 0;
    for (std::uint64_t i = 0; i < kIterations; ++i) {
        std::snprintf(gFuzzInput, sizeof gFuzzInput,
                      "seed %llu iteration %llu\n",
                      static_cast<unsigned long long>(kSeed),
                      static_cast<unsigned long long>(i));
        Rng rng(kSeed, i);
        const std::string &seed_body =
            corpus[rng.below(static_cast<std::uint32_t>(corpus.size()))];
        std::string body = mutateBody(seed_body, corpus, rng);
        std::string error;
        std::optional<JsonValue> doc = parseJson(body, &error);
        if (!doc) {
            ASSERT_FALSE(error.empty()) << gFuzzInput << body;
            continue;
        }
        parsed++;
        SweepRequest req;
        if (!parseSweepRequest(*doc, &req, &error)) {
            ASSERT_FALSE(error.empty()) << gFuzzInput << body;
            continue;
        }
        accepted++;
        if (req.matrix.runCount() > 64)
            continue;
        for (const SweepPoint &point : req.matrix.expand())
            ASSERT_FALSE(
                runCacheKey(req.matrix.configFor(point), point.app).empty())
                << gFuzzInput << body;
    }
    // The mutations reach past the JSON grammar into the schema.
    EXPECT_GT(parsed, kIterations / 10);
    EXPECT_GT(accepted, kIterations / 100);
}

} // namespace
} // namespace vsnoop::test
