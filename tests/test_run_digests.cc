/**
 * @file
 * Run-record digests over a small configuration matrix.
 *
 * Each run's record, without its build-provenance "meta" block, is
 * hashed with contentHash() and compared with
 * tests/golden/run_digests.json.  The matrix spans every snoop
 * policy, relocation mode and RO policy, 8-32 KB L2s with and
 * without an L1, the ideal crossbar, 2x2 to 8x8 meshes, warmup,
 * short migration periods, a config that escalates to persistent
 * requests, and the page and time-series observers, in a couple of
 * seconds.  A change to how fast the simulator runs must leave every
 * digest as it is; only a change to what it models may move one.
 * radix and specjbb are here because they are the apps where a
 * snoop's target installs the line between the snoop's send and its
 * arrival.
 *
 * On a mismatch the actual digests are written to the test's temp
 * dir as run_digests.json.actual, in the golden's format.
 *
 * Beside the digests, tests/golden/run_work.json pins how much work
 * each run does with perf on: events scheduled, mesh legs and hops,
 * snoop lookups, transactions, accesses and each protocol table's
 * probes.  A change that makes the work cheaper leaves these counts
 * alone; one that changes how much work a run does moves them by an
 * exact amount.
 */

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "service/sweep_wire.hh"
#include "sim/json.hh"
#include "system/run_result.hh"
#include "workload/app_profile.hh"

namespace vsnoop::test
{
namespace
{

namespace fs = std::filesystem;

struct Point
{
    const char *name;
    const char *app;
    void (*tweak)(SystemConfig &);
};

/** 16 cores, 16 KB L2s, no warmup: each point changes what it tests. */
SystemConfig
baseConfig()
{
    SystemConfig c;
    c.policy = PolicyKind::TokenB;
    c.l2.sizeBytes = 16 * 1024;
    c.accessesPerVcpu = 500;
    c.warmupAccessesPerVcpu = 0;
    return c;
}

void
vsnoop(SystemConfig &c, RelocationMode mode)
{
    c.policy = PolicyKind::VirtualSnoop;
    c.vsnoop.relocation = mode;
}

void
mesh8x8(SystemConfig &c)
{
    c.mesh.width = 8;
    c.mesh.height = 8;
    c.numVms = 16;
}

const std::vector<Point> &
matrix()
{
    static const std::vector<Point> points = {
        {"tokenb_ferret", "ferret", [](SystemConfig &) {}},
        {"tokenb_canneal_warmup", "canneal",
         [](SystemConfig &c) {
             c.l2.sizeBytes = 32 * 1024;
             c.warmupAccessesPerVcpu = 200;
         }},
        {"tokenb_radix", "radix",
         [](SystemConfig &c) { c.accessesPerVcpu = 2000; }},
        {"tokenb_specjbb", "specjbb",
         [](SystemConfig &c) { c.accessesPerVcpu = 2000; }},
        {"tokenb_radix_8kb", "radix",
         [](SystemConfig &c) {
             c.l2.sizeBytes = 8 * 1024;
             c.accessesPerVcpu = 1500;
         }},
        {"vsnoop_radix", "radix",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::Counter);
             c.accessesPerVcpu = 1500;
         }},
        {"vsnoop_specjbb_warmup", "specjbb",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::Counter);
             c.accessesPerVcpu = 1500;
             c.warmupAccessesPerVcpu = 300;
         }},
        {"region_lu", "lu",
         [](SystemConfig &c) { c.policy = PolicyKind::IdealRegionFilter; }},
        {"region_radix", "radix",
         [](SystemConfig &c) {
             c.policy = PolicyKind::IdealRegionFilter;
             c.accessesPerVcpu = 1000;
         }},
        {"base_migrating", "ferret",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::Base);
             c.migrationPeriod = 5000;
         }},
        {"counter_migrating", "ferret",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::Counter);
             c.migrationPeriod = 5000;
         }},
        {"threshold_migrating", "canneal",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::CounterThreshold);
             c.migrationPeriod = 5000;
         }},
        {"flush_migrating", "canneal",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::CounterFlush);
             c.migrationPeriod = 5000;
         }},
        {"ro_broadcast", "fft",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::Counter);
             c.vsnoop.roPolicy = RoPolicy::Broadcast;
         }},
        {"ro_memory_direct", "fft",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::Counter);
             c.vsnoop.roPolicy = RoPolicy::MemoryDirect;
         }},
        {"ro_intra_vm", "blackscholes",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::CounterThreshold);
             c.vsnoop.roPolicy = RoPolicy::IntraVm;
             c.migrationPeriod = 10000;
         }},
        {"ro_friend_vm", "fft",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::Counter);
             c.vsnoop.roPolicy = RoPolicy::FriendVm;
         }},
        {"l2_8kb_l1", "canneal",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::Counter);
             c.l2.sizeBytes = 8 * 1024;
             c.l2.l1SizeBytes = 2 * 1024;
         }},
        {"l2_32kb_l1", "ocean",
         [](SystemConfig &c) {
             c.l2.sizeBytes = 32 * 1024;
             c.l2.l1SizeBytes = 4 * 1024;
         }},
        {"ideal_crossbar", "dedup",
         [](SystemConfig &c) { c.idealNetwork = true; }},
        {"mesh_2x2", "cholesky",
         [](SystemConfig &c) {
             c.mesh.width = 2;
             c.mesh.height = 2;
             c.numVms = 2;
             c.vcpusPerVm = 2;
         }},
        {"mesh_8x8_tokenb", "ferret",
         [](SystemConfig &c) {
             mesh8x8(c);
             c.accessesPerVcpu = 150;
         }},
        {"mesh_8x8_vsnoop", "specjbb",
         [](SystemConfig &c) {
             mesh8x8(c);
             vsnoop(c, RelocationMode::CounterThreshold);
             c.migrationPeriod = 5000;
             c.accessesPerVcpu = 300;
         }},
        {"persistent", "radix",
         [](SystemConfig &c) {
             c.protocol.retryWindow = 40;
             c.protocol.maxTransientAttempts = 1;
         }},
        {"observers", "specjbb",
         [](SystemConfig &c) {
             vsnoop(c, RelocationMode::Counter);
             c.pages = true;
             c.timeseriesInterval = 5000;
             c.contentScanPeriod = 20000;
         }},
    };
    return points;
}

/**
 * @p record without its "meta":{...} member and one separating comma,
 * as perfbench digests records.  The block is flat and string-valued.
 */
std::string
withoutMeta(const std::string &record)
{
    std::size_t begin = record.find("\"meta\":{");
    if (begin == std::string::npos)
        return record;
    std::size_t end = record.find('}', begin) + 1;
    if (end < record.size() && record[end] == ',')
        ++end;
    else if (begin > 0 && record[begin - 1] == ',')
        --begin;
    return record.substr(0, begin) + record.substr(end);
}

/** Read tests/golden/@p name, or "" when it is missing. */
std::string
readGolden(const std::string &name)
{
    std::ifstream in(std::string(VSNOOP_GOLDEN_DIR) + "/" + name);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Write @p actual beside the test as @p name.actual and fail. */
void
dumpActual(const std::string &name, const std::string &actual)
{
    fs::path dump = fs::path(::testing::TempDir()) / (name + ".actual");
    std::ofstream(dump, std::ios::binary) << actual;
    ADD_FAILURE() << "actual " << name << " in " << dump.string();
}

/** The work counts of one perf-on run, in run_work.json order. */
std::vector<std::pair<std::string, std::uint64_t>>
workCounts(const SystemResults &r)
{
    std::vector<std::pair<std::string, std::uint64_t>> counts = {
        {"events_scheduled", r.perf.eventQueue.schedules},
        {"mesh_legs", r.perf.mesh.legLength.count()},
        {"mesh_hops", r.perf.mesh.legLength.sum()},
        {"snoop_lookups", r.snoopLookups},
        {"transactions", r.transactions},
        {"accesses", r.totalAccesses},
    };
    for (const auto &[key, member] : kPerfTables) {
        const LatencyHistogram &probes = (r.perf.*member).probeLength;
        counts.emplace_back(std::string(key) + "_probes", probes.count());
        counts.emplace_back(std::string(key) + "_probe_sum", probes.sum());
    }
    return counts;
}

} // namespace

TEST(RunDigests, MatrixMatchesGolden)
{
    std::string text = readGolden("run_digests.json");
    std::optional<JsonValue> golden = parseJson(text);
    ASSERT_TRUE(golden && golden->isObject())
        << "tests/golden/run_digests.json is missing or malformed";

    std::string actual = "{\n";
    for (const Point &point : matrix()) {
        SystemConfig config = baseConfig();
        point.tweak(config);
        std::string record =
            collectRun(config, findApp(point.app)).toJson();
        std::string digest = contentHash(withoutMeta(record));
        const JsonValue *want = golden->find(point.name);
        if (want == nullptr || !want->isString())
            ADD_FAILURE() << point.name << " has no golden digest";
        else
            EXPECT_EQ(digest, want->string()) << point.name;
        actual += std::string(actual.size() > 2 ? ",\n" : "") + "  \"" +
                  point.name + "\": \"" + digest + "\"";
    }
    actual += "\n}\n";
    EXPECT_EQ(golden->members().size(), matrix().size());
    if (actual != text)
        dumpActual("run_digests.json", actual);
}

TEST(RunDigests, WorkMatchesGolden)
{
    std::string text = readGolden("run_work.json");
    // A missing golden still writes the actual file, so a new one can
    // be generated from the failure.
    JsonValue golden = parseJson(text).value_or(JsonValue{});
    EXPECT_TRUE(golden.isObject())
        << "tests/golden/run_work.json is missing or malformed";

    std::string actual = "{\n";
    for (const Point &point : matrix()) {
        SystemConfig config = baseConfig();
        point.tweak(config);
        config.perf = true;
        SystemResults results = collectRun(config, findApp(point.app)).results;
        const JsonValue *want = golden.find(point.name);
        EXPECT_TRUE(want != nullptr && want->isObject())
            << point.name << " has no golden work counts";
        std::string line;
        for (const auto &[name, value] : workCounts(results)) {
            const JsonValue *cell = want ? want->find(name) : nullptr;
            EXPECT_EQ(cell ? cell->uinteger() : std::nullopt,
                      std::optional<std::uint64_t>(value))
                << point.name << " " << name;
            line += std::string(line.empty() ? "" : ", ") + "\"" + name +
                    "\": " + std::to_string(value);
        }
        actual += std::string(actual.size() > 2 ? ",\n" : "") + "  \"" +
                  point.name + "\": {" + line + "}";
    }
    actual += "\n}\n";
    if (golden.isObject()) {
        EXPECT_EQ(golden.members().size(), matrix().size());
    }
    if (actual != text)
        dumpActual("run_work.json", actual);
}

} // namespace vsnoop::test
