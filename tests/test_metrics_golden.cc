/**
 * @file
 * Exposition goldens: byte-exact `results.perf` JSON, PerfMon::merge
 * and renderPrometheus() output for the perf/pages aggregates, a
 * served registry and a vsnoopsim registry.  The expected bytes in
 * tests/golden/ were captured from the per-owner staging exporters
 * that registration-time value sources replaced, so they pin that
 * the sources reproduce them exactly.  On a mismatch the actual
 * bytes are written to the test's temp dir as <name>.actual.
 *
 * Only wall-clock and build-provenance values are masked (uptime,
 * build-info labels, sweep rate/ETA/elapsed/stalled, the HTTP,
 * queue-wait and execute histograms); the store byte count depends
 * on the build's git describe inside each record, so it is checked
 * against the object files on disk and then masked too.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/job_api.hh"
#include "service/job_queue.hh"
#include "service/result_store.hh"
#include "service/sweep_wire.hh"
#include "sim/json.hh"
#include "sim/metrics.hh"
#include "sim/perfmon.hh"
#include "sim/stats.hh"
#include "sim/stats_server.hh"
#include "system/heartbeat.hh"
#include "system/run_result.hh"
#include "system/run_totals.hh"
#include "system/sim_system.hh"
#include "trace/pagemon.hh"
#include "trace/trace.hh"
#include "workload/app_profile.hh"

namespace vsnoop::test
{
namespace
{

namespace fs = std::filesystem;

std::string
readGolden(const std::string &name)
{
    std::ifstream in(std::string(VSNOOP_GOLDEN_DIR) + "/" + name,
                     std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
expectGolden(const std::string &name, const std::string &actual)
{
    std::string expected = readGolden(name);
    if (actual == expected)
        return;
    fs::path dump = fs::path(::testing::TempDir()) / (name + ".actual");
    std::ofstream(dump, std::ios::binary) << actual;
    ADD_FAILURE() << name << " differs from its golden; actual bytes in "
                  << dump.string();
}

/**
 * Replace the value of every sample line of @p families (including
 * their _bucket/_sum/_count lines) with <masked>, and the label set
 * of vsnoop_build_info.
 */
std::string
maskExposition(const std::string &text,
               const std::vector<std::string> &families)
{
    std::istringstream in(text);
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            out += line + "\n";
            continue;
        }
        std::string name = line.substr(0, line.find_first_of("{ "));
        std::size_t space = line.rfind(' ');
        if (name == "vsnoop_build_info") {
            out += name + "{<masked>}" + line.substr(space) + "\n";
            continue;
        }
        bool masked = false;
        for (const std::string &f : families) {
            masked = masked || name == f || name == f + "_bucket" ||
                     name == f + "_sum" || name == f + "_count";
        }
        out += masked ? line.substr(0, space + 1) + "<masked>" : line;
        out += "\n";
    }
    return out;
}

LatencyHistogram
histOf(std::initializer_list<std::uint64_t> samples)
{
    LatencyHistogram h;
    for (std::uint64_t v : samples)
        h.sample(v);
    return h;
}

/** A PerfMon whose every field holds a distinct nonzero value
 *  derived from @p base. */
PerfMon
handcraftedPerf(std::uint64_t base)
{
    std::uint64_t next = base;
    auto n = [&next] { return next += 7; };
    PerfMon p;
    p.enabled = true;
    EventQueuePerf &eq = p.eventQueue;
    eq.schedules = n();
    eq.deschedules = n();
    eq.wheelInserts = n();
    eq.overflowInserts = n();
    eq.maxWheelEntries = n();
    eq.maxOverflowEntries = n();
    eq.maxBucketDepth = n();
    eq.poolHighWater = n();
    eq.poolRefills = n();
    eq.poolReuses = n();
    eq.wheelOccupancy = histOf({n(), n(), 0});
    eq.overflowOccupancy = histOf({n(), 3 * n()});
    FlatTablePerf *tables[3] = {&p.mshrs, &p.inflight, &p.memoryLedger};
    for (FlatTablePerf *t : tables) {
        t->probeLength = histOf({1, 1, 2, n() % 9 + 1});
        t->growthRehashes = n();
        t->tombstoneCleanups = n();
        t->maxEntries = n();
        t->occupancy = histOf({n(), n(), n()});
        t->endSize = n();
        t->endCapacity = 4 * n();
    }
    p.mesh.sendBacklog = histOf({0, 0, n(), n()});
    p.mesh.legLength = histOf({1, 2, 3, n() % 6});
    return p;
}

/** Two perf blocks; the first wins some high-water marks so max
 *  merges are told apart from last-writer merges. */
PerfMon
perfA()
{
    PerfMon p = handcraftedPerf(1000);
    p.eventQueue.maxBucketDepth = 900000;
    p.inflight.maxEntries = 800000;
    return p;
}

PerfMon
perfB()
{
    return handcraftedPerf(5000);
}

PageCell
cell(std::uint64_t page, std::uint64_t lookups, std::uint64_t crossVm)
{
    PageCell c;
    c.pageNum = page;
    c.lookups = lookups;
    c.misses = lookups / 3;
    c.crossVm = crossVm;
    c.filtered = lookups / 5;
    c.broadcast = lookups / 7;
    c.byVm = {lookups / 2, lookups - lookups / 2, 0};
    return c;
}

/** A pages snapshot with no eviction, so its cells carry every
 *  cross-VM delivery. */
PagesSnapshot
handcraftedPages(std::uint64_t scale)
{
    PagesSnapshot s;
    s.enabled = true;
    s.topK = 16;
    s.vmRows = 3;
    s.cells = {cell(0x40, 90 * scale, 11 * scale),
               cell(0x41, 60 * scale, 7 * scale),
               cell(0x99, 25 * scale, 3 * scale)};
    for (const PageCell &c : s.cells) {
        s.totalLookups += c.lookups;
        s.crossVmLookups += c.crossVm;
    }
    s.mapEvents = 13 * scale;
    s.unmapEvents = 2 * scale;
    s.typeChanges = 5 * scale;
    s.cowBreaks = 4 * scale;
    s.remaps = 3 * scale;
    return s;
}

/** A small machine so a real run finishes in well under a second. */
SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.numVms = 2;
    cfg.vcpusPerVm = 2;
    cfg.l2.sizeBytes = 32 * 1024;
    cfg.accessesPerVcpu = 600;
    cfg.warmupAccessesPerVcpu = 100;
    return cfg;
}

TEST(MetricsGolden, PerfRunJson)
{
    SystemConfig cfg;
    cfg.accessesPerVcpu = 1000;
    cfg.warmupAccessesPerVcpu = 200;
    cfg.perf = true;
    RunResult run = collectRun(cfg, findApp("ferret"));
    JsonWriter json;
    run.results.perf.writeJson(json);
    expectGolden("perf_run.json", json.str() + "\n");
}

TEST(MetricsGolden, PerfMergeJson)
{
    PerfMon merged = perfA();
    merged.merge(perfB());
    JsonWriter json;
    merged.writeJson(json);
    expectGolden("perf_merge.json", json.str() + "\n");
}

TEST(MetricsGolden, PerfAndPagesAggregates)
{
    MetricsRegistry registry;
    RunTotals totals;
    totals.registerMetrics(registry, true, true);
    registry.freeze();
    SystemResults first, second;
    first.perf = perfA();
    first.pages = handcraftedPages(1);
    second.perf = perfB();
    second.pages = handcraftedPages(3);
    totals.add(first);
    totals.add(second);
    registry.publish();
    expectGolden("aggregates.prom", registry.renderPrometheus());
}

TEST(MetricsGolden, ServedRegistry)
{
    fs::path dir = fs::path(::testing::TempDir()) / "vsnoop_golden_served";
    fs::remove_all(dir);
    std::string error;
    ResultStore store;
    ASSERT_TRUE(store.open(dir.string(), 1 << 24, &error)) << error;
    JobQueue queue(&store, 1);
    MetricsRegistry registry;
    StatsServer server;
    // The routes vsnoopserve registers, so the per-route histogram
    // families match the served layout.
    server.route("/", [] { return HttpResponse{}; });
    server.route("/metrics", [] { return HttpResponse{}; });
    registerJobRoutes(server, queue);
    registerLogRoute(server);

    store.registerMetrics(registry);
    queue.registerMetrics(registry);
    server.registerMetrics(registry);
    registerBuildInfo(registry);
    registry.addGauge("vsnoop_uptime_seconds",
                      "Seconds since the server started",
                      [] { return 12.5; });
    registry.freeze();
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    SweepMatrix m;
    m.apps = {"ferret"};
    m.base = smallConfig();
    m.base.perf = true;
    m.base.pages = true;
    // No top-K eviction: every page's cross-VM count survives.  The
    // run touches far fewer pages than the largest accepted table.
    m.base.pagesTop = 65536;
    std::optional<HttpReply> reply =
        httpRequest(server.address(), "POST", "/jobs",
                    writeSweepRequestJson(m, "golden"),
                    "application/json", &error);
    ASSERT_TRUE(reply.has_value()) << error;
    ASSERT_EQ(reply->status, 200) << reply->body;
    std::optional<std::string> results =
        httpGet(server.address(), "/jobs/1/results", &error);
    ASSERT_TRUE(results.has_value()) << error;
    ASSERT_FALSE(results->empty());
    // The stream ends with the last record, just before the job
    // turns Done; publish the settled state.
    while (!jobStateTerminal(queue.status(1)->state))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    registry.publish();
    std::string text = registry.renderPrometheus();
    queue.shutdown();
    server.stop();
    std::uintmax_t object_bytes = 0;
    for (const auto &entry : fs::directory_iterator(dir / "objects"))
        object_bytes += entry.file_size();
    fs::remove_all(dir);

    const std::string bytes_line = "\nvsnoop_store_bytes ";
    std::size_t at = text.find(bytes_line);
    ASSERT_NE(at, std::string::npos) << text;
    EXPECT_EQ(std::stod(text.substr(at + bytes_line.size())),
              static_cast<double>(object_bytes));
    expectGolden("served.prom",
                 maskExposition(text, {"vsnoop_store_bytes",
                                       "vsnoop_uptime_seconds",
                                       "vsnoop_http_request_duration_us",
                                       "vsnoop_job_queue_wait_ms",
                                       "vsnoop_job_run_execute_ms"}));
}

TEST(MetricsGolden, SimRegistry)
{
    SystemConfig cfg = smallConfig();
    cfg.captureTrace = true;
    cfg.traceLimit = 64;
    cfg.pages = true;
    const AppProfile &app = findApp("ferret");
    SweepMatrix matrix;
    matrix.apps = {app.name};
    matrix.policies = {cfg.policy};
    matrix.relocations = {cfg.vsnoop.relocation};
    matrix.roPolicies = {cfg.vsnoop.roPolicy};
    matrix.seeds = {cfg.seed};
    matrix.base = cfg;

    // The registry vsnoopsim --stats-addr builds.
    SweepHeartbeat heartbeat(matrix);
    MetricsRegistry registry;
    heartbeat.registerMetrics(registry, 30000);
    SimSystem system(cfg, app);
    StatSet stats;
    system.registerStats(stats);
    stats.registerMetrics(registry, "vsnoop_sim_");
    const TraceSink *trace = system.trace();
    ASSERT_NE(trace, nullptr);
    trace->registerMetrics(registry, "vsnoop_sim_");
    registry.freeze();

    RunProgress &progress = heartbeat.run(0);
    heartbeat.markLaunched(steadyNowMs());
    progress.start(steadyNowMs());
    system.setProgressCallback([&](const ProgressSample &sample) {
        progress.update(sample, steadyNowMs());
    });
    system.run();
    progress.finish(steadyNowMs());
    registry.publish();

    expectGolden("sim.prom",
                 maskExposition(registry.renderPrometheus(),
                                {"vsnoop_sweep_runs_per_second",
                                 "vsnoop_sweep_eta_seconds",
                                 "vsnoop_sweep_elapsed_seconds",
                                 "vsnoop_sweep_stalled_runs"}));
}

} // namespace
} // namespace vsnoop::test
