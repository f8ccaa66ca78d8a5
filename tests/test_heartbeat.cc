/**
 * @file
 * Sweep heartbeat tests: the per-run progress cell state machine,
 * the watchdog, sweep-level aggregates and their JSON/Prometheus
 * renderings, and the telemetry routes.  That observation never
 * changes run output is tested where the cells are written, on
 * JobQueue (test_service.cc).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/json.hh"
#include "sim/metrics.hh"
#include "sim/stats_server.hh"
#include "system/heartbeat.hh"
#include "system/sweep.hh"

namespace vsnoop::test
{
namespace
{

/** A small but real 4-run matrix (2 apps x 2 seeds). */
SweepMatrix
smallMatrix()
{
    SweepMatrix m;
    m.apps = {"ferret", "blackscholes"};
    m.seeds = {1, 2};
    m.base.mesh.width = 2;
    m.base.mesh.height = 2;
    m.base.numVms = 2;
    m.base.vcpusPerVm = 2;
    m.base.l2.sizeBytes = 32 * 1024;
    m.base.accessesPerVcpu = 400;
    m.base.warmupAccessesPerVcpu = 100;
    return m;
}

ProgressSample
sampleAt(std::uint64_t issued)
{
    ProgressSample s;
    s.tick = issued * 10;
    s.accessesIssued = issued;
    s.accessesTarget = 2000;
    s.transactions = issued / 4;
    s.snoopLookups = issued / 2;
    s.filteredRequests = issued / 8;
    s.broadcastRequests = issued / 8;
    s.trafficByteHops = issued * 64;
    s.eventsProcessed = issued * 3;
    return s;
}

} // namespace

TEST(RunProgress, WalksThePendingRunningDoneLifecycle)
{
    RunProgress cell;
    EXPECT_EQ(cell.state(), RunState::Pending);
    EXPECT_EQ(cell.progressRatio(), 0.0);

    cell.start(1000);
    EXPECT_EQ(cell.state(), RunState::Running);
    EXPECT_EQ(cell.startedMs(), 1000u);

    cell.update(sampleAt(500), 1500);
    EXPECT_EQ(cell.accessesIssued(), 500u);
    EXPECT_EQ(cell.accessesTarget(), 2000u);
    EXPECT_EQ(cell.progressRatio(), 0.25);
    EXPECT_EQ(cell.filterRate(), 0.5);
    EXPECT_EQ(cell.lastUpdateMs(), 1500u);

    cell.finish(2000);
    EXPECT_EQ(cell.state(), RunState::Done);
    EXPECT_EQ(cell.finishedMs(), 2000u);
}

TEST(RunProgress, ZeroTargetOnlyCompletesWhenDone)
{
    RunProgress cell;
    EXPECT_EQ(cell.progressRatio(), 0.0);
    cell.start(0);
    EXPECT_EQ(cell.progressRatio(), 0.0);
    cell.finish(1);
    EXPECT_EQ(cell.progressRatio(), 1.0);
}

TEST(RunProgress, WatchdogFlagsOnlySilentRunningCells)
{
    RunProgress cell;
    // Pending cells are never stalled, however old.
    EXPECT_FALSE(cell.stalled(1000000, 100));

    cell.start(1000);
    cell.update(sampleAt(10), 1000);
    EXPECT_FALSE(cell.stalled(1050, 100));
    EXPECT_TRUE(cell.stalled(1101, 100));

    // A fresh update clears the flag; stallMs == 0 disables.
    cell.update(sampleAt(20), 1200);
    EXPECT_FALSE(cell.stalled(1250, 100));
    EXPECT_FALSE(cell.stalled(99999, 0));

    // Done cells are never stalled.
    cell.finish(1300);
    EXPECT_FALSE(cell.stalled(99999, 100));
}

TEST(SweepHeartbeat, PresetsTargetsAndLabelsFromTheMatrix)
{
    SweepMatrix m = smallMatrix();
    SweepHeartbeat hb(m);
    ASSERT_EQ(hb.runCount(), 4u);
    // (400 + 100 warmup) x 2 VMs x 2 vCPUs.
    EXPECT_EQ(hb.run(0).accessesTarget(), 2000u);
    EXPECT_EQ(hb.info(0).label, "ferret/vsnoop/counter/broadcast/s1");
    EXPECT_EQ(hb.info(3).label,
              "blackscholes/vsnoop/counter/broadcast/s2");
    EXPECT_EQ(hb.runsDone(), 0u);
    EXPECT_EQ(hb.runsRunning(), 0u);
}

TEST(SweepHeartbeat, AggregatesRateAndEta)
{
    SweepMatrix m = smallMatrix();
    SweepHeartbeat hb(m);
    // (A zero launch time means "not launched", so fake wall time
    // starts at 1000 here.)
    hb.markLaunched(1000);

    // Two runs done in 10 s, one halfway, one pending:
    // rate = 0.2 runs/s, remaining = 1.5 runs -> ETA 7.5 s.
    hb.run(0).start(1000);
    hb.run(0).finish(5000);
    hb.run(1).start(1000);
    hb.run(1).finish(10000);
    hb.run(2).start(5000);
    hb.run(2).update(sampleAt(1000), 10500);

    EXPECT_EQ(hb.runsDone(), 2u);
    EXPECT_EQ(hb.runsRunning(), 1u);
    EXPECT_DOUBLE_EQ(hb.runsPerSecond(11000), 0.2);
    EXPECT_DOUBLE_EQ(hb.etaSeconds(11000), 7.5);
    EXPECT_TRUE(hb.stalledRuns(11000, 1000).empty());
    EXPECT_EQ(hb.stalledRuns(12000, 1000),
              std::vector<std::size_t>{2});
}

TEST(SweepHeartbeat, ProgressJsonParsesAndAggregates)
{
    SweepMatrix m = smallMatrix();
    SweepHeartbeat hb(m);
    hb.markLaunched(1000);
    hb.run(0).start(1000);
    hb.run(0).update(sampleAt(800), 1500);
    hb.run(1).start(1000);
    hb.run(1).update(sampleAt(200), 1500);

    std::string error;
    std::optional<JsonValue> doc =
        parseJson(hb.progressJson(3000, 30000), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->numberAt("runs_total"), 4.0);
    EXPECT_EQ(doc->numberAt("runs_done"), 0.0);
    EXPECT_EQ(doc->numberAt("runs_running"), 2.0);
    EXPECT_EQ(doc->numberAt("runs_pending"), 2.0);
    EXPECT_EQ(doc->numberAt("accesses_issued"), 1000.0);
    // Targets count all four cells, preset before any run starts.
    EXPECT_EQ(doc->numberAt("accesses_target"), 8000.0);
    EXPECT_EQ(doc->numberAt("filter_rate"), 0.5);
    EXPECT_EQ(doc->numberAt("elapsed_seconds"), 2.0);
    const JsonValue *watchdog = doc->find("watchdog");
    ASSERT_NE(watchdog, nullptr);
    EXPECT_EQ(watchdog->numberAt("stall_timeout_ms"), 30000.0);
}

TEST(SweepHeartbeat, RunsJsonListsEveryCellWithIdentity)
{
    SweepMatrix m = smallMatrix();
    SweepHeartbeat hb(m);
    hb.run(2).start(100);
    hb.run(2).update(sampleAt(500), 200);

    std::string error;
    std::optional<JsonValue> doc =
        parseJson(hb.runsJson(300, 30000), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue *runs = doc->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_TRUE(runs->isArray());
    ASSERT_EQ(runs->items().size(), 4u);
    const JsonValue &running = runs->items()[2];
    EXPECT_EQ(running.stringAt("app"), "blackscholes");
    EXPECT_EQ(running.stringAt("state"), "running");
    EXPECT_EQ(running.numberAt("accesses_issued"), 500.0);
    EXPECT_EQ(running.numberAt("progress"), 0.25);
    EXPECT_EQ(runs->items()[0].stringAt("state"), "pending");
}

TEST(SweepHeartbeat, PublishesMetricsWithRunLabels)
{
    SweepMatrix m = smallMatrix();
    SweepHeartbeat hb(m);
    MetricsRegistry registry;
    hb.registerMetrics(registry, 30000);
    registry.freeze();

    hb.markLaunched(0);
    hb.run(0).start(0);
    hb.run(0).update(sampleAt(1000), 100);
    registry.publish();

    std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("vsnoop_sweep_runs_total 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("vsnoop_sweep_runs_running 1\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("vsnoop_run_progress_ratio{run=\"0\","
                  "app=\"ferret\",policy=\"vsnoop\","
                  "relocation=\"counter\",ro_policy=\"broadcast\","
                  "seed=\"1\"} 0.5\n"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE vsnoop_run_accesses_total counter\n"),
              std::string::npos);
}

TEST(SweepHeartbeat, PublishesEventAndTickThroughputSeries)
{
    // vsnooptop derives events/s and sim-cycles/s from successive
    // scrapes of these two counters; they must aggregate every
    // cell's latest sample.
    SweepMatrix m = smallMatrix();
    SweepHeartbeat hb(m);
    MetricsRegistry registry;
    hb.registerMetrics(registry, 30000);
    registry.freeze();

    hb.markLaunched(0);
    hb.run(0).start(0);
    hb.run(0).update(sampleAt(1000), 100); // 3000 events, tick 10000
    hb.run(1).start(0);
    hb.run(1).update(sampleAt(200), 100); // 600 events, tick 2000
    EXPECT_EQ(hb.run(0).eventsProcessed(), 3000u);
    registry.publish();

    std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("vsnoop_sweep_events_total 3600\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_sweep_sim_ticks_total 12000\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_run_events_total{run=\"0\","),
              std::string::npos)
        << text;
}

TEST(TelemetryRoutes, ServeMetricsProgressAndRuns)
{
    SweepMatrix m = smallMatrix();
    SweepHeartbeat hb(m);
    MetricsRegistry registry;
    hb.registerMetrics(registry, 30000);
    registry.freeze();
    hb.markLaunched(steadyNowMs());
    registry.publish();

    StatsServer server;
    registerTelemetryRoutes(server, registry, hb, 30000);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    std::optional<std::string> body =
        httpGet(server.address(), "/metrics", &error);
    ASSERT_TRUE(body.has_value()) << error;
    EXPECT_NE(body->find("vsnoop_sweep_runs_total 4\n"),
              std::string::npos);

    body = httpGet(server.address(), "/progress", &error);
    ASSERT_TRUE(body.has_value()) << error;
    std::optional<JsonValue> doc = parseJson(*body, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->numberAt("runs_total"), 4.0);

    body = httpGet(server.address(), "/runs", &error);
    ASSERT_TRUE(body.has_value()) << error;
    doc = parseJson(*body, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_NE(doc->find("runs"), nullptr);
    EXPECT_EQ(doc->find("runs")->items().size(), 4u);

    body = httpGet(server.address(), "/", &error);
    ASSERT_TRUE(body.has_value()) << error;
    EXPECT_NE(body->find("/metrics"), std::string::npos);
}

} // namespace vsnoop::test
