/**
 * @file
 * Tests for sweeps: deterministic matrix expansion, the bench
 * worker pool, and — the load-bearing property — a matrix run as a
 * JobQueue job on several workers gives the JSON bytes of a serial
 * collectRun() loop.
 */

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/json.hh"
#include "sweep_reference.hh"
#include "system/sweep.hh"

namespace vsnoop::test
{

TEST(SweepMatrix, ExpandsInDeterministicOrder)
{
    SweepMatrix m;
    m.apps = {"ferret", "canneal"};
    m.policies = {PolicyKind::TokenB, PolicyKind::VirtualSnoop};
    m.seeds = {1, 2};
    auto points = m.expand();
    ASSERT_EQ(points.size(), 8u);
    EXPECT_EQ(m.runCount(), 8u);
    // App-major, then policy, then seed.
    EXPECT_EQ(points[0].app, "ferret");
    EXPECT_EQ(points[0].policy, PolicyKind::TokenB);
    EXPECT_EQ(points[0].seed, 1u);
    EXPECT_EQ(points[1].seed, 2u);
    EXPECT_EQ(points[2].policy, PolicyKind::VirtualSnoop);
    EXPECT_EQ(points[4].app, "canneal");
    EXPECT_EQ(points[7].app, "canneal");
    EXPECT_EQ(points[7].policy, PolicyKind::VirtualSnoop);
    EXPECT_EQ(points[7].seed, 2u);
}

TEST(SweepMatrix, ConfigForAppliesPointOverrides)
{
    SweepMatrix m;
    m.base.numVms = 2;
    m.base.vcpusPerVm = 2;
    SweepPoint p;
    p.policy = PolicyKind::TokenB;
    p.relocation = RelocationMode::CounterThreshold;
    p.roPolicy = RoPolicy::IntraVm;
    p.seed = 42;
    SystemConfig cfg = m.configFor(p);
    EXPECT_EQ(cfg.policy, PolicyKind::TokenB);
    EXPECT_EQ(cfg.vsnoop.relocation, RelocationMode::CounterThreshold);
    EXPECT_EQ(cfg.vsnoop.roPolicy, RoPolicy::IntraVm);
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_EQ(cfg.numVms, 2u);
}

TEST(SweepMatrix, EmptyAxisAsserts)
{
    SweepMatrix m;
    m.apps = {};
    EXPECT_DEATH(m.expand(), "at least one value");
}

TEST(RunIndexed, InvokesEveryIndexExactlyOnce)
{
    constexpr std::size_t kCount = 100;
    std::vector<std::atomic<int>> hits(kCount);
    runIndexed(kCount, 7, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(RunIndexed, ZeroCountIsANoOp)
{
    bool called = false;
    runIndexed(0, 4, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

namespace
{

/** A small but real 8-run matrix (2 apps x 2 policies x 2 seeds). */
SweepMatrix
smallMatrix()
{
    SweepMatrix m;
    m.apps = {"ferret", "blackscholes"};
    m.policies = {PolicyKind::TokenB, PolicyKind::VirtualSnoop};
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

} // namespace

TEST(RunSweep, ParallelOutputMatchesSerialByteForByte)
{
    SweepMatrix m = smallMatrix();
    auto serial = serialRunLines(m);
    auto parallel = queueRunLines(m, 4);
    ASSERT_EQ(serial.size(), 8u);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "run " << i;
}

TEST(RunSweep, PerfOffLeavesJsonFreeOfPerfKeysAtAnyJobCount)
{
    // The core observability contract: with --perf off the output
    // carries no perf keys at all, and the parallel engine's bytes
    // equal the serial reference's (i.e. perfmon is invisible, not
    // just zeroed).
    SweepMatrix m = smallMatrix();
    auto serial = serialRunLines(m);
    auto parallel = queueRunLines(m, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]) << "run " << i;
        EXPECT_EQ(serial[i].find("\"perf\""), std::string::npos)
            << "run " << i;
    }
}

TEST(RunSweep, PerfOnIsDeterministicAndCountsAreLive)
{
    SweepMatrix m = smallMatrix();
    m.base.perf = true;
    auto serial = serialRunLines(m);
    auto parallel = queueRunLines(m, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "run " << i;

    // Every run carries the block with live event-queue and table
    // counters: a coherence run cannot complete without scheduling
    // events or probing the MSHR table.
    for (const std::string &line : parallel) {
        ASSERT_NE(line.find("\"perf\":{"), std::string::npos);
        std::size_t eq = line.find("\"event_queue\":{");
        ASSERT_NE(eq, std::string::npos);
        EXPECT_EQ(line.find("\"schedules\":0,", eq), std::string::npos);
        EXPECT_NE(line.find("\"tables\":{\"mshrs\":{"),
                  std::string::npos);
        EXPECT_NE(line.find("\"mesh\":{"), std::string::npos);
    }
}

TEST(RunSweep, RecordsCarryTheirPointIdentity)
{
    SweepMatrix m = smallMatrix();
    auto lines = queueRunLines(m, 4);
    auto points = m.expand();
    ASSERT_EQ(lines.size(), points.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::optional<JsonValue> record = parseJson(lines[i]);
        ASSERT_TRUE(record.has_value()) << "run " << i;
        EXPECT_EQ(record->stringAt("app"), points[i].app);
        EXPECT_EQ(record->stringAt("policy"),
                  enumToken(points[i].policy));
        EXPECT_EQ(record->numberAt("seed"),
                  static_cast<double>(points[i].seed));
        const JsonValue *results = record->find("results");
        ASSERT_NE(results, nullptr) << "run " << i;
        EXPECT_GT(results->numberAt("accesses"), 0.0) << "run " << i;
    }
}

} // namespace vsnoop::test
