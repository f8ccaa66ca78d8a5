/**
 * @file
 * Unit and integration tests for the scheduler-trace replay (the
 * scheduler/coherence coupling).
 */

#include <gtest/gtest.h>

#include "system/sim_system.hh"
#include "virt/sched_sim.hh"
#include "virt/vcpu_map.hh"

namespace vsnoop::test
{

TEST(TraceMigrator, ReplaysPlacementsAtScaledTimes)
{
    EventQueue eq;
    VcpuMapping map(4);
    map.addVcpu(0);
    map.addVcpu(0);
    std::vector<PlacementEvent> trace = {
        {0.0, 0, 1},  // vCPU0 -> core 1 immediately
        {1.0, 1, 2},  // vCPU1 -> core 2 at 1 ms
        {2.0, 0, kInvalidCore}, // vCPU0 descheduled
        {3.0, 0, 3},  // vCPU0 -> core 3
    };
    TraceMigrator migrator(eq, map, trace, /*ticks_per_ms=*/1000.0);
    migrator.start();

    EXPECT_EQ(map.coreOf(0), 1);
    EXPECT_EQ(map.coreOf(1), kInvalidCore);

    eq.runUntil(1000);
    EXPECT_EQ(map.coreOf(1), 2);

    eq.runUntil(2000);
    EXPECT_EQ(map.coreOf(0), kInvalidCore);

    eq.runUntil(3000);
    EXPECT_EQ(map.coreOf(0), 3);
    EXPECT_TRUE(migrator.finished());
    EXPECT_EQ(migrator.migrations.value(), 1u); // core 1 -> core 3
    EXPECT_EQ(migrator.placements.value(), 3u);
}

TEST(TraceMigrator, TraceEndReplacesStrandedVcpus)
{
    EventQueue eq;
    VcpuMapping map(4);
    map.addVcpu(0);
    std::vector<PlacementEvent> trace = {
        {0.0, 0, 1},
        {1.0, 0, kInvalidCore}, // recording ends with it parked
    };
    TraceMigrator migrator(eq, map, trace, 1000.0);
    migrator.start();
    eq.runUntil(2000);
    EXPECT_TRUE(migrator.finished());
    // Re-placed (on its previous core) so the system can progress.
    EXPECT_EQ(map.coreOf(0), 1);
}

TEST(TraceMigrator, SchedulerTraceDrivesCoherenceRun)
{
    // Record a real credit-scheduler trace (4 VMs x 4 vCPUs on 16
    // cores, full migration) and replay it under virtual snooping.
    SchedConfig sched_cfg;
    sched_cfg.numCores = 16;
    sched_cfg.recordTrace = true;
    sched_cfg.seed = 3;
    SchedProfile profile;
    profile.meanRunMs = 8.0;
    profile.meanBlockMs = 2.0;
    profile.workMsPerVcpu = 200.0;
    SchedulerSim sched(sched_cfg, profile, 4, 4);
    SchedResult sched_result = sched.run();
    ASSERT_FALSE(sched_result.trace.empty());

    SystemConfig cfg;
    cfg.accessesPerVcpu = 3000;
    cfg.l2.sizeBytes = 32 * 1024;
    cfg.policy = PolicyKind::VirtualSnoop;
    // In dispatched events; a snoop that misses dispatches none.
    cfg.invariantCheckPeriod = 50000;
    cfg.placementTrace =
        std::make_shared<const std::vector<PlacementEvent>>(
            sched_result.trace);
    cfg.traceTicksPerMs = 2000.0; // compress: the run is short

    SimSystem sys(cfg, findApp("ferret"));
    sys.run();
    SystemResults r = sys.results();
    EXPECT_EQ(r.totalAccesses,
              static_cast<std::uint64_t>(16) * cfg.accessesPerVcpu);
    EXPECT_GT(r.migrations, 0u);
    // Relocation happened, so the maps must have churned.
    EXPECT_GT(r.mapAdds, 16u);
}

TEST(TraceMigrator, CounterModeStillPrunesUnderRealTrace)
{
    SchedConfig sched_cfg;
    sched_cfg.numCores = 16;
    sched_cfg.recordTrace = true;
    sched_cfg.seed = 5;
    SchedProfile profile;
    profile.meanRunMs = 5.0;
    profile.meanBlockMs = 2.0;
    profile.workMsPerVcpu = 300.0;
    SchedulerSim sched(sched_cfg, profile, 4, 4);
    auto trace = std::make_shared<const std::vector<PlacementEvent>>(
        sched.run().trace);

    auto run = [&](RelocationMode mode) {
        SystemConfig cfg;
        cfg.accessesPerVcpu = 4000;
        cfg.l2.sizeBytes = 16 * 1024;
        cfg.policy = PolicyKind::VirtualSnoop;
        cfg.vsnoop.relocation = mode;
        cfg.placementTrace = trace;
        cfg.traceTicksPerMs = 1000.0;
        SimSystem sys(cfg, findApp("ferret"));
        sys.run();
        SystemResults r = sys.results();
        return static_cast<double>(r.snoopLookups) /
               static_cast<double>(r.transactions);
    };

    double base = run(RelocationMode::Base);
    double counter = run(RelocationMode::Counter);
    EXPECT_LT(counter, base);
}

} // namespace vsnoop::test
