/**
 * @file
 * Property-based sweeps (parameterized gtest): the system-level
 * invariants must hold across the cross product of policies,
 * relocation modes, RO policies and migration periods.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "system/sim_system.hh"

namespace vsnoop::test
{

namespace
{

SystemConfig
sweepConfig()
{
    SystemConfig cfg;
    cfg.accessesPerVcpu = 1200;
    cfg.l2.sizeBytes = 16 * 1024;
    // In dispatched events; a snoop that misses dispatches none.
    cfg.invariantCheckPeriod = 30000;
    return cfg;
}

} // namespace

/**
 * Sweep: relocation mode x RO policy x migration period.  Every
 * combination must complete all accesses, conserve tokens (checked
 * periodically inside run()), and never exceed broadcast cost.
 */
class PolicySweep
    : public ::testing::TestWithParam<
          std::tuple<RelocationMode, RoPolicy, Tick>>
{
};

TEST_P(PolicySweep, CompletesAndStaysUnderBroadcastCost)
{
    auto [relocation, ro, period] = GetParam();
    SystemConfig cfg = sweepConfig();
    cfg.policy = PolicyKind::VirtualSnoop;
    cfg.vsnoop.relocation = relocation;
    cfg.vsnoop.roPolicy = ro;
    cfg.migrationPeriod = period;

    AppProfile app = findApp("canneal");
    SimSystem sys(cfg, app);
    sys.run();
    SystemResults r = sys.results();

    EXPECT_EQ(r.totalAccesses,
              static_cast<std::uint64_t>(16) * cfg.accessesPerVcpu);
    EXPECT_GT(r.transactions, 0u);
    // Snoop lookups can never exceed what TokenB would have done,
    // plus the retry overhead.
    double per_txn = static_cast<double>(r.snoopLookups) /
                     static_cast<double>(r.transactions);
    EXPECT_LE(per_txn, 16.5);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PolicySweep,
    ::testing::Combine(
        ::testing::Values(RelocationMode::Base, RelocationMode::Counter,
                          RelocationMode::CounterThreshold,
                          RelocationMode::CounterFlush),
        ::testing::Values(RoPolicy::Broadcast, RoPolicy::MemoryDirect,
                          RoPolicy::IntraVm, RoPolicy::FriendVm),
        ::testing::Values(Tick{0}, kTicksPerMs / 4)),
    [](const auto &info) {
        std::string name = relocationModeName(std::get<0>(info.param));
        name += "_";
        name += roPolicyName(std::get<1>(info.param));
        name += std::get<2>(info.param) == 0 ? "_pinned" : "_migrating";
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

/**
 * Sweep over applications: every catalog profile must drive the
 * full stack to completion with invariants held.
 */
class AppSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AppSweep, RunsCleanlyUnderVirtualSnooping)
{
    SystemConfig cfg = sweepConfig();
    cfg.policy = PolicyKind::VirtualSnoop;
    cfg.migrationPeriod = kTicksPerMs / 2;
    SimSystem sys(cfg, findApp(GetParam()));
    sys.run();
    EXPECT_EQ(sys.results().totalAccesses,
              static_cast<std::uint64_t>(16) * cfg.accessesPerVcpu);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AppSweep,
    ::testing::Values("cholesky", "fft", "lu", "ocean", "radix",
                      "blackscholes", "canneal", "dedup", "ferret",
                      "specjbb"));

/**
 * Filtering monotonicity: for any app, virtual snooping with pinned
 * VMs must never produce more snoop lookups than TokenB.
 */
class FilterMonotonicity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FilterMonotonicity, VsnoopNeverExceedsBroadcast)
{
    AppProfile app = findApp(GetParam());
    SystemConfig cfg = sweepConfig();

    cfg.policy = PolicyKind::TokenB;
    SimSystem base(cfg, app);
    base.run();

    cfg.policy = PolicyKind::VirtualSnoop;
    SimSystem vs(cfg, app);
    vs.run();

    EXPECT_LT(vs.results().snoopLookups, base.results().snoopLookups);
    EXPECT_LT(vs.results().trafficByteHops,
              base.results().trafficByteHops);
}

INSTANTIATE_TEST_SUITE_P(Apps, FilterMonotonicity,
                         ::testing::Values("fft", "radix", "specjbb",
                                           "blackscholes"));

/**
 * Seed stability: the full stack is bit-deterministic per seed.
 */
class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, DifferentSeedsStillConserveAndComplete)
{
    SystemConfig cfg = sweepConfig();
    cfg.policy = PolicyKind::VirtualSnoop;
    cfg.vsnoop.relocation = RelocationMode::CounterThreshold;
    cfg.migrationPeriod = kTicksPerMs / 10;
    cfg.seed = GetParam();
    SimSystem sys(cfg, findApp("ferret"));
    sys.run();
    EXPECT_EQ(sys.results().totalAccesses,
              static_cast<std::uint64_t>(16) * cfg.accessesPerVcpu);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 7, 42, 1234, 99999));

} // namespace vsnoop::test
