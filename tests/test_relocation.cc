/**
 * @file
 * End-to-end tests for relocation support (Section IV-B): residence
 * counters shrinking vCPU maps, the counter-threshold speculation
 * with safe-retry recovery, and the Figure 9 removal-period
 * measurement.
 */

#include <gtest/gtest.h>

#include "trace/trace.hh"
#include "vsnoop_harness.hh"

namespace vsnoop::test
{

namespace
{

/** Fill @p n distinct private lines of @p vm from @p core. */
void
fillLines(VsnoopHarness &h, CoreId core, VmId vm, std::uint64_t base,
          int n)
{
    for (int i = 0; i < n; ++i)
        h.access(core, base + static_cast<std::uint64_t>(i) * 64, false,
                 vm);
}

} // namespace

TEST(Relocation, OldCoreStaysInMapWhileDataRemains)
{
    VsnoopHarness h;
    fillLines(h, 0, 0, 0x100000, 8);
    EXPECT_EQ(h.system->controller(0).residence().count(0), 8u);

    h.mapping.swap(0, 8); // vCPU 0 (VM0) <-> vCPU 8 (VM2)
    CoreSet map0 = h.policy.vcpuMap(0);
    EXPECT_TRUE(map0.contains(0)) << "old core still has VM0 data";
    EXPECT_EQ(map0.count(), 5u);
}

TEST(Relocation, CounterRemovesCoreWhenDataDrains)
{
    VsnoopHarness h;
    // The 16 KB, 4-way L2 has 64 sets.  Put VM0's data in one set.
    std::uint64_t set_stride = 64 * 64;
    fillLines(h, 0, 0, 0x100000, 4); // 4 lines, set 0... sequential
    // Use conflicting addresses so VM2 can evict them: same sets.
    h.mapping.swap(0, 8);
    ASSERT_TRUE(h.policy.vcpuMap(0).contains(0));

    // VM2 (vCPU 8) now runs on core 0 and touches enough lines in
    // the same sets to evict all of VM0's lines.
    for (int way = 0; way < 4; ++way) {
        for (int set = 0; set < 4; ++set) {
            std::uint64_t addr = 0x900000 +
                                 static_cast<std::uint64_t>(way) *
                                     set_stride +
                                 static_cast<std::uint64_t>(set) * 64;
            h.access(0, addr, false, 2);
        }
    }
    EXPECT_EQ(h.system->controller(0).residence().count(0), 0u);
    EXPECT_FALSE(h.policy.vcpuMap(0).contains(0))
        << "counter reached zero; the core must leave the map";
    EXPECT_GE(h.policy.mapRemovals.value(), 1u);
}

TEST(Relocation, RemovalPeriodIsSampledForFigure9)
{
    VsnoopHarness h;
    TraceSink trace(1 << 16);
    h.system->setTrace(&trace);
    fillLines(h, 0, 0, 0x100000, 4);
    Tick swapped = h.eq.now();
    h.mapping.swap(0, 8);
    std::uint64_t set_stride = 64 * 64;
    for (int way = 0; way < 4; ++way) {
        for (int set = 0; set < 4; ++set) {
            h.access(0,
                     0x900000 +
                         static_cast<std::uint64_t>(way) * set_stride +
                         static_cast<std::uint64_t>(set) * 64,
                     false, 2);
        }
    }
    // The trace stamps the tick at which core 0 left VM0's map.
    ASSERT_EQ(trace.dropped(), 0u);
    Tick removed = kMaxTick;
    trace.forEach([&](const TraceRecord &r) {
        if (r.kind == TraceEventKind::MapRemove && r.vm == 0 &&
            r.core == 0)
            removed = r.tick;
    });
    ASSERT_NE(removed, kMaxTick);
    ASSERT_GT(removed, swapped);
    // The sample is the exact period, not a bucket edge.
    ASSERT_EQ(h.policy.removalPeriods.size(), 1u);
    EXPECT_EQ(h.policy.removalPeriods[0], removed - swapped);

    h.policy.resetStats();
    EXPECT_TRUE(h.policy.removalPeriods.empty());
}

TEST(Relocation, ReturningVcpuCancelsPendingRemoval)
{
    VsnoopHarness h;
    fillLines(h, 0, 0, 0x100000, 4);
    h.mapping.swap(0, 8);
    // VM0 returns to core 0 before the data drains.
    h.mapping.swap(0, 8);
    EXPECT_TRUE(h.policy.vcpuMap(0).contains(0));
    EXPECT_TRUE(h.policy.removalPeriods.empty());
}

TEST(Relocation, CounterThresholdRemovesEarly)
{
    VsnoopConfig cfg;
    cfg.relocation = RelocationMode::CounterThreshold;
    cfg.counterThreshold = 10;
    VsnoopHarness h(cfg);
    fillLines(h, 0, 0, 0x100000, 4); // 4 < threshold 10
    h.mapping.swap(0, 8);
    // Below the threshold: removed immediately on departure, even
    // though lines (and tokens) remain on core 0.
    EXPECT_FALSE(h.policy.vcpuMap(0).contains(0));
    EXPECT_GT(h.system->controller(0).residence().count(0), 0u);
}

TEST(Relocation, CounterThresholdStrandedTokensRecoveredByRetry)
{
    VsnoopConfig cfg;
    cfg.relocation = RelocationMode::CounterThreshold;
    cfg.counterThreshold = 10;
    cfg.broadcastAttempt = 3;
    VsnoopHarness h(cfg);
    std::uint64_t addr = 0x100000;
    h.access(0, addr, false, 0); // VM0 line cached on core 0
    h.mapping.swap(0, 8);
    ASSERT_FALSE(h.policy.vcpuMap(0).contains(0));

    // VM0 (now on core 8) writes the line.  The filtered attempts
    // miss the token stranded on core 0; the broadcast fallback
    // must find it.
    auto outcome = h.access(8, addr, true, 0);
    EXPECT_TRUE(outcome.fired);
    EXPECT_GT(h.system->stats.retries.value(), 0u);
    const CacheLine *line = h.line(8, addr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tokens, 16u);
    EXPECT_EQ(h.line(0, addr), nullptr);
}

TEST(Relocation, CounterModeWaitsForFullDrain)
{
    VsnoopConfig cfg;
    cfg.relocation = RelocationMode::Counter;
    VsnoopHarness h(cfg);
    fillLines(h, 0, 0, 0x100000, 4);
    h.mapping.swap(0, 8);
    // Data still present: strict counter mode must keep the core.
    EXPECT_TRUE(h.policy.vcpuMap(0).contains(0));
}

TEST(Relocation, LongMigrationChainCoversManyCores)
{
    // vsnoop-base: a VM that visits many cores accumulates them all
    // (the paper's motivation for the counter mechanism).
    VsnoopConfig cfg;
    cfg.relocation = RelocationMode::Base;
    VsnoopHarness h(cfg);
    fillLines(h, 0, 0, 0x100000, 2);
    h.mapping.swap(0, 4);  // VM0 vCPU0 <-> VM1 vCPU0
    fillLines(h, 4, 0, 0x110000, 2);
    h.mapping.swap(0, 8);  // now with VM2's first vCPU
    fillLines(h, 8, 0, 0x120000, 2);
    CoreSet map0 = h.policy.vcpuMap(0);
    EXPECT_TRUE(map0.contains(0));
    EXPECT_TRUE(map0.contains(4));
    EXPECT_TRUE(map0.contains(8));
    EXPECT_GE(map0.count(), 6u);
}

TEST(Relocation, CounterFlushEvictsAndRemovesImmediately)
{
    VsnoopConfig cfg;
    cfg.relocation = RelocationMode::CounterFlush;
    cfg.counterThreshold = 10;
    VsnoopHarness h(cfg);
    // Mix of clean and dirty private lines below the threshold.
    h.access(0, 0x100000, false, 0);
    h.access(0, 0x100040, true, 0);
    h.access(0, 0x100080, true, 0);
    ASSERT_EQ(h.system->controller(0).residence().count(0), 3u);

    h.mapping.swap(0, 8);
    h.drain();

    // The flush drained the counter and removed the core at once.
    EXPECT_EQ(h.system->controller(0).residence().count(0), 0u);
    EXPECT_FALSE(h.policy.vcpuMap(0).contains(0));
    EXPECT_EQ(h.policy.selectiveFlushes.value(), 1u);
    EXPECT_EQ(h.policy.flushedLines.value(), 3u);
    // Dirty data went home.
    EXPECT_GE(h.system->stats.dirtyWritebacks.value(), 2u);
    EXPECT_EQ(h.line(0, 0x100000), nullptr);
    EXPECT_EQ(h.line(0, 0x100040), nullptr);

    // No tokens were stranded: a write from the new location
    // completes without broadcast retries.
    auto outcome = h.access(8, 0x100040, true, 0);
    EXPECT_TRUE(outcome.fired);
    EXPECT_EQ(h.system->stats.retries.value(), 0u);
}

TEST(Relocation, CounterFlushRespectsThreshold)
{
    VsnoopConfig cfg;
    cfg.relocation = RelocationMode::CounterFlush;
    cfg.counterThreshold = 4;
    VsnoopHarness h(cfg);
    fillLines(h, 0, 0, 0x100000, 8); // 8 >= threshold: no flush
    h.mapping.swap(0, 8);
    EXPECT_TRUE(h.policy.vcpuMap(0).contains(0));
    EXPECT_EQ(h.policy.selectiveFlushes.value(), 0u);
    EXPECT_EQ(h.system->controller(0).residence().count(0), 8u);
}

TEST(Relocation, CounterFlushLeavesOtherVmsAlone)
{
    VsnoopConfig cfg;
    cfg.relocation = RelocationMode::CounterFlush;
    cfg.counterThreshold = 10;
    VsnoopHarness h(cfg);
    // Two VMs' worth of data on adjacent cores; only VM0's lines at
    // core 0 may be flushed.
    h.access(0, 0x100000, false, 0);
    h.access(4, 0x200000, false, 1);
    h.mapping.swap(0, 8);
    h.drain();
    EXPECT_EQ(h.line(0, 0x100000), nullptr);
    EXPECT_NE(h.line(4, 0x200000), nullptr);
    EXPECT_EQ(h.system->controller(4).residence().count(1), 1u);
}

TEST(Relocation, MapSyncTrafficIsCharged)
{
    VsnoopHarness h;
    auto before = h.mesh.stats()
                      .messages[static_cast<std::size_t>(
                          MsgClass::Control)]
                      .value();
    fillLines(h, 0, 0, 0x100000, 2);
    h.mapping.swap(0, 8);
    auto after = h.mesh.stats()
                     .messages[static_cast<std::size_t>(
                         MsgClass::Control)]
                     .value();
    EXPECT_GT(after, before);
}

} // namespace vsnoop::test
