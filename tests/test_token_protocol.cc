/**
 * @file
 * Unit tests for the MOESI token-coherence protocol: basic
 * transactions, token movement, MOESI state equivalents, upgrades,
 * evictions, RO-shared token bundles and the persistent fallback.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "coherence_harness.hh"
#include "trace/critpath.hh"

namespace vsnoop::test
{

namespace
{
constexpr std::uint64_t kAddr = 0x40000;
constexpr std::uint32_t kAllTokens = 16;
} // namespace

TEST(TokenProtocol, ReadMissFillsFromMemory)
{
    CoherenceHarness h;
    auto outcome = h.access(0, kAddr, false);
    EXPECT_TRUE(outcome.wasMiss);
    EXPECT_EQ(outcome.source, DataSource::Memory);

    const CacheLine *line = h.line(0, kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->valid);
    EXPECT_GE(line->tokens, 1u);
    EXPECT_FALSE(line->dirty);

    MemLineState mem = h.system->memory().state(HostAddr(kAddr));
    EXPECT_EQ(mem.tokens + line->tokens, kAllTokens);
}

TEST(TokenProtocol, ReadHitAfterFill)
{
    CoherenceHarness h;
    h.access(0, kAddr, false);
    auto hit = h.access(0, kAddr, false);
    EXPECT_FALSE(hit.wasMiss);
    EXPECT_EQ(h.system->stats.l2Hits.value(), 1u);
}

TEST(TokenProtocol, WriteMissCollectsAllTokens)
{
    CoherenceHarness h;
    auto outcome = h.access(3, kAddr, true);
    EXPECT_TRUE(outcome.wasMiss);

    const CacheLine *line = h.line(3, kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tokens, kAllTokens);
    EXPECT_TRUE(line->owner);
    EXPECT_TRUE(line->dirty);

    MemLineState mem = h.system->memory().state(HostAddr(kAddr));
    EXPECT_EQ(mem.tokens, 0u);
    EXPECT_FALSE(mem.owner);
}

TEST(TokenProtocol, ReadAfterRemoteWriteIsCacheToCache)
{
    CoherenceHarness h;
    h.access(0, kAddr, true);
    auto outcome = h.access(1, kAddr, false, /*vm=*/0);
    EXPECT_EQ(outcome.source, DataSource::CacheIntraVm);

    // The writer keeps ownership (MOESI O state) and the dirty data.
    const CacheLine *owner_line = h.line(0, kAddr);
    ASSERT_NE(owner_line, nullptr);
    EXPECT_TRUE(owner_line->owner);
    EXPECT_TRUE(owner_line->dirty);
    EXPECT_EQ(owner_line->tokens, kAllTokens - 1);

    const CacheLine *reader_line = h.line(1, kAddr);
    ASSERT_NE(reader_line, nullptr);
    EXPECT_FALSE(reader_line->owner);
    EXPECT_EQ(reader_line->tokens, 1u);
}

TEST(TokenProtocol, WriteInvalidatesRemoteCopies)
{
    CoherenceHarness h;
    h.access(0, kAddr, false);
    h.access(1, kAddr, false);
    h.access(2, kAddr, true);

    EXPECT_EQ(h.line(0, kAddr), nullptr);
    EXPECT_EQ(h.line(1, kAddr), nullptr);
    const CacheLine *line = h.line(2, kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tokens, kAllTokens);
    EXPECT_TRUE(line->dirty);
}

TEST(TokenProtocol, DirtyDataMigratesThroughWriters)
{
    CoherenceHarness h;
    h.access(0, kAddr, true);
    h.access(1, kAddr, true);
    // Core 1 now owns the only (dirty) copy; a reader must get the
    // data from that cache, not from stale memory.
    auto outcome = h.access(2, kAddr, false);
    EXPECT_EQ(outcome.source, DataSource::CacheIntraVm);
}

TEST(TokenProtocol, UpgradeFromSharedToModified)
{
    CoherenceHarness h;
    h.access(0, kAddr, false);
    h.access(1, kAddr, false);
    auto outcome = h.access(0, kAddr, true);
    EXPECT_TRUE(outcome.wasMiss); // upgrade is a coherence transaction

    const CacheLine *line = h.line(0, kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tokens, kAllTokens);
    EXPECT_TRUE(line->owner);
    EXPECT_TRUE(line->dirty);
    EXPECT_FALSE(line->pinned);
    EXPECT_EQ(h.line(1, kAddr), nullptr);
}

TEST(TokenProtocol, OwnerWithLastTokenTransfersOwnership)
{
    CoherenceHarness h;
    h.access(0, kAddr, true); // core 0: M with 16 tokens
    // 14 other cores read, draining core 0 down to one token.
    for (CoreId c = 1; c <= 14; ++c)
        h.access(c, kAddr, false);
    const CacheLine *line0 = h.line(0, kAddr);
    ASSERT_NE(line0, nullptr);
    EXPECT_EQ(line0->tokens, 2u);

    h.access(15, kAddr, false);
    line0 = h.line(0, kAddr);
    ASSERT_NE(line0, nullptr);
    EXPECT_EQ(line0->tokens, 1u);
    EXPECT_TRUE(line0->owner);

    // One more read: the owner token itself must transfer, and the
    // dirty data responsibility moves with it.
    CoherenceHarness::Outcome last = h.access(15, kAddr + 64, false);
    (void)last;
    // Evict nothing yet; instead have core 1 drop its copy and read
    // again so the owner (core 0, one token) must hand over
    // ownership.
    // Simpler: a direct read when the owner has exactly one token.
    // Core 0 currently has 1 token + owner.  Invalidate core 1's
    // copy via a write from core 1, which pulls everything.
    h.access(1, kAddr, true);
    const CacheLine *line1 = h.line(1, kAddr);
    ASSERT_NE(line1, nullptr);
    EXPECT_EQ(line1->tokens, kAllTokens);
    EXPECT_TRUE(line1->owner);
    EXPECT_EQ(h.line(0, kAddr), nullptr);
}

TEST(TokenProtocol, EvictionReturnsTokensToMemory)
{
    // 16 KB, 4-way cache: 64 sets.  Lines 64 sets apart collide.
    CoherenceHarness h;
    std::uint64_t base = 0x100000;
    std::uint64_t stride = 64ull * 64; // one set apart per 64 lines
    for (int i = 0; i < 6; ++i)
        h.access(0, base + i * stride, true);

    EXPECT_GT(h.system->controller(0).cache().evictions.value(), 0u);
    EXPECT_GT(h.system->stats.dirtyWritebacks.value(), 0u);

    // At least the first two lines must have been evicted; their
    // tokens live at memory again.
    MemLineState mem = h.system->memory().state(HostAddr(base));
    EXPECT_EQ(mem.tokens, kAllTokens);
    EXPECT_TRUE(mem.owner);

    // And a re-read gets clean data from memory (the writeback
    // must have carried the dirty data home).
    auto outcome = h.access(1, base, false);
    EXPECT_EQ(outcome.source, DataSource::Memory);
}

TEST(TokenProtocol, CleanEvictionIsSilentOnData)
{
    CoherenceHarness h;
    std::uint64_t base = 0x100000;
    std::uint64_t stride = 64ull * 64;
    for (int i = 0; i < 6; ++i)
        h.access(0, base + i * stride, false);
    EXPECT_GT(h.system->controller(0).cache().evictions.value(), 0u);
    EXPECT_EQ(h.system->stats.dirtyWritebacks.value(), 0u);
}

TEST(TokenProtocol, PersistentRequestRescuesFilteredOwner)
{
    // A policy that snoops nobody and not even memory: transient
    // attempts all fail, and only the persistent broadcast (which
    // ignores the policy) can find the owner.
    auto policy = std::make_unique<StaticPolicy>(CoreSet{}, false);
    CoherenceHarness h(std::move(policy));

    auto outcome = h.access(0, kAddr, true);
    EXPECT_TRUE(outcome.fired);
    EXPECT_GT(h.system->stats.persistentRequests.value(), 0u);
    EXPECT_GT(h.system->stats.retries.value(), 0u);

    const CacheLine *line = h.line(0, kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tokens, kAllTokens);
}

TEST(TokenProtocol, RoSharedReadGetsTokenBundleAndProvidership)
{
    CoherenceHarness h;
    auto outcome =
        h.access(0, kAddr, false, /*vm=*/2, PageType::RoShared);
    EXPECT_EQ(outcome.source, DataSource::Memory);

    const CacheLine *line = h.line(0, kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tokens, 4u); // roTokenBundle default
    EXPECT_TRUE(line->providerVms & (1u << 2));
}

TEST(TokenProtocol, RoSharedProviderServesIntraVmReads)
{
    CoherenceHarness h;
    h.access(0, kAddr, false, /*vm=*/0, PageType::RoShared);
    auto outcome =
        h.access(1, kAddr, false, /*vm=*/0, PageType::RoShared);
    // The mesh neighbour responds faster than the memory
    // controller, so data arrives cache-to-cache.
    EXPECT_EQ(outcome.source, DataSource::CacheIntraVm);
}

TEST(TokenProtocol, RoSharedWritePanics)
{
    CoherenceHarness h;
    EXPECT_DEATH(h.access(0, kAddr, true, 0, PageType::RoShared),
                 "RO-shared");
}

TEST(TokenProtocol, RwSharedBehavesLikeNormalCoherence)
{
    CoherenceHarness h;
    h.access(0, kAddr, true, 0, PageType::RwShared);
    h.access(1, kAddr, false, 1, PageType::RwShared);
    auto line0 = h.line(0, kAddr);
    auto line1 = h.line(1, kAddr);
    ASSERT_NE(line0, nullptr);
    ASSERT_NE(line1, nullptr);
    EXPECT_EQ(line0->tokens + line1->tokens, kAllTokens);
}

TEST(TokenProtocol, SnoopAccountingMatchesBroadcast)
{
    CoherenceHarness h;
    h.access(0, kAddr, false);
    // One transaction: 15 remote deliveries + 1 self lookup.
    EXPECT_EQ(h.system->stats.transactions.value(), 1u);
    EXPECT_EQ(h.system->stats.snoopsDelivered.value(), 15u);
    EXPECT_EQ(h.system->stats.snoopLookups.value(), 16u);
    EXPECT_EQ(h.system->stats.memorySnoops.value(), 1u);
}

TEST(TokenProtocol, MissLatencyIsPlausible)
{
    CoherenceHarness h;
    auto memory_read = h.access(0, kAddr, false);
    // Miss latency must include at least the DRAM latency.
    EXPECT_GE(memory_read.doneAt, 80u);
    auto c2c = h.access(1, kAddr + 4096, false);
    (void)c2c;
    h.access(5, kAddr + 4096, false);
    // Cache-to-cache transfers beat another memory round trip from
    // an adjacent node.
    double mean = h.system->stats.missLatency.mean();
    EXPECT_GT(mean, 0.0);
}

TEST(TokenProtocol, DataSourceClassification)
{
    CoherenceHarness h;
    h.system->setFriend(0, 1);
    h.system->setFriend(1, 0);

    h.access(0, kAddr, true, /*vm=*/1); // writer in VM 1
    auto friendly = h.access(1, kAddr, false, /*vm=*/0);
    EXPECT_EQ(friendly.source, DataSource::CacheFriendVm);

    auto other = h.access(2, kAddr, false, /*vm=*/3);
    EXPECT_EQ(other.source, DataSource::CacheOtherVm);
}

TEST(TokenProtocol, SnoopSentBeforeTargetFillHitsAtArrival)
{
    // Core B misses on the line.  Core A's GetX leaves while B still
    // lacks it, but B's fill lands before A's snoop reaches B.  The
    // snoop must find and take B's copy at arrival, so A collects
    // every token on its first attempt.
    constexpr CoreId kA = 0, kB = 15;
    Tick fill = 0;
    {
        CoherenceHarness probe;
        auto alone = probe.access(kB, kAddr, false);
        fill = alone.doneAt - probe.system->config().l2Latency;
    }
    CoherenceHarness h;
    Tick flight = h.mesh.unloadedLatency(
        kA, kB, h.system->config().controlBytes);
    ASSERT_GT(flight, 2u);

    auto read = h.issue(kB, kAddr, false);
    h.eq.runUntil(fill - 2);
    ASSERT_EQ(h.line(kB, kAddr), nullptr);
    // Reaches B no earlier than fill - 2 + flight, after the fill.
    auto write = h.issue(kA, kAddr, true);
    h.drain(); // runs dry, then checkInvariants()

    ASSERT_TRUE(read->fired);
    ASSERT_TRUE(write->fired);
    EXPECT_EQ(read->doneAt - h.system->config().l2Latency, fill);
    EXPECT_EQ(h.system->controller(kB).snoopHits.value(), 1u);
    EXPECT_EQ(h.line(kB, kAddr), nullptr);
    EXPECT_EQ(h.system->stats.retries.value(), 0u);
    const CacheLine *line = h.line(kA, kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tokens, kAllTokens);
    EXPECT_TRUE(line->owner);
}

TEST(TokenProtocol, FlightReleasesOnlyTheTargetThatFilled)
{
    // A's GetX multicast finds both B and D without the line.  B's
    // fill lands before A's snoop reaches B; D's lands after A's
    // snoop has reached D.  Only B's snoop is delivered, at its own
    // arrival tick and event position; D's expires, so D keeps its
    // token and A collects it with one retry.
    constexpr CoreId kA = 3, kB = 15, kD = 12;
    Tick fill = 0;
    {
        CoherenceHarness probe;
        auto alone = probe.access(kB, kAddr, false);
        fill = alone.doneAt - probe.system->config().l2Latency;
    }
    // D's read reaches memory before A's write does, so D takes a
    // token that A's first attempt can only get from D's cache.
    auto start = [&](CoherenceHarness &h) {
        h.issue(kB, kAddr, false);
        h.eq.runUntil(fill - 10);
        h.issue(kD, kAddr, false);
        h.eq.runUntil(fill - 2);
    };
    // A dry run of the same script tells when A's snoops arrive.
    Tick at_b = 0, at_d = 0;
    {
        CoherenceHarness dry;
        start(dry);
        dry.issue(kA, kAddr, true);
        ASSERT_EQ(dry.mesh.log.back().src, kA);
        at_b = dry.mesh.log.back().arrive[kB];
        at_d = dry.mesh.log.back().arrive[kD];
    }
    ASSERT_GT(at_b, fill);

    CoherenceHarness h;
    start(h);
    // Probes at at_b, one event position before A's snoop to B and
    // one after it.
    bool before = false, after = true;
    h.eq.scheduleFn(at_b, [&] { before = h.line(kB, kAddr) != nullptr; });
    auto write = h.issue(kA, kAddr, true);
    h.eq.scheduleFn(at_b, [&] { after = h.line(kB, kAddr) != nullptr; });
    ASSERT_EQ(h.mesh.log.back().arrive[kB], at_b);

    h.eq.runUntil(at_d);
    EXPECT_EQ(h.line(kD, kAddr), nullptr) << "D filled before its snoop";
    while (h.line(kD, kAddr) == nullptr && h.eq.step()) {
    }
    const CacheLine *d_line = h.line(kD, kAddr);
    ASSERT_NE(d_line, nullptr);
    EXPECT_EQ(d_line->tokens, 1u);
    EXPECT_EQ(h.system->controller(kD).snoopHits.value(), 0u);
    h.drain(); // runs dry, then checkInvariants()

    EXPECT_TRUE(before);
    EXPECT_FALSE(after);
    ASSERT_TRUE(write->fired);
    EXPECT_EQ(h.system->controller(kB).snoopHits.value(), 1u);
    // The retry found D holding the line and took its token.
    EXPECT_EQ(h.system->stats.retries.value(), 1u);
    EXPECT_EQ(h.system->controller(kD).snoopHits.value(), 1u);
    EXPECT_EQ(h.line(kD, kAddr), nullptr);
    const CacheLine *line = h.line(kA, kAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tokens, kAllTokens);
}

TEST(TokenProtocol, FillReleasesEveryFlightOfItsLine)
{
    // With a 10-tick retry window, A's read re-multicasts before its
    // first snoops arrive, so B (whose own read is still in flight)
    // is pending in two of A's flights when its fill lands.  The one
    // install releases both, each at its own position, and every one
    // of A's attempts finds B holding the line.
    ProtocolConfig cfg;
    cfg.retryWindow = 10;
    cfg.maxTransientAttempts = 64;
    constexpr CoreId kA = 0, kB = 15;
    Tick fill = 0;
    {
        CoherenceHarness probe(nullptr, 16 * 1024, 4, 0, cfg);
        auto alone = probe.access(kB, kAddr, false);
        fill = alone.doneAt - probe.system->config().l2Latency;
    }
    const Tick issue = fill - 12;
    // A dry run tells when A's second attempt reaches B.
    Tick second_at = 0;
    {
        CoherenceHarness dry(nullptr, 16 * 1024, 4, 0, cfg);
        dry.issue(kB, kAddr, false);
        dry.eq.runUntil(issue);
        dry.issue(kA, kAddr, false);
        dry.eq.runUntil(issue + cfg.retryWindow);
        ASSERT_EQ(dry.mesh.log.back().src, kA);
        ASSERT_EQ(dry.mesh.log.back().depart, issue + cfg.retryWindow);
        second_at = dry.mesh.log.back().arrive[kB];
    }
    ASSERT_GT(second_at, fill);

    CoherenceHarness h(nullptr, 16 * 1024, 4, 0, cfg);
    h.issue(kB, kAddr, false);
    h.eq.runUntil(issue);
    auto read = h.issue(kA, kAddr, false);
    const Counter &hits = h.system->controller(kB).snoopHits;
    std::uint64_t before = 0, after = 0;
    h.eq.scheduleFn(second_at, [&] { before = hits.value(); });
    h.eq.runUntil(issue + cfg.retryWindow);
    ASSERT_EQ(h.mesh.log.back().depart, issue + cfg.retryWindow);
    ASSERT_EQ(h.mesh.log.back().arrive[kB], second_at);
    h.eq.scheduleFn(second_at, [&] { after = hits.value(); });
    ASSERT_EQ(h.line(kB, kAddr), nullptr) << "B filled before A's retry";
    h.drain();

    ASSERT_TRUE(read->fired);
    // A's second snoop was delivered between the two probes.
    EXPECT_EQ(after, before + 1);
    std::uint64_t a_attempts = 0;
    for (const LoggingMesh::Multicast &m : h.mesh.log)
        a_attempts += m.src == kA;
    EXPECT_GE(a_attempts, 3u);
    EXPECT_EQ(hits.value(), a_attempts);
}

TEST(MshrPool, GrowsPastItsReserveAndReusesResetSlots)
{
    // The pool reserves one slot (in-order cores block on misses);
    // a caller overlapping misses on one core must grow it.  A
    // reused slot that kept its last transaction's critical-path
    // segments would trip the accountant's conservation assert.
    CoherenceHarness h;
    CoherenceController &core0 = h.system->controller(0);
    constexpr std::size_t kOverlap = 4;
    for (int round = 0; round < 2; ++round) {
        bool write = round == 1;
        std::vector<std::shared_ptr<CoherenceHarness::Outcome>> issued;
        for (std::size_t i = 0; i < kOverlap; ++i)
            issued.push_back(h.issue(
                0, kAddr + (round * kOverlap + i) * 0x1000, write));
        EXPECT_EQ(core0.mshrCount(), kOverlap);
        // Round two reuses round one's slots instead of growing.
        EXPECT_EQ(core0.mshrPoolSlots(), kOverlap);
        h.drain(); // runs dry, then checkInvariants()
        for (const auto &outcome : issued) {
            EXPECT_TRUE(outcome->fired);
            EXPECT_TRUE(outcome->wasMiss);
            // The released slot no longer holds the callback.
            EXPECT_EQ(outcome.use_count(), 1);
        }
        EXPECT_EQ(core0.mshrCount(), 0u);
        for (std::size_t i = 0; i < kOverlap; ++i) {
            const CacheLine *line =
                h.line(0, kAddr + (round * kOverlap + i) * 0x1000);
            ASSERT_NE(line, nullptr);
            EXPECT_EQ(line->tokens, write ? kAllTokens : 1u);
        }
    }
    EXPECT_EQ(core0.mshrPoolSlots(), kOverlap);
    EXPECT_EQ(h.system->critpath().transactions.value(), 2 * kOverlap);
}

} // namespace vsnoop::test
