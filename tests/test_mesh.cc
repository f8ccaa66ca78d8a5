/**
 * @file
 * Unit tests for the 2D mesh and the ideal crossbar.
 */

#include <algorithm>
#include <bit>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "noc/mesh.hh"
#include "sim/perfmon.hh"

namespace vsnoop::test
{

namespace
{
MeshConfig
defaultConfig()
{
    return MeshConfig{}; // 4x4, 16B links, 4-cycle routers
}
} // namespace

TEST(Mesh, HopCountIsManhattan)
{
    Mesh mesh(defaultConfig());
    EXPECT_EQ(mesh.hopCount(0, 0), 0u);
    EXPECT_EQ(mesh.hopCount(0, 3), 3u);   // same row
    EXPECT_EQ(mesh.hopCount(0, 12), 3u);  // same column
    EXPECT_EQ(mesh.hopCount(0, 15), 6u);  // corner to corner
    EXPECT_EQ(mesh.hopCount(5, 10), 2u);
    EXPECT_EQ(mesh.hopCount(10, 5), 2u);
}

TEST(Mesh, UnloadedLatencyFormula)
{
    Mesh mesh(defaultConfig());
    // 1 hop, 1 flit: pipeline(4) + link(1) = 5.
    EXPECT_EQ(mesh.unloadedLatency(0, 1, 8), 5u);
    // 1 hop, data message 72B = 5 flits: + 4 extra link cycles.
    EXPECT_EQ(mesh.unloadedLatency(0, 1, 72), 9u);
    // 6 hops, 1 flit.
    EXPECT_EQ(mesh.unloadedLatency(0, 15, 8), 30u);
    // Local delivery.
    EXPECT_EQ(mesh.unloadedLatency(3, 3, 72), 1u);
}

TEST(Mesh, SendMatchesUnloadedLatencyWhenIdle)
{
    Mesh mesh(defaultConfig());
    Tick arrive = mesh.send(0, 15, 72, MsgClass::Data, 100);
    EXPECT_EQ(arrive, 100 + mesh.unloadedLatency(0, 15, 72));
}

TEST(Mesh, ContentionDelaysSecondMessage)
{
    Mesh mesh(defaultConfig());
    Tick first = mesh.send(0, 1, 72, MsgClass::Data, 0);
    Tick second = mesh.send(0, 1, 72, MsgClass::Data, 0);
    EXPECT_GT(second, first);
}

TEST(Mesh, DisjointPathsDoNotInterfere)
{
    Mesh mesh(defaultConfig());
    Tick a = mesh.send(0, 1, 72, MsgClass::Data, 0);
    Tick b = mesh.send(14, 15, 72, MsgClass::Data, 0);
    EXPECT_EQ(a, mesh.unloadedLatency(0, 1, 72));
    EXPECT_EQ(b, mesh.unloadedLatency(14, 15, 72));
}

TEST(Mesh, TrafficAccountingCountsLinkOccupancy)
{
    Mesh mesh(defaultConfig());
    mesh.send(0, 3, 8, MsgClass::Request, 0);   // 3 hops, 1 flit
    mesh.send(0, 0, 8, MsgClass::Request, 0);   // local: 1 hop min
    mesh.send(0, 15, 72, MsgClass::Data, 0);    // 6 hops, 5 flits
    const NetworkStats &stats = mesh.stats();
    auto req = static_cast<std::size_t>(MsgClass::Request);
    auto dat = static_cast<std::size_t>(MsgClass::Data);
    EXPECT_EQ(stats.messages[req].value(), 2u);
    EXPECT_EQ(stats.bytes[req].value(), 16u);
    // Occupancy: flits (1) * link width (16) * hops.
    EXPECT_EQ(stats.byteHops[req].value(), 16u * 3 + 16u * 1);
    EXPECT_EQ(stats.byteHops[dat].value(), 5u * 16 * 6);
    EXPECT_EQ(stats.totalMessages(), 3u);
    EXPECT_EQ(stats.totalByteHops(), 16u * 4 + 5u * 16 * 6);
}

TEST(Mesh, PerClassByteHopsOnKnownRoutes)
{
    Mesh mesh(defaultConfig()); // 4x4, 16B links
    // One message per class on a known route; each class must
    // accumulate hop-weighted occupancy independently.
    mesh.send(0, 3, 8, MsgClass::Request, 0);    // 3 hops, 1 flit
    mesh.send(15, 12, 8, MsgClass::Response, 0); // 3 hops, 1 flit
    mesh.send(0, 15, 72, MsgClass::Data, 0);     // 6 hops, 5 flits
    // The Control lane carries vCPU-map synchronization: an 8-byte
    // update 0 -> 5 (2 hops) and a 20-byte payload 5 -> 5 (local
    // delivery, charged min 1 hop, 2 flits).
    mesh.send(0, 5, 8, MsgClass::Control, 0);
    mesh.send(5, 5, 20, MsgClass::Control, 0);

    const NetworkStats &stats = mesh.stats();
    auto cls = [](MsgClass c) { return static_cast<std::size_t>(c); };
    EXPECT_EQ(stats.byteHops[cls(MsgClass::Request)].value(),
              1u * 16 * 3);
    EXPECT_EQ(stats.byteHops[cls(MsgClass::Response)].value(),
              1u * 16 * 3);
    EXPECT_EQ(stats.byteHops[cls(MsgClass::Data)].value(),
              5u * 16 * 6);
    EXPECT_EQ(stats.byteHops[cls(MsgClass::Control)].value(),
              1u * 16 * 2 + 2u * 16 * 1);
    // Raw byte counts are hop-independent.
    EXPECT_EQ(stats.bytes[cls(MsgClass::Control)].value(), 28u);
    EXPECT_EQ(stats.messages[cls(MsgClass::Control)].value(), 2u);
    EXPECT_EQ(stats.totalByteHops(),
              16u * 3 + 16u * 3 + 5u * 16 * 6 + 16u * 2 + 2u * 16);
}

TEST(Mesh, ControlLaneSharesLinksWithOtherClasses)
{
    Mesh mesh(defaultConfig());
    // Control traffic is not a separate physical network: a control
    // message must contend for the same link as a data message.
    Tick data = mesh.send(0, 1, 72, MsgClass::Data, 0);
    Tick control = mesh.send(0, 1, 8, MsgClass::Control, 0);
    EXPECT_GT(control, mesh.unloadedLatency(0, 1, 8));
    EXPECT_GT(control, 0u);
    EXPECT_GT(data, 0u);
}

TEST(Mesh, ResetStatsClears)
{
    Mesh mesh(defaultConfig());
    mesh.send(0, 1, 8, MsgClass::Request, 0);
    mesh.resetStats();
    EXPECT_EQ(mesh.stats().totalMessages(), 0u);
}

TEST(Mesh, NonSquareGeometry)
{
    MeshConfig cfg;
    cfg.width = 8;
    cfg.height = 2;
    Mesh mesh(cfg);
    EXPECT_EQ(mesh.numNodes(), 16u);
    EXPECT_EQ(mesh.hopCount(0, 15), 8u); // 7 east + 1 north
}

TEST(MeshDeath, NodeOutOfRangePanics)
{
    Mesh mesh(defaultConfig());
    EXPECT_DEATH(mesh.send(0, 99, 8, MsgClass::Request, 0),
                 "out of range");
}

TEST(IdealCrossbar, FixedLatencyAnyPair)
{
    IdealCrossbar xbar(16, 8);
    EXPECT_EQ(xbar.send(0, 15, 8, MsgClass::Request, 10), 18u);
    EXPECT_EQ(xbar.send(3, 4, 8, MsgClass::Request, 10), 18u);
    // Multi-flit serialization still counts.
    EXPECT_EQ(xbar.send(0, 1, 72, MsgClass::Data, 0), 8u + 4);
}

TEST(IdealCrossbar, TrafficIsSingleHop)
{
    IdealCrossbar xbar(16, 8);
    xbar.send(0, 15, 72, MsgClass::Data, 0);
    auto dat = static_cast<std::size_t>(MsgClass::Data);
    EXPECT_EQ(xbar.stats().byteHops[dat].value(), 5u * 16);
}

namespace
{
const LinkStat *
findLink(const std::vector<LinkStat> &links, NodeId from, NodeId to)
{
    for (const LinkStat &l : links)
        if (l.from == from && l.to == to)
            return &l;
    return nullptr;
}
} // namespace

TEST(MeshLinkStats, GeometryOfFourByFour)
{
    Mesh mesh(defaultConfig());
    std::vector<LinkStat> links = mesh.linkStats();
    // 4x4: 2*4*3 horizontal + 2*4*3 vertical directed links plus one
    // loopback pseudo-link per node.
    EXPECT_EQ(links.size(), 48u + 16u);
    std::size_t loopbacks = 0;
    for (const LinkStat &l : links) {
        EXPECT_LT(l.from, 16u);
        EXPECT_LT(l.to, 16u);
        if (l.from == l.to)
            loopbacks++;
        else
            EXPECT_EQ(mesh.hopCount(l.from, l.to), 1u);
    }
    EXPECT_EQ(loopbacks, 16u);
}

TEST(MeshLinkStats, PerLinkSumsConserveAggregateByteHops)
{
    Mesh mesh(defaultConfig());
    // A mix of classes, routes, and local deliveries; the per-link
    // ledger (including loopback pseudo-links) must sum to the
    // aggregate byte-hop counters exactly, per message class.
    mesh.send(0, 3, 8, MsgClass::Request, 0);
    mesh.send(5, 5, 8, MsgClass::Request, 0);
    mesh.send(15, 0, 72, MsgClass::Data, 0);
    mesh.send(2, 14, 8, MsgClass::Response, 10);
    mesh.send(7, 7, 20, MsgClass::Control, 10);
    mesh.send(1, 13, 8, MsgClass::Control, 20);
    mesh.send(12, 15, 72, MsgClass::Data, 20);

    std::vector<LinkStat> links = mesh.linkStats();
    for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
        std::uint64_t per_link = 0;
        for (const LinkStat &l : links)
            per_link += l.byteHops[c];
        EXPECT_EQ(per_link, mesh.stats().byteHops[c].value())
            << "class " << c;
    }
}

TEST(MeshLinkStats, LoopbacksCarryBytesButNoCycles)
{
    Mesh mesh(defaultConfig());
    mesh.send(5, 5, 20, MsgClass::Control, 0); // 2 flits
    std::vector<LinkStat> links = mesh.linkStats();
    const LinkStat *loop = findLink(links, 5, 5);
    ASSERT_NE(loop, nullptr);
    auto ctl = static_cast<std::size_t>(MsgClass::Control);
    EXPECT_EQ(loop->byteHops[ctl], 2u * 16);
    // Local delivery bypasses the network, so the pseudo-link never
    // accumulates occupancy or backlog.
    EXPECT_EQ(loop->busyCycles, 0u);
    EXPECT_EQ(loop->waitCycles, 0u);
}

TEST(MeshLinkStats, BusyAndWaitCyclesOnContendedLink)
{
    Mesh mesh(defaultConfig()); // pipeline 4, link latency 1
    // Two 5-flit messages over the same single link.  Each occupies
    // the link for 5 cycles; the second head is ready at tick 4 but
    // the link is busy until tick 9, so it logs 5 wait cycles.
    mesh.send(0, 1, 72, MsgClass::Data, 0);
    mesh.send(0, 1, 72, MsgClass::Data, 0);
    // linkStats() returns a copy: keep it alive while findLink()'s
    // pointers into it are read.
    std::vector<LinkStat> links = mesh.linkStats();
    const LinkStat *east = findLink(links, 0, 1);
    ASSERT_NE(east, nullptr);
    EXPECT_EQ(east->busyCycles, 10u);
    EXPECT_EQ(east->waitCycles, 5u);
    EXPECT_EQ(east->totalByteHops(), 2u * 5 * 16);
    // The reverse direction is a distinct link and stays idle.
    const LinkStat *west = findLink(links, 1, 0);
    ASSERT_NE(west, nullptr);
    EXPECT_EQ(west->totalByteHops(), 0u);
    EXPECT_EQ(west->busyCycles, 0u);
}

TEST(MeshLinkStats, ResetStatsClearsLinkLedger)
{
    Mesh mesh(defaultConfig());
    mesh.send(0, 15, 72, MsgClass::Data, 0);
    mesh.send(3, 3, 8, MsgClass::Request, 0);
    mesh.resetStats();
    for (const LinkStat &l : mesh.linkStats()) {
        EXPECT_EQ(l.totalByteHops(), 0u);
        EXPECT_EQ(l.busyCycles, 0u);
        EXPECT_EQ(l.waitCycles, 0u);
    }
}

namespace
{

void
expectSameHistogram(const LatencyHistogram &a, const LatencyHistogram &b,
                    const char *name)
{
    EXPECT_EQ(a.count(), b.count()) << name;
    EXPECT_EQ(a.sum(), b.sum()) << name;
    EXPECT_EQ(a.min(), b.min()) << name;
    EXPECT_EQ(a.max(), b.max()) << name;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i)
        EXPECT_EQ(a.bucketHits(i), b.bucketHits(i)) << name << " bucket " << i;
}

/**
 * Load @p multi and its identical twin @p uni with the same random
 * background sends, then send random messages (source, destination
 * mask, size, class, departure tick) as one multicast() on @p multi
 * and as send()s in ascending destination order on @p uni.  Masks may
 * include the source (local delivery) or be empty.
 */
void
expectMulticastMatchesSends(Network &multi, Network &uni,
                            std::uint64_t seed)
{
    const std::uint32_t nodes = multi.numNodes();
    const std::uint64_t all =
        nodes >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << nodes) - 1;
    std::mt19937_64 rng(seed);
    auto bytes = [&] {
        const std::uint32_t sizes[] = {8, 16, 17, 72};
        return rng() % 5 == 0 ? 1 + static_cast<std::uint32_t>(rng() % 100)
                              : sizes[rng() % 4];
    };
    auto cls = [&] { return static_cast<MsgClass>(rng() % kNumMsgClasses); };
    Tick base = 0;
    for (int i = 0; i < 400; ++i) {
        auto src = static_cast<NodeId>(rng() % nodes);
        auto dst = static_cast<NodeId>(rng() % nodes);
        std::uint32_t size = bytes();
        MsgClass c = cls();
        base += rng() % 3;
        ASSERT_EQ(multi.send(src, dst, size, c, base),
                  uni.send(src, dst, size, c, base));
    }
    for (int i = 0; i < 300; ++i) {
        auto src = static_cast<NodeId>(rng() % nodes);
        std::uint64_t dsts = rng() & rng() & all;
        if (i % 7 == 0)
            dsts = all & ~(std::uint64_t{1} << src); // a broadcast
        std::uint32_t size = bytes();
        MsgClass c = cls();
        base += rng() % 4;
        Tick now = base + rng() % 16; // not monotone
        std::vector<Tick> arrive(std::popcount(dsts));
        Tick multi_wait = 0;
        multi.multicast(src, dsts, size, c, now, arrive.data(),
                        &multi_wait);
        std::vector<Tick> want;
        Tick uni_wait = 0;
        for (std::uint64_t rest = dsts; rest != 0; rest &= rest - 1) {
            auto dst = static_cast<NodeId>(std::countr_zero(rest));
            want.push_back(uni.send(src, dst, size, c, now, &uni_wait));
        }
        ASSERT_EQ(arrive, want) << "multicast " << i;
        ASSERT_EQ(multi_wait, uni_wait) << "multicast " << i;
    }
    for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
        EXPECT_EQ(multi.stats().messages[c].value(),
                  uni.stats().messages[c].value());
        EXPECT_EQ(multi.stats().bytes[c].value(),
                  uni.stats().bytes[c].value());
        EXPECT_EQ(multi.stats().byteHops[c].value(),
                  uni.stats().byteHops[c].value());
    }
    std::vector<LinkStat> got = multi.linkStats();
    std::vector<LinkStat> want = uni.linkStats();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].from, want[i].from);
        EXPECT_EQ(got[i].to, want[i].to);
        for (std::size_t c = 0; c < kNumMsgClasses; ++c)
            EXPECT_EQ(got[i].byteHops[c], want[i].byteHops[c]);
        EXPECT_EQ(got[i].busyCycles, want[i].busyCycles);
        EXPECT_EQ(got[i].waitCycles, want[i].waitCycles);
    }
}

} // namespace

TEST(Mesh, RoutesAreXyPaths)
{
    // Each pair's message, alone on the mesh, must occupy exactly the
    // links of its XY path (along the source's row, then the
    // destination's column), sample its two legs, and arrive at the
    // unloaded latency.
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {2, 2}, {3, 5}, {4, 4}, {8, 8}};
    for (auto [width, height] : shapes) {
        MeshConfig cfg;
        cfg.width = width;
        cfg.height = height;
        Mesh mesh(cfg);
        Tick now = 0;
        for (NodeId src = 0; src < mesh.numNodes(); ++src) {
            for (NodeId dst = 0; dst < mesh.numNodes(); ++dst) {
                SCOPED_TRACE(std::to_string(width) + "x" +
                             std::to_string(height) + " " +
                             std::to_string(src) + "->" +
                             std::to_string(dst));
                std::vector<std::pair<NodeId, NodeId>> want;
                std::uint32_t x = src % width, y = src / width;
                std::uint32_t dx = dst % width, dy = dst / width;
                while (x != dx) {
                    std::uint32_t nx = x < dx ? x + 1 : x - 1;
                    want.emplace_back(y * width + x, y * width + nx);
                    x = nx;
                }
                while (y != dy) {
                    std::uint32_t ny = y < dy ? y + 1 : y - 1;
                    want.emplace_back(y * width + x, ny * width + x);
                    y = ny;
                }
                MeshPerf perf;
                mesh.setPerf(&perf);
                mesh.resetStats();
                now += 1000; // every link is idle again
                EXPECT_EQ(mesh.send(src, dst, 72, MsgClass::Data, now),
                          now + mesh.unloadedLatency(src, dst, 72));
                std::vector<std::pair<NodeId, NodeId>> busy;
                for (const LinkStat &l : mesh.linkStats()) {
                    if (l.busyCycles > 0)
                        busy.emplace_back(l.from, l.to);
                }
                std::sort(want.begin(), want.end());
                EXPECT_EQ(busy, want);
                std::uint32_t x_leg = src % width > dst % width
                                          ? src % width - dst % width
                                          : dst % width - src % width;
                std::uint32_t y_leg = src / width > dst / width
                                          ? src / width - dst / width
                                          : dst / width - src / width;
                EXPECT_EQ(perf.legLength.count(),
                          (x_leg > 0 ? 1u : 0u) + (y_leg > 0 ? 1u : 0u));
                EXPECT_EQ(perf.legLength.sum(), x_leg + y_leg);
                EXPECT_EQ(perf.legLength.max(), std::max(x_leg, y_leg));
                EXPECT_EQ(perf.sendBacklog.count(), x_leg + y_leg);
            }
        }
    }
}

TEST(MeshMulticast, EqualsAscendingSends)
{
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {2, 2}, {3, 5}, {4, 4}, {8, 8}};
    for (auto [width, height] : shapes) {
        for (bool perf : {false, true}) {
            SCOPED_TRACE(std::to_string(width) + "x" +
                         std::to_string(height) +
                         (perf ? " perf" : ""));
            MeshConfig cfg;
            cfg.width = width;
            cfg.height = height;
            Mesh multi(cfg), uni(cfg);
            MeshPerf multi_perf, uni_perf;
            if (perf) {
                multi.setPerf(&multi_perf);
                uni.setPerf(&uni_perf);
            }
            expectMulticastMatchesSends(multi, uni, width * 100 + height);
            if (perf) {
                EXPECT_GT(uni_perf.legLength.count(), 0u);
            }
            expectSameHistogram(multi_perf.legLength, uni_perf.legLength,
                                "legLength");
            expectSameHistogram(multi_perf.sendBacklog,
                                uni_perf.sendBacklog, "sendBacklog");
        }
    }
}

TEST(IdealCrossbar, MulticastEqualsAscendingSends)
{
    IdealCrossbar multi(16, 8), uni(16, 8);
    expectMulticastMatchesSends(multi, uni, 16);
}

TEST(IdealCrossbar, HasNoPerLinkStats)
{
    IdealCrossbar xbar(16, 8);
    xbar.send(0, 15, 72, MsgClass::Data, 0);
    EXPECT_TRUE(xbar.linkStats().empty());
}

} // namespace vsnoop::test
