/**
 * @file
 * Unit tests for the 2D mesh and the ideal crossbar.
 */

#include <gtest/gtest.h>

#include "noc/mesh.hh"

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

TEST(IdealCrossbar, HasNoPerLinkStats)
{
    IdealCrossbar xbar(16, 8);
    xbar.send(0, 15, 72, MsgClass::Data, 0);
    EXPECT_TRUE(xbar.linkStats().empty());
}

} // namespace vsnoop::test
