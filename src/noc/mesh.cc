#include "noc/mesh.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/perfmon.hh"

namespace vsnoop
{

Mesh::Mesh(const MeshConfig &config)
    : width_(config.width), height_(config.height),
      linkBytes_(config.linkBytes), routerPipeline_(config.routerPipeline),
      linkLatency_(config.linkLatency), localLatency_(config.localLatency)
{
    vsnoop_assert(width_ >= 1 && height_ >= 1, "degenerate mesh");
    vsnoop_assert(std::uint64_t{width_} * height_ <= kMaxNodes,
                  "mesh ", width_, "x", height_, " has more than ",
                  kMaxNodes, " nodes");
    vsnoop_assert(linkBytes_ >= 1, "link width must be positive");
    widthPow2_ = (width_ & (width_ - 1)) == 0;
    widthShift_ = static_cast<std::uint32_t>(std::countr_zero(width_));
    linkBytesPow2_ = (linkBytes_ & (linkBytes_ - 1)) == 0;
    flitShift_ = static_cast<std::uint32_t>(std::countr_zero(linkBytes_));
    links_.assign(static_cast<std::size_t>(numNodes()) * kLinkStride,
                  LinkState{});
    legTally_.assign(std::max(width_, height_), 0);

    // XY routing: the X leg runs along the source's row to the
    // destination's column, then the Y leg runs up or down that
    // column.
    std::uint32_t nodes = numNodes();
    routes_.resize(static_cast<std::size_t>(nodes) * nodes);
    for (NodeId src = 0; src < nodes; ++src) {
        for (NodeId dst = 0; dst < nodes; ++dst) {
            Route &r = routes_[static_cast<std::size_t>(src) * nodes + dst];
            r.first = static_cast<std::uint32_t>(routeLinks_.size());
            NodeId at = src;
            auto walk = [&](Direction dir, std::uint32_t steps) {
                for (std::uint32_t s = 0; s < steps; ++s) {
                    routeLinks_.push_back(
                        static_cast<std::uint16_t>(linkIndex(at, dir)));
                    at = neighbor(at, dir);
                }
            };
            std::uint32_t x = nodeX(src), dst_x = nodeX(dst);
            std::uint32_t y = nodeY(src), dst_y = nodeY(dst);
            r.xHops =
                static_cast<std::uint16_t>(x < dst_x ? dst_x - x : x - dst_x);
            walk(x < dst_x ? East : West, r.xHops);
            walk(y < dst_y ? North : South,
                 y < dst_y ? dst_y - y : y - dst_y);
            r.hops = static_cast<std::uint16_t>(routeLinks_.size() - r.first);
        }
    }
}

std::size_t
Mesh::linkIndex(NodeId from, Direction dir) const
{
    return static_cast<std::size_t>(from) * kLinkStride + dir;
}

NodeId
Mesh::neighbor(NodeId from, Direction dir) const
{
    std::uint32_t x = nodeX(from);
    std::uint32_t y = nodeY(from);
    switch (dir) {
      case East:
        return x + 1 < width_ ? nodeAt(x + 1, y) : kInvalidNode;
      case West:
        return x > 0 ? nodeAt(x - 1, y) : kInvalidNode;
      case North:
        return y + 1 < height_ ? nodeAt(x, y + 1) : kInvalidNode;
      case South:
        return y > 0 ? nodeAt(x, y - 1) : kInvalidNode;
      case Local:
        return from;
    }
    return kInvalidNode;
}

std::uint32_t
Mesh::flitsFor(std::uint32_t bytes) const
{
    std::uint32_t rounded = bytes + linkBytes_ - 1;
    std::uint32_t flits =
        linkBytesPow2_ ? rounded >> flitShift_ : rounded / linkBytes_;
    return std::max<std::uint32_t>(1, flits);
}

std::uint32_t
Mesh::hopCount(NodeId src, NodeId dst) const
{
    auto dx = static_cast<std::int32_t>(nodeX(dst)) -
              static_cast<std::int32_t>(nodeX(src));
    auto dy = static_cast<std::int32_t>(nodeY(dst)) -
              static_cast<std::int32_t>(nodeY(src));
    return static_cast<std::uint32_t>(std::abs(dx) + std::abs(dy));
}

Tick
Mesh::unloadedLatency(NodeId src, NodeId dst, std::uint32_t bytes) const
{
    if (src == dst)
        return localLatency_;
    std::uint32_t hops = hopCount(src, dst);
    std::uint32_t flits = flitsFor(bytes);
    // Wormhole: head flit pays the full pipeline per hop; the tail
    // follows one link cycle per extra flit.
    return hops * (routerPipeline_ + linkLatency_) +
           (flits - 1) * linkLatency_;
}

Mesh::Charge
Mesh::chargeFor(std::uint32_t bytes, MsgClass cls) const
{
    std::uint32_t flits = flitsFor(bytes);
    return {static_cast<std::size_t>(cls), flits,
            static_cast<Tick>(flits) * linkLatency_,
            static_cast<std::uint64_t>(flits) * linkBytes_};
}

template <bool kPerf>
Tick
Mesh::deliver(NodeId src, NodeId dst, const Charge &charge, Tick now,
              Tick &wait, std::uint64_t &hops)
{
    if (src == dst) {
        // The aggregate metric charges one hop; the loopback
        // pseudo-link absorbs it so per-link sums conserve the
        // aggregate (see LinkStat).
        links_[linkIndex(src, Local)].byteHops[charge.cls] += charge.carried;
        hops += 1;
        return now + localLatency_;
    }
    const Route &r = route(src, dst);
    hops += r.hops;
    if constexpr (kPerf) {
        legTally_[r.xHops]++;
        legTally_[r.hops - r.xHops]++;
    }
    // Reserve each directed link on the path for the message's
    // serialization time.  The head's arrival at the next router is
    // delayed by both the pipeline and any link backlog.
    const std::uint16_t *path = routeLinks_.data() + r.first;
    Tick head = now;
    for (std::uint32_t h = 0; h < r.hops; ++h) {
        LinkState &link = links_[path[h]];
        Tick ready = head + routerPipeline_;
        Tick backlog = link.free > ready ? link.free - ready : 0;
        link.waitCycles += backlog;
        wait += backlog;
        // Zero-wait hops land in bucket 0 (tallied for foldPerf()),
        // so the histogram is the full backlog distribution, not just
        // its tail.
        if constexpr (kPerf) {
            if (backlog == 0)
                idleHops_++;
            else
                perf_->sendBacklog.sample(backlog);
        }
        Tick start = ready + backlog;
        link.free = start + charge.occupancy;
        link.byteHops[charge.cls] += charge.carried;
        link.busyCycles += charge.occupancy;
        head = start + linkLatency_;
    }
    // Tail flits trail the head on the final link.
    return head + (charge.flits - 1) * linkLatency_;
}

Tick
Mesh::send(NodeId src, NodeId dst, std::uint32_t bytes, MsgClass cls,
           Tick now, Tick *queueWait)
{
    vsnoop_assert(src < numNodes() && dst < numNodes(),
                  "node out of range: src=", src, " dst=", dst);
    Charge charge = chargeFor(bytes, cls);
    Tick wait = 0;
    std::uint64_t hops = 0;
    Tick arrive = 0;
    if (perf_ != nullptr) {
        arrive = deliver<true>(src, dst, charge, now, wait, hops);
        foldPerf();
    } else {
        arrive = deliver<false>(src, dst, charge, now, wait, hops);
    }
    stats_.messages[charge.cls].inc();
    stats_.bytes[charge.cls].inc(bytes);
    stats_.byteHops[charge.cls].inc(charge.carried * hops);
    if (queueWait != nullptr)
        *queueWait += wait;
    return arrive;
}

void
Mesh::multicast(NodeId src, std::uint64_t dsts, std::uint32_t bytes,
                MsgClass cls, Tick now, Tick *arrive, Tick *queueWait)
{
    vsnoop_assert(src < numNodes() &&
                      (numNodes() >= 64 || dsts >> numNodes() == 0),
                  "node out of range: src=", src, " dsts=", dsts);
    Charge charge = chargeFor(bytes, cls);
    Tick wait = 0;
    std::uint64_t hops = 0;
    auto copies = static_cast<std::uint64_t>(std::popcount(dsts));
    if (perf_ != nullptr) {
        for (; dsts != 0; dsts &= dsts - 1) {
            auto dst = static_cast<NodeId>(std::countr_zero(dsts));
            *arrive++ = deliver<true>(src, dst, charge, now, wait, hops);
        }
        foldPerf();
    } else {
        for (; dsts != 0; dsts &= dsts - 1) {
            auto dst = static_cast<NodeId>(std::countr_zero(dsts));
            *arrive++ = deliver<false>(src, dst, charge, now, wait, hops);
        }
    }
    stats_.messages[charge.cls].inc(copies);
    stats_.bytes[charge.cls].inc(bytes * copies);
    stats_.byteHops[charge.cls].inc(charge.carried * hops);
    if (queueWait != nullptr)
        *queueWait += wait;
}

void
Mesh::foldPerf()
{
    // Slot 0 counts the empty legs of straight paths: no sample.
    for (std::size_t len = 1; len < legTally_.size(); ++len) {
        perf_->legLength.sample(len, legTally_[len]);
        legTally_[len] = 0;
    }
    legTally_[0] = 0;
    perf_->sendBacklog.sample(0, idleHops_);
    idleHops_ = 0;
}

std::vector<LinkStat>
Mesh::linkStats() const
{
    std::vector<LinkStat> out;
    out.reserve(links_.size());
    for (NodeId n = 0; n < numNodes(); ++n) {
        for (std::size_t d = 0; d < kLinkStride; ++d) {
            auto dir = static_cast<Direction>(d);
            NodeId to = neighbor(n, dir);
            if (to == kInvalidNode)
                continue;
            const LinkState &link = links_[linkIndex(n, dir)];
            LinkStat stat;
            stat.from = n;
            stat.to = to;
            for (std::size_t c = 0; c < kNumMsgClasses; ++c)
                stat.byteHops[c] = link.byteHops[c];
            stat.busyCycles = link.busyCycles;
            stat.waitCycles = link.waitCycles;
            out.push_back(stat);
        }
    }
    return out;
}

void
Mesh::resetStats()
{
    Network::resetStats();
    // Accounting only: the contention horizon (free) is protocol
    // state and must survive the warmup boundary untouched.
    for (LinkState &link : links_) {
        std::fill(std::begin(link.byteHops), std::end(link.byteHops),
                  std::uint64_t{0});
        link.busyCycles = 0;
        link.waitCycles = 0;
    }
}

IdealCrossbar::IdealCrossbar(std::uint32_t num_nodes, Tick latency,
                             std::uint32_t link_bytes)
    : numNodes_(num_nodes), latency_(latency), linkBytes_(link_bytes)
{
    vsnoop_assert(num_nodes >= 1, "crossbar needs at least one node");
}

Tick
IdealCrossbar::send(NodeId src, NodeId dst, std::uint32_t bytes,
                    MsgClass cls, Tick now,
                    Tick * /* queueWait: contention-free, never waits */)
{
    vsnoop_assert(src < numNodes_ && dst < numNodes_,
                  "node out of range: src=", src, " dst=", dst);
    auto ci = static_cast<std::size_t>(cls);
    std::uint32_t flits =
        std::max<std::uint32_t>(1, (bytes + linkBytes_ - 1) / linkBytes_);
    stats_.messages[ci].inc();
    stats_.bytes[ci].inc(bytes);
    // A crossbar is a single hop regardless of endpoints.
    stats_.byteHops[ci].inc(static_cast<std::uint64_t>(flits) *
                            linkBytes_);
    return now + latency_ + (flits - 1);
}

} // namespace vsnoop
