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
    vsnoop_assert(linkBytes_ >= 1, "link width must be positive");
    widthPow2_ = (width_ & (width_ - 1)) == 0;
    widthShift_ = static_cast<std::uint32_t>(std::countr_zero(width_));
    linkBytesPow2_ = (linkBytes_ & (linkBytes_ - 1)) == 0;
    flitShift_ = static_cast<std::uint32_t>(std::countr_zero(linkBytes_));
    links_.assign(static_cast<std::size_t>(numNodes()) * kLinkStride,
                  LinkState{});
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

Tick
Mesh::send(NodeId src, NodeId dst, std::uint32_t bytes, MsgClass cls,
           Tick now, Tick *queueWait)
{
    vsnoop_assert(src < numNodes() && dst < numNodes(),
                  "node out of range: src=", src, " dst=", dst);

    auto ci = static_cast<std::size_t>(cls);
    std::uint32_t hops = hopCount(src, dst);
    std::uint32_t flits = flitsFor(bytes);
    std::uint64_t linkBytesCarried =
        static_cast<std::uint64_t>(flits) * linkBytes_;
    stats_.messages[ci].inc();
    stats_.bytes[ci].inc(bytes);
    stats_.byteHops[ci].inc(linkBytesCarried *
                            std::max<std::uint32_t>(hops, 1));

    if (src == dst) {
        // The aggregate metric charged one hop; the loopback
        // pseudo-link absorbs it so per-link sums conserve the
        // aggregate (see LinkStat).
        links_[linkIndex(src, Local)].byteHops[ci] += linkBytesCarried;
        return now + localLatency_;
    }
    Tick occupancy = static_cast<Tick>(flits) * linkLatency_;

    // Walk the XY path, reserving each directed link for the
    // message's serialization time.  The head's arrival at the next
    // router is delayed by both the pipeline and any link backlog.
    // XY routing fixes the direction per leg, so each leg advances
    // the link index by a constant stride instead of re-deriving
    // (node, direction) coordinates per hop.
    std::uint32_t x = nodeX(src);
    std::uint32_t y = nodeY(src);
    std::uint32_t dst_x = nodeX(dst);
    std::uint32_t dst_y = nodeY(dst);
    Tick head = now;
    auto walkLeg = [&](std::size_t idx, std::ptrdiff_t stride,
                       std::uint32_t steps) {
        if (perf_ != nullptr)
            perf_->legLength.sample(steps);
        for (std::uint32_t s = 0; s < steps; ++s) {
            LinkState &link = links_[idx];
            Tick ready = head + routerPipeline_;
            if (link.free > ready) {
                link.waitCycles += link.free - ready;
                if (queueWait != nullptr)
                    *queueWait += link.free - ready;
            }
            // Zero-wait hops land in bucket 0, so the histogram is
            // the full backlog distribution, not just its tail.
            if (perf_ != nullptr)
                perf_->sendBacklog.sample(
                    link.free > ready ? link.free - ready : 0);
            Tick start = std::max(ready, link.free);
            link.free = start + occupancy;
            link.byteHops[ci] += linkBytesCarried;
            link.busyCycles += occupancy;
            head = start + linkLatency_;
            idx = static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(idx) + stride);
        }
    };
    if (x != dst_x) {
        Direction dir = x < dst_x ? East : West;
        std::ptrdiff_t step = x < dst_x ? 1 : -1;
        std::uint32_t steps = x < dst_x ? dst_x - x : x - dst_x;
        walkLeg(linkIndex(nodeAt(x, y), dir),
                step * static_cast<std::ptrdiff_t>(kLinkStride), steps);
    }
    if (y != dst_y) {
        Direction dir = y < dst_y ? North : South;
        std::ptrdiff_t step = y < dst_y ? static_cast<std::ptrdiff_t>(width_)
                                        : -static_cast<std::ptrdiff_t>(width_);
        std::uint32_t steps = y < dst_y ? dst_y - y : y - dst_y;
        walkLeg(linkIndex(nodeAt(dst_x, y), dir),
                step * static_cast<std::ptrdiff_t>(kLinkStride), steps);
    }
    // Tail flits trail the head on the final link.
    return head + (flits - 1) * linkLatency_;
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
