/**
 * @file
 * 2D mesh network with XY routing and link contention.
 *
 * Models the paper's interconnect (Table II): a 4x4 mesh with
 * 16-byte links and a 4-cycle router pipeline.  Messages are
 * wormhole-routed: latency is hops * (router pipeline + link
 * traversal) plus serialization of the remaining flits, and each
 * traversed link is occupied for one cycle per flit.  Contention is
 * modelled by per-link busy-until times: a message departing while
 * a link on its path is busy waits for the link to free.
 *
 * This is deliberately lighter than a flit-level Garnet model, but
 * it preserves the two quantities the paper's evaluation depends
 * on: per-message latency as a function of distance and load, and
 * exact byte-hop traffic accounting.
 *
 * Every (src, dst) XY path is computed once, at construction, as a
 * list of link indices; a send walks its list.  A snoop multicast
 * walks one list per destination and computes the message's flits,
 * occupancy and counter updates once.
 */

#ifndef VSNOOP_NOC_MESH_HH_
#define VSNOOP_NOC_MESH_HH_

#include <vector>

#include "noc/network.hh"

namespace vsnoop
{

struct MeshPerf;

/**
 * Mesh configuration knobs.
 */
struct MeshConfig
{
    std::uint32_t width = 4;
    std::uint32_t height = 4;
    /** Link width in bytes (flit size). */
    std::uint32_t linkBytes = 16;
    /** Router pipeline depth in cycles. */
    Tick routerPipeline = 4;
    /** Cycles for a flit to traverse one link. */
    Tick linkLatency = 1;
    /** Latency for node-local delivery (src == dst). */
    Tick localLatency = 1;
};

/**
 * The 2D mesh.
 */
class Mesh : public Network
{
  public:
    explicit Mesh(const MeshConfig &config);

    Tick send(NodeId src, NodeId dst, std::uint32_t bytes,
              MsgClass cls, Tick now,
              Tick *queueWait = nullptr) override;

    void multicast(NodeId src, std::uint64_t dsts, std::uint32_t bytes,
                   MsgClass cls, Tick now, Tick *arrive,
                   Tick *queueWait = nullptr) override;

    std::uint32_t numNodes() const override { return width_ * height_; }

    /**
     * Every physical directed link plus one loopback pseudo-link
     * per node (see LinkStat), node-major, directions in
     * East/West/North/South/Local order with off-grid boundary
     * links omitted.
     */
    std::vector<LinkStat> linkStats() const override;

    void resetStats() override;

    std::uint32_t width() const { return width_; }
    std::uint32_t height() const { return height_; }

    /** Manhattan hop count between two nodes under XY routing. */
    std::uint32_t hopCount(NodeId src, NodeId dst) const;

    /**
     * Unloaded latency of a message (no contention), for tests and
     * analytic checks.
     */
    Tick unloadedLatency(NodeId src, NodeId dst, std::uint32_t bytes) const;

    /**
     * Attach an internals counter block (sim/perfmon.hh); nullptr
     * detaches.  Branch-on-null: a send or multicast pays one
     * predictable branch per call when detached.
     */
    void setPerf(MeshPerf *perf) { perf_ = perf; }

  private:
    /**
     * Directed link from @p node toward +x / -x / +y / -y, plus the
     * loopback pseudo-link for node-local delivery.
     */
    enum Direction : std::uint8_t { East, West, North, South, Local };

    /** Directions per node in the link arrays (incl. Local). */
    static constexpr std::size_t kLinkStride = 5;

    /**
     * Largest mesh: the route table holds nodes^2 paths, under 2 MB
     * at 256 nodes, and its 16-bit link indices stay in range.
     */
    static constexpr std::uint32_t kMaxNodes = 256;

    /**
     * All per-link state — the contention horizon plus the traffic
     * accumulators behind the linkStats() snapshot — merged and
     * aligned so the send loop touches exactly one cache line per
     * hop (56 bytes used of the 64-byte line).
     */
    struct alignas(64) LinkState
    {
        /** Earliest tick this directed link is free. */
        Tick free = 0;
        std::uint64_t byteHops[kNumMsgClasses] = {};
        std::uint64_t busyCycles = 0;
        std::uint64_t waitCycles = 0;
    };

    // Shipped geometries have power-of-two widths and link widths;
    // the shift/mask fast paths keep integer division off the
    // per-message path (division fallback for odd test meshes).
    std::uint32_t nodeX(NodeId n) const {
        return widthPow2_ ? n & (width_ - 1) : n % width_;
    }
    std::uint32_t nodeY(NodeId n) const {
        return widthPow2_ ? n >> widthShift_ : n / width_;
    }
    NodeId nodeAt(std::uint32_t x, std::uint32_t y) const {
        return y * width_ + x;
    }

    std::size_t linkIndex(NodeId from, Direction dir) const;

    /** Downstream node of a link; kInvalidNode when off-grid. */
    NodeId neighbor(NodeId from, Direction dir) const;

    /** Flits needed for a message of @p bytes. */
    std::uint32_t flitsFor(std::uint32_t bytes) const;

    /**
     * One (src, dst) XY path: @p hops link indices starting at
     * routeLinks_[first], the X leg's @p xHops of them first.
     */
    struct Route
    {
        std::uint32_t first = 0;
        std::uint16_t hops = 0;
        std::uint16_t xHops = 0;
    };

    const Route &
    route(NodeId src, NodeId dst) const
    {
        return routes_[static_cast<std::size_t>(src) * numNodes() + dst];
    }

    /** What one message costs each link it crosses. */
    struct Charge
    {
        /** MsgClass index. */
        std::size_t cls;
        std::uint32_t flits;
        /** Cycles the message holds each link. */
        Tick occupancy;
        /** Flit-padded bytes charged to each link. */
        std::uint64_t carried;
    };

    Charge chargeFor(std::uint32_t bytes, MsgClass cls) const;

    /**
     * Deliver one message from @p src to @p dst, reserving each link
     * on its path, and return the tail's arrival tick.  Adds the
     * backlog cycles to @p wait and the byteHops hop count (1 for
     * local delivery) to @p hops; the caller bumps the class
     * counters.  kPerf (perf_ attached; a separate instantiation keeps
     * the detached walk free of per-hop branches) samples leg lengths
     * and per-hop backlog, tallying the repeated values for
     * foldPerf().
     */
    template <bool kPerf>
    Tick deliver(NodeId src, NodeId dst, const Charge &charge, Tick now,
                 Tick &wait, std::uint64_t &hops);

    /**
     * Fold the samples deliver<true>() tallied into perf_: leg lengths
     * and zero-backlog hops are counted per value first, because a
     * multicast repeats them many times over.
     */
    void foldPerf();

    std::uint32_t width_;
    std::uint32_t height_;
    std::uint32_t linkBytes_;
    /** @{ Power-of-two fast-path state (see nodeX/flitsFor). */
    bool widthPow2_;
    bool linkBytesPow2_;
    std::uint32_t widthShift_;
    std::uint32_t flitShift_;
    /** @} */
    Tick routerPipeline_;
    Tick linkLatency_;
    Tick localLatency_;
    /** Per-link contention + accounting, node-major by direction. */
    std::vector<LinkState> links_;
    /** [src * numNodes() + dst]; empty paths for src == dst. */
    std::vector<Route> routes_;
    /** Every route's link indices, src-major. */
    std::vector<std::uint16_t> routeLinks_;
    MeshPerf *perf_ = nullptr;
    /** @{ Samples tallied for foldPerf(): legs by length, and hops
     *  that found their link free. */
    std::vector<std::uint64_t> legTally_;
    std::uint64_t idleHops_ = 0;
    /** @} */
};

/**
 * Idealized contention-free crossbar: fixed latency between any two
 * nodes.  Used by the network ablation benchmark to separate
 * protocol effects from topology effects.
 */
class IdealCrossbar : public Network
{
  public:
    IdealCrossbar(std::uint32_t num_nodes, Tick latency,
                  std::uint32_t link_bytes = 16);

    Tick send(NodeId src, NodeId dst, std::uint32_t bytes,
              MsgClass cls, Tick now,
              Tick *queueWait = nullptr) override;

    std::uint32_t numNodes() const override { return numNodes_; }

  private:
    std::uint32_t numNodes_;
    Tick latency_;
    std::uint32_t linkBytes_;
};

} // namespace vsnoop

#endif // VSNOOP_NOC_MESH_HH_
