/**
 * @file
 * Abstract on-chip network interface.
 *
 * The coherence layer talks to the network purely in terms of
 * "deliver this many bytes from node A to node B, tell me when it
 * arrives".  Two implementations exist: the 4x4 2D mesh matching
 * the paper's Garnet configuration (Table II), and an idealized
 * crossbar used for the network-sensitivity ablation.
 *
 * Traffic accounting matches the paper's Table IV metric: the total
 * amount of data transferred through the network, i.e. message
 * bytes multiplied by the number of links each message traverses.
 */

#ifndef VSNOOP_NOC_NETWORK_HH_
#define VSNOOP_NOC_NETWORK_HH_

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace vsnoop
{

/** Node index on the network (cores and memory controllers). */
using NodeId = std::uint32_t;

/** Sentinel node id: "no node". */
constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/**
 * Message classes, for per-class traffic accounting.
 */
enum class MsgClass : std::uint8_t
{
    /** Coherence request (transient / persistent snoop). */
    Request,
    /** Token or ack response without data. */
    Response,
    /** Data-bearing response or writeback. */
    Data,
    /** vCPU map synchronization and other control traffic. */
    Control,
};

/** Number of MsgClass values. */
constexpr std::size_t kNumMsgClasses = 4;

/**
 * Per-class and aggregate traffic statistics.
 */
struct NetworkStats
{
    Counter messages[kNumMsgClasses];
    Counter bytes[kNumMsgClasses];
    /**
     * Link occupancy weighted by hop count: flits * link width *
     * hops.  This is the Table IV traffic metric — what the wires
     * actually carry, including flit padding of small messages.
     */
    Counter byteHops[kNumMsgClasses];

    std::uint64_t
    totalMessages() const
    {
        std::uint64_t sum = 0;
        for (const auto &c : messages)
            sum += c.value();
        return sum;
    }

    std::uint64_t
    totalByteHops() const
    {
        std::uint64_t sum = 0;
        for (const auto &c : byteHops)
            sum += c.value();
        return sum;
    }
};

/**
 * Per-directed-link traffic snapshot, for spatial heatmaps.
 *
 * The aggregate byteHops metric charges node-local delivery
 * (src == dst) one hop even though no physical link is traversed;
 * so that per-link accounting conserves the aggregate exactly,
 * each node also exposes a loopback pseudo-link (from == to) that
 * absorbs the local-delivery charge.  Loopback entries never carry
 * busy or wait cycles — local delivery is uncontended in the
 * timing model.
 */
struct LinkStat
{
    NodeId from = 0;
    /** Downstream node; equal to @p from for the loopback entry. */
    NodeId to = 0;
    /** Bytes carried (flit-padded), per message class. */
    std::uint64_t byteHops[kNumMsgClasses] = {};
    /** Cycles the link spent serializing flits. */
    std::uint64_t busyCycles = 0;
    /** Cycles messages waited for this link behind earlier traffic. */
    std::uint64_t waitCycles = 0;

    std::uint64_t
    totalByteHops() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t b : byteHops)
            sum += b;
        return sum;
    }
};

/**
 * Network interface.
 */
class Network
{
  public:
    virtual ~Network() = default;

    /**
     * Send @p bytes from @p src to @p dst, departing at @p now.
     *
     * @param queueWait When non-null, the cycles the message waited
     *        for busy links along its path, on top of the unloaded
     *        latency, are added to it.  The critical-path layer
     *        aggregates them per message class (trace/critpath.hh).
     *        Reporting only: it never changes delivery timing.
     * @return Tick at which the last flit arrives at @p dst.
     */
    virtual Tick send(NodeId src, NodeId dst, std::uint32_t bytes,
                      MsgClass cls, Tick now,
                      Tick *queueWait = nullptr) = 0;

    /**
     * Send one message of @p bytes from @p src to every node in
     * @p dsts (bit n set = node n, so nodes below 64), departing at
     * @p now.  It makes exactly the reservations and counter updates
     * of one send() per destination in ascending node order, and
     * writes the rank-r destination's arrival tick to @p arrive[r].
     * @p queueWait sums the waits of all the sends.
     */
    virtual void
    multicast(NodeId src, std::uint64_t dsts, std::uint32_t bytes,
              MsgClass cls, Tick now, Tick *arrive,
              Tick *queueWait = nullptr)
    {
        for (; dsts != 0; dsts &= dsts - 1) {
            auto dst = static_cast<NodeId>(std::countr_zero(dsts));
            *arrive++ = send(src, dst, bytes, cls, now, queueWait);
        }
    }

    /** Number of network nodes. */
    virtual std::uint32_t numNodes() const = 0;

    /** Traffic statistics (accumulated across all sends). */
    const NetworkStats &stats() const { return stats_; }

    /**
     * Per-link traffic snapshot in a deterministic (node-major)
     * order.  Empty for networks that do not model individual
     * links.  For networks that do, summing byteHops over all
     * entries (loopbacks included) reproduces the aggregate
     * byteHops for every message class.
     */
    virtual std::vector<LinkStat> linkStats() const { return {}; }

    /** Reset traffic statistics (e.g. after warmup). */
    virtual void resetStats() { stats_ = NetworkStats{}; }

  protected:
    NetworkStats stats_;
};

} // namespace vsnoop

#endif // VSNOOP_NOC_NETWORK_HH_
