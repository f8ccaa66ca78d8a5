/**
 * @file
 * Critical-path latency attribution and inter-VM interference
 * accounting.
 *
 * The aggregate latency histograms (PR 3) say how long transactions
 * took; they cannot say *where inside a transaction* the cycles
 * went, nor *whose caches* absorbed another VM's snoops — which is
 * exactly the isolation property the paper argues for.  This layer
 * answers both:
 *
 *  - Every miss carries a segment timeline.  The controller keeps a
 *    per-MSHR cursor (`segMark`) that sweeps from issue to
 *    completion; every interval of simulated time between those two
 *    points is charged to exactly one CritSegment, so the segment
 *    sum equals the end-to-end latency *by construction* (asserted
 *    on every completion).  Response messages carry the two
 *    intermediate stamps the decomposition needs: when the request
 *    reached the responder (reqArrive) and when the response left
 *    it (depart).
 *
 *  - An inter-VM interference matrix counts, for every
 *    requester-VM x target-VM pair, the snoop lookups induced, the
 *    tag-port cycles they occupied, and the data bytes delivered
 *    cache-to-cache.  Row/column index numVms is the host row:
 *    hypervisor requesters and snoops landing on cores not
 *    currently running any vCPU.  Diagonal entries are a VM
 *    snooping itself (the virtual-snooping ideal); everything
 *    off-diagonal is interference.
 *
 * Like TraceSink, this class references only the header-only
 * protocol types (coherence/protocol.hh), so the coherence library
 * can depend on it without a cycle.  The accountant follows the
 * one-system-per-thread contract (system/sim_system.hh).
 */

#ifndef VSNOOP_TRACE_CRITPATH_HH_
#define VSNOOP_TRACE_CRITPATH_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/protocol.hh"
#include "noc/network.hh"
#include "sim/core_set.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vsnoop
{

/**
 * The segments a transaction's end-to-end latency decomposes into.
 * Order matters only for display; the conservation property is
 * per-transaction: the seven segment values always sum to the
 * completion latency.
 */
enum class CritSegment : std::uint8_t
{
    /** Issue-side queueing before the first attempt departs. */
    MshrWait,
    /** Request traversal: first-attempt issue to snoop arrival. */
    ReqTraversal,
    /** Responder-side occupancy: snoop arrival to response depart
     *  (memory access time; cache tag lookups respond in-tick). */
    SnoopLookup,
    /** Waiting on further token responses after the first. */
    TokenCollect,
    /** Dead time inside failed transient windows (retries). */
    RetryBackoff,
    /** Arbiter wait + persistent re-broadcast windows. */
    PersistentEscalation,
    /** Data response in flight, plus the final L2 fill. */
    DataReturn,
};

/** Number of CritSegment values. */
constexpr std::size_t kNumCritSegments = 7;

/** Machine name ("mshr_wait", "req_traversal", ...). */
const char *critSegmentName(CritSegment segment);

/** A compact (count, sum-of-ticks) accumulation cell. */
struct CritPathCell
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    double
    mean() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }
};

/**
 * End-of-run copy of the segment attribution, embedded in
 * SystemResults.
 */
struct CritPathSnapshot
{
    /** Full per-segment histograms over all transactions. */
    LatencyHistogram segments[kNumCritSegments];
    /** Per-FilterReason segment sums (count = transactions). */
    CritPathCell byReason[kNumCritSegments][kNumFilterReasons];
    /** Rows in byVm: numVms + 1 (the last row is the host). */
    std::uint32_t vmRows = 0;
    /** Per-requesting-VM segment sums, [seg * vmRows + row]. */
    std::vector<CritPathCell> byVm;
    /** NoC queue-wait cycles observed by sends, per MsgClass. */
    std::uint64_t nocWaitCycles[kNumMsgClasses] = {};

    const CritPathCell &
    vmCell(std::size_t seg, std::uint32_t row) const
    {
        return byVm[seg * vmRows + row];
    }
};

/**
 * End-of-run copy of the interference matrices, embedded in
 * SystemResults.  All matrices are dim x dim, row-major,
 * [requester VM][target VM], with row/column dim-1 the host.
 */
struct InterferenceSnapshot
{
    std::uint32_t dim = 0;
    std::vector<std::uint64_t> snoopLookups;
    std::vector<std::uint64_t> tagBusyCycles;
    std::vector<std::uint64_t> bytesDelivered;

    std::uint64_t
    at(const std::vector<std::uint64_t> &m, std::uint32_t requester,
       std::uint32_t target) const
    {
        return m[static_cast<std::size_t>(requester) * dim + target];
    }

    std::uint64_t total(const std::vector<std::uint64_t> &m) const;
    std::uint64_t offDiagonal(const std::vector<std::uint64_t> &m) const;

    /** Fraction of snoop lookups landing outside the requester's
     *  own VM (0 with no lookups). */
    double offDiagLookupShare() const;
};

/** Display label for a matrix row ("vm0".."vmN-1", then "host"). */
std::string vmRowLabel(std::uint32_t row, std::uint32_t dim);

/**
 * The live accountant.  CoherenceSystem owns one by value, so it is
 * always on: unlike a bounded trace ring, the attribution must cover
 * every transaction for its conservation and reconciliation
 * invariants to be exact.  Every snoop lookup is charged next to the
 * CoherenceStats::snoopLookups counter: the requester's own tag check
 * in CoherenceSystem::chargeLookup(), a multicast's remote lookups in
 * CoherenceSystem::sendSnoops().
 */
class CritPathAccountant
{
  public:
    /**
     * @param num_vms Guest VMs; the matrices get one extra
     *        host row/column.
     * @param tag_lookup_cycles Tag-port occupancy charged per snoop
     *        lookup (accounting only; no timing effect).
     */
    CritPathAccountant(std::uint32_t num_vms, Tick tag_lookup_cycles);

    /**
     * Fold one completed transaction's segment timeline in.
     * Asserts the conservation invariant: the segments must sum to
     * @p end_to_end exactly.
     */
    void recordTransaction(const std::uint64_t (&seg)[kNumCritSegments],
                           std::uint64_t end_to_end, FilterReason reason,
                           VmId vm);

    /**
     * One snoop lookup that @p requester induced on a core running
     * @p holder (kInvalidVm for an idle core: the host column).  The
     * requester's own tag check is the diagonal, holder == requester.
     */
    void lookup(VmId requester, VmId holder);

    /**
     * lookup() for each core of @p targets, the holder being
     * @p coreVm[core] (every core idle when @p coreVm is nullptr).
     */
    void lookups(VmId requester, CoreSet targets, const VmId *coreVm);

    /** A cache-to-cache data response reaching @p requester. */
    void bytesDelivered(VmId requester, VmId source,
                        std::uint64_t bytes);

    /** Queue-wait cycles a network send observed along its path. */
    void
    nocWait(MsgClass cls, Tick wait)
    {
        nocWaitCycles_[static_cast<std::size_t>(cls)] += wait;
    }

    /** Zero all accounting (warmup boundary). */
    void resetStats();

    /** Matrix dimension: numVms + 1. */
    std::uint32_t dim() const { return dim_; }

    /** Matrix row a VM id maps to (out-of-range ids -> host row). */
    std::uint32_t
    rowFor(VmId vm) const
    {
        return vm < dim_ - 1 ? vm : dim_ - 1;
    }

    std::uint64_t
    lookupAt(std::uint32_t requester, std::uint32_t target) const
    {
        return snoopLookups_[static_cast<std::size_t>(requester) * dim_ +
                             target];
    }

    CritPathSnapshot critSnapshot() const;
    InterferenceSnapshot interferenceSnapshot() const;

    /** @{ Registry-facing totals (SimSystem::registerStats). */
    /** Transactions folded in. */
    Counter transactions;
    /** Total ticks charged, per segment. */
    Counter segTotal[kNumCritSegments];
    /** Snoop lookups charged to the matrix / off the diagonal. */
    Counter lookupsTotal;
    Counter lookupsOffDiag;
    /** Cache-to-cache data bytes / off-diagonal portion. */
    Counter bytesTotal;
    Counter bytesOffDiag;
    /** @} */

  private:
    std::uint32_t dim_;
    Tick tagLookupCycles_;
    LatencyHistogram segments_[kNumCritSegments];
    CritPathCell byReason_[kNumCritSegments][kNumFilterReasons];
    /** [seg * dim_ + row]. */
    std::vector<CritPathCell> byVm_;
    /**
     * dim_ x dim_, row-major [requester][target].  The tag-busy
     * matrix is snoopLookups_ x tagLookupCycles_, so the snapshot
     * computes it.
     */
    std::vector<std::uint64_t> snoopLookups_;
    std::vector<std::uint64_t> bytesDelivered_;
    std::uint64_t nocWaitCycles_[kNumMsgClasses] = {};
};

} // namespace vsnoop

#endif // VSNOOP_TRACE_CRITPATH_HH_
