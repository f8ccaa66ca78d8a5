/**
 * @file
 * The chip-wide coherence system: controllers, memory, message
 * fabric, persistent-request arbitration and invariant checking.
 *
 * The system is the single place that touches the network: it
 * converts logical sends (a snoop multicast, response to requester,
 * tokens back to memory) into timed deliveries via EventQueue (a
 * snoop is scheduled only if its target could hit), and maintains
 * the in-flight token ledger that makes system-wide token
 * conservation checkable at any instant — the key safety property
 * of token coherence.
 */

#ifndef VSNOOP_COHERENCE_SYSTEM_HH_
#define VSNOOP_COHERENCE_SYSTEM_HH_

#include <memory>
#include <vector>

#include "coherence/controller.hh"
#include "coherence/policy.hh"
#include "coherence/protocol.hh"
#include "mem/main_memory.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "sim/flat_table.hh"
#include "trace/critpath.hh"

namespace vsnoop
{

class PageMon;
class TraceSink;

/**
 * Aggregated protocol statistics.
 */
struct CoherenceStats
{
    /** Coherence transactions (L2 misses and upgrades). */
    Counter transactions;
    Counter readTransactions;
    Counter writeTransactions;
    /** L2 demand hits. */
    Counter l2Hits;
    /**
     * Snoop lookups induced system-wide: one per transaction for
     * the requester's own tag check plus one per remote delivery.
     * This is the metric normalized in the paper's Figures 7/8.
     */
    Counter snoopLookups;
    /** Snoop requests delivered to remote cores. */
    Counter snoopsDelivered;
    /** Snoop requests delivered to memory controllers. */
    Counter memorySnoops;
    /** Transient retry attempts beyond the first. */
    Counter retries;
    /** Transactions that escalated to persistent requests. */
    Counter persistentRequests;
    /** Evictions that wrote dirty data back. */
    Counter dirtyWritebacks;
    /** Token messages bounced to memory with no waiting MSHR. */
    Counter bouncedResponses;
    /** Completed transactions by data source. */
    Counter dataFrom[kNumDataSources];
    /** Same, restricted to RO-shared (content-shared) lines. */
    Counter roDataFrom[kNumDataSources];
    /** Miss (transaction) latency in ticks. */
    Distribution missLatency;
    /** Miss latency restricted to RO-shared lines. */
    Distribution roMissLatency;
    /**
     * Log2-bucketed miss latency, one cell per (first attempt's
     * FilterReason, retried) pair; retried means the transaction
     * needed a second transient attempt or went persistent.  Each
     * completion samples one cell, and SimSystem::results() merges
     * cells into the all / by-reason / first-try / retried views.
     */
    LatencyHistogram latency[kNumFilterReasons][2];
};

/**
 * The coherence system.
 */
class CoherenceSystem
{
  public:
    /**
     * @param eq Simulation event queue.
     * @param network Interconnect (cores are nodes 0..N-1).
     * @param policy Snoop destination-set policy.
     * @param config Protocol timing/size knobs.
     * @param geometry Private L2 geometry.
     * @param num_vms VM count for the residence counter banks.
     */
    CoherenceSystem(EventQueue &eq, Network &network,
                    SnoopTargetPolicy &policy,
                    const ProtocolConfig &config,
                    const CacheGeometry &geometry, std::size_t num_vms);

    /** Issue a demand access from @p core at the current tick. */
    void access(CoreId core, const MemAccess &access,
                AccessCallback callback);

    CoherenceController &controller(CoreId core);
    const CoherenceController &controller(CoreId core) const;

    MainMemory &memory() { return memory_; }
    const MainMemory &memory() const { return memory_; }
    EventQueue &eventQueue() { return eq_; }
    const ProtocolConfig &config() const { return config_; }
    SnoopTargetPolicy &policy() { return policy_; }
    std::uint32_t numCores() const { return config_.numCores; }

    /** Establish the friend-VM pairing used for Table VI / Fig 10. */
    void setFriend(VmId vm, VmId friend_vm);

    /** Friend of @p vm, or kInvalidVm when none is configured. */
    VmId friendOf(VmId vm) const;

    /** @{ Message fabric, used by controllers. */
    /**
     * Multicast @p msg from core @p from to @p targets: one
     * Network::multicast() over the target cores, whose lookups are
     * all charged here, at send time.  Then, in ascending core order,
     * each target takes the next event-queue position.  A persistent
     * snoop, or one whose target's L2 holds the line now, is scheduled
     * there.  Any other snoop acts only if the line enters that L2
     * before it arrives, and a line enters an L2 only in
     * CoherenceController::installLine().  So it is recorded in the
     * multicast's SnoopFlight instead, and releaseSnoops() schedules
     * it at its reserved position if the line arrives first; otherwise
     * it expires unseen, as the miss it would have been.  A memory
     * snoop follows the cores' sends, is always scheduled and is not a
     * lookup.
     */
    void sendSnoops(CoreId from, const SnoopMsg &msg,
                    const SnoopTargets &targets);
    void sendResponseToCore(NodeId from_node, CoreId to,
                            const ResponseMsg &msg, Tick depart);
    void sendTokensToMemory(CoreId from, HostAddr line,
                            std::uint32_t tokens, bool owner,
                            bool dirty_data);
    /**
     * Charge a control message (e.g. vCPU-map synchronization) to
     * the network, without any protocol side effect.
     */
    void sendControl(NodeId from, NodeId to, std::uint32_t bytes);
    /** @} */

    /** @{ Persistent-request arbitration. */
    void requestPersistent(HostAddr line, CoreId core);
    void releasePersistent(HostAddr line, CoreId core);
    /** @} */

    /**
     * Attach (or detach, with nullptr) a transaction trace sink.
     * Controllers and policies emit lifecycle records through
     * trace(); the branch-on-null makes the hooks free when
     * tracing is off.  The sink must outlive the system.
     */
    void setTrace(TraceSink *sink) { trace_ = sink; }

    /** The active trace sink, or nullptr when tracing is off. */
    TraceSink *trace() const { return trace_; }

    /**
     * The trace sink for records about @p addr, or nullptr.  With
     * page watchpoints active (trace/pagemon.hh), transaction
     * records are suppressed for lines outside the watched pages so
     * a --watch-page run traces exactly the pages it asked for;
     * without watchpoints this is trace().  Lifecycle records
     * (vCPU-map and page events) keep using trace() unfiltered.
     */
    TraceSink *traceFor(HostAddr addr) const;

    /**
     * Attach (or detach, with nullptr) the page-level monitor
     * (trace/pagemon.hh).  chargeLookup() and sendSnoops() charge its
     * per-page counters behind a branch-on-null, next to
     * stats.snoopLookups,
     * so the top-K page totals reconcile with the counter and the
     * interference-matrix total at any instant; resetStats() resets
     * it alongside both.  The monitor must outlive the system.
     */
    void setPagemon(PageMon *pagemon) { pagemon_ = pagemon; }

    /** The active page monitor, or nullptr when detached. */
    PageMon *pagemon() const { return pagemon_; }

    /**
     * The per-core VM table (VcpuMapping::vmAtTable()) from which
     * sendSnoops() reads the VM of each snooped core.  Without
     * one, every snooped core counts as idle (the host column).
     * The table must outlive the system.
     */
    void setCoreVmTable(const VmId *table) { coreVm_ = table; }

    /**
     * The critical-path accountant (trace/critpath.hh), owned and
     * always on.  Controllers charge per-transaction segment
     * timelines and cache-to-cache bytes to it, the sends charge
     * NoC queue waits, and chargeLookup() and sendSnoops() charge the
     * interference matrix.  resetStats() resets it alongside the protocol
     * counters, so the matrix total stays equal to
     * CoherenceStats::snoopLookups.
     */
    CritPathAccountant &critpath() { return critpath_; }

    /**
     * Attach (or detach, with nullptr) the perfmon counter blocks
     * (sim/perfmon.hh) to the protocol's FlatMap tables: every
     * controller's MSHR table (one shared block — chip-aggregate
     * probe behavior), the in-flight token ledger, and main
     * memory's token ledger.  The block must outlive the system.
     */
    void
    setPerf(PerfMon *perf)
    {
        FlatTablePerf *mshr_perf = perf ? &perf->mshrs : nullptr;
        for (auto &controller : controllers_)
            controller->setMshrPerf(mshr_perf);
        inflight_.setPerf(perf ? &perf->inflight : nullptr);
        memory_.setLedgerPerf(perf ? &perf->memoryLedger : nullptr);
    }

    /** Interval-sampled table occupancy (perfmon sampler hook). */
    void
    samplePerfOccupancy(PerfMon &perf) const
    {
        std::uint64_t mshr_entries = 0;
        for (const auto &controller : controllers_)
            mshr_entries += controller->mshrCount();
        perf.mshrs.occupancy.sample(mshr_entries);
        perf.inflight.occupancy.sample(inflight_.size());
        perf.memoryLedger.occupancy.sample(memory_.ledgerSize());
    }

    /** End-of-run table size/capacity snapshot (perfmon results). */
    void
    capturePerfSizes(PerfMon &perf) const
    {
        perf.mshrs.endSize = 0;
        perf.mshrs.endCapacity = 0;
        for (const auto &controller : controllers_) {
            perf.mshrs.endSize += controller->mshrCount();
            perf.mshrs.endCapacity += controller->mshrCapacity();
        }
        perf.inflight.endSize = inflight_.size();
        perf.inflight.endCapacity = inflight_.capacity();
        perf.memoryLedger.endSize = memory_.ledgerSize();
        perf.memoryLedger.endCapacity = memory_.ledgerCapacity();
    }

    /**
     * Verify token conservation and owner uniqueness across caches,
     * memory, MSHRs and in-flight messages.  Panics on violation.
     */
    void checkInvariants() const;

    /**
     * Zero all protocol, memory and per-controller statistics
     * (warmup boundary).  Protocol state is untouched.
     */
    void resetStats();

    /** Mesh node hosting the memory controller for @p line. */
    NodeId memNodeFor(HostAddr line) const;

    CoherenceStats stats;

  private:
    friend class CoherenceController;

    /** Deliver a snoop at a memory controller. */
    void handleMemorySnoop(const SnoopMsg &msg);

    /**
     * network_.send, charging the queueing wait to the critical-path
     * accountant.  Not profiled on its own: the host profiler never
     * enters its Network phase, so send time falls in the caller's
     * phase.
     */
    Tick netSend(NodeId src, NodeId dst, std::uint32_t bytes,
                 MsgClass cls, Tick now);

    /**
     * Charge the requester's own tag check of @p line on a miss, which
     * runs on a core of the requesting VM: stats.snoopLookups, the
     * accountant's interference matrix and, when attached, the page
     * monitor.  sendSnoops() charges a multicast's remote lookups to
     * the same three, and nothing else counts a lookup, so the three
     * reconcile exactly.
     */
    void chargeLookup(HostAddr line, VmId requester);

    /**
     * The line @p line was just installed in @p core's L2: clear
     * @p core from every flight of that line that still has its snoop
     * pending, and schedule the snoop at its reserved position if that
     * is still ahead of the dispatch frontier.
     */
    void releaseSnoops(CoreId core, HostAddr line);

    /**
     * The snoops of one multicast whose targets lacked the line when
     * it was sent.  Every target took one event-queue position in
     * ascending core order, so the rank-r core of @p targets holds
     * sequence number firstSeq + r; its arrival tick is slot r of the
     * flight's row in flightArrive_.
     */
    struct SnoopFlight
    {
        SnoopMsg msg;
        /** Every target core of the multicast. */
        std::uint64_t targets = 0;
        /** Targets whose snoop is recorded and not yet released. */
        std::uint64_t pending = 0;
        std::uint64_t firstSeq = 0;
        /** Latest arrival among the pending targets. */
        Tick lastArrive = 0;
    };

    /** Ring slot @p slot's arrival ticks, by rank in its targets. */
    Tick *
    flightArrivals(std::size_t slot)
    {
        return flightArrive_.data() + slot * config_.numCores;
    }

    /**
     * Drop flights from the ring's front while they are done: nothing
     * pending, or every arrival behind the clock.
     */
    void retireFlights();

    /** Double the ring, keeping its flights in order from slot 0. */
    void growFlights();

    /** In-flight token ledger bookkeeping. */
    void inflightAdd(HostAddr line, std::uint32_t tokens, bool owner);
    void inflightRemove(HostAddr line, std::uint32_t tokens, bool owner);

    struct InflightState
    {
        std::uint32_t tokens = 0;
        std::uint32_t owners = 0;
    };

    EventQueue &eq_;
    Network &network_;
    TraceSink *trace_ = nullptr;
    PageMon *pagemon_ = nullptr;
    const VmId *coreVm_ = nullptr;
    SnoopTargetPolicy &policy_;
    ProtocolConfig config_;
    MainMemory memory_;
    CritPathAccountant critpath_;
    std::vector<std::unique_ptr<CoherenceController>> controllers_;
    std::vector<NodeId> memNodes_;
    FlatMap<InflightState> inflight_;
    /** Per-line FIFO of cores waiting for persistent-mode grants. */
    FlatMap<std::vector<CoreId>> persistent_;
    std::vector<VmId> friendOf_;
    /**
     * FIFO ring of live flights, oldest first; its size is a power of
     * two.  flightArrive_ holds numCores arrival ticks per slot.
     */
    std::vector<SnoopFlight> flights_;
    std::vector<Tick> flightArrive_;
    std::size_t flightHead_ = 0;
    std::size_t flightCount_ = 0;
};

} // namespace vsnoop

#endif // VSNOOP_COHERENCE_SYSTEM_HH_
