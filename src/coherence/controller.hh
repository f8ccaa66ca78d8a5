/**
 * @file
 * Per-core token-coherence cache controller.
 *
 * Each core owns a private L2 (the coherence point, Table II) and a
 * controller that turns demand accesses into token-coherence
 * transactions: it multicasts transient snoop requests to the
 * destination set chosen by the active SnoopTargetPolicy, collects
 * token/data responses in an MSHR, retries with (policy-driven)
 * wider destination sets on timeout, and escalates to an arbitrated
 * persistent request when transient attempts keep failing.
 *
 * See protocol.hh for the token rules the controller enforces.
 */

#ifndef VSNOOP_COHERENCE_CONTROLLER_HH_
#define VSNOOP_COHERENCE_CONTROLLER_HH_

#include <optional>
#include <vector>

#include "coherence/protocol.hh"
#include "mem/cache.hh"
#include "mem/residence.hh"
#include "sim/flat_table.hh"
#include "sim/small_fn.hh"
#include "sim/stats.hh"
#include "trace/critpath.hh"

namespace vsnoop
{

class CoherenceSystem;

/**
 * Completion callback: invoked when the access is globally
 * performed.
 *
 * @param done_at Tick at which the data is usable by the core.
 * @param source Where the data came from (DataSource::CacheIntraVm
 *        for plain L2 hits).
 * @param was_miss True when the access missed in the private L2 and
 *        required a coherence transaction.
 */
using AccessCallback =
    SmallFn<void(Tick done_at, DataSource source, bool was_miss)>;

/**
 * The per-core controller.
 */
class CoherenceController
{
  public:
    /**
     * @param system Owning coherence system (message fabric).
     * @param core This controller's core id.
     * @param geometry Private cache geometry (L2 mandatory, L1
     *        optional).
     * @param num_vms VMs tracked by the residence counters.
     */
    CoherenceController(CoherenceSystem &system, CoreId core,
                        const CacheGeometry &geometry,
                        std::size_t num_vms);

    CoherenceController(const CoherenceController &) = delete;
    CoherenceController &operator=(const CoherenceController &) = delete;

    CoreId core() const { return core_; }
    Cache &cache() { return cache_; }
    const Cache &cache() const { return cache_; }
    /** True when an L1 is modelled in front of the L2. */
    bool hasL1() const { return l1_.has_value(); }
    /** The L1 tag store; only valid when hasL1(). */
    Cache &l1() { return *l1_; }
    ResidenceCounters &residence() { return residence_; }
    const ResidenceCounters &residence() const { return residence_; }

    /**
     * Issue a demand access at the current tick.  At most one
     * outstanding transaction per line is supported (the in-order
     * core model blocks on misses, so this never triggers).
     */
    void access(const MemAccess &access, AccessCallback callback);

    /**
     * Act on a snoop at its arrival.  CoherenceSystem::sendSnoops()
     * schedules it, or records it and releases it from installLine().
     */
    void handleSnoop(const SnoopMsg &msg);

    /** Deliver a token/data response (at arrival). */
    void handleResponse(const ResponseMsg &msg);

    /** The persistent arbiter granted this core's pending request. */
    void persistentGranted(HostAddr line);

    /** True when a transaction for @p line is outstanding. */
    bool hasMshr(HostAddr line) const;

    /** Number of outstanding transactions. */
    std::size_t mshrCount() const { return mshrs_.size(); }

    /** Allocated MSHR index slots. */
    std::size_t mshrCapacity() const { return mshrs_.capacity(); }

    /** MSHRs in the pool behind the index, free or in use. */
    std::size_t mshrPoolSlots() const { return mshrPool_.size(); }

    /**
     * Attach an internals counter block to the MSHR table
     * (sim/perfmon.hh); nullptr detaches.  All controllers of one
     * system share a single block, so it aggregates the chip's MSHR
     * probe behavior.
     */
    void setMshrPerf(FlatTablePerf *perf) { mshrs_.setPerf(perf); }

    /**
     * Sum of tokens (and owner count) currently parked in full-miss
     * MSHRs, for the system-wide conservation check.
     */
    void sumMshrTokens(HostAddr line, std::uint32_t &tokens,
                       std::uint32_t &owners) const;

    /** Append the line numbers of all outstanding MSHRs. */
    void collectMshrLines(std::vector<std::uint64_t> &out) const;

    /**
     * Evict every VM-private line belonging to @p vm (the paper's
     * "selective flush" alternative, Section IV-B): tokens (and
     * dirty data) return to memory, the residence counter drains to
     * zero, and the core becomes removable from the VM's map.
     * Lines pinned under an outstanding upgrade are skipped.
     *
     * @return Number of lines flushed.
     */
    std::uint64_t flushVmPrivateLines(VmId vm);

    /** @{ Per-controller statistics. */
    /**
     * Remote snoop requests sent to this core, each counted once: at
     * delivery when sendSnoops() scheduled it, at send when it was
     * recorded (it then misses or is delivered uncounted).
     */
    Counter snoopsReceived;
    /** Snoops that found (and acted on) a matching line. */
    Counter snoopHits;
    /** Demand accesses absorbed by the L1 (when modelled). */
    Counter l1Hits;
    /** @} */

  private:
    /** In-flight transaction state. */
    struct Mshr
    {
        MemAccess access;
        AccessCallback callback;
        SnoopKind kind = SnoopKind::GetS;
        /** Upgrade: the line is still cached (and pinned). */
        bool upgrade = false;
        std::uint32_t attempt = 1;
        bool persistent = false;
        /** Filter decision of the first transient attempt. */
        FilterReason reason = FilterReason::Baseline;
        bool waitingGrant = false;
        /** Tokens collected (full-miss mode only). */
        std::uint32_t tokens = 0;
        bool owner = false;
        bool haveData = false;
        bool dirtyData = false;
        bool makeProvider = false;
        DataSource dataSource = DataSource::Memory;
        Tick issued = 0;
        /** Generation for ignoring stale timeout events. */
        std::uint64_t timeoutGen = 0;
        /**
         * @{ Critical-path cursor (trace/critpath.hh): every tick
         * of [issued, completion] is charged to exactly one segment
         * as the cursor sweeps forward, so the segments sum to the
         * end-to-end latency by construction.
         */
        Tick segMark = 0;
        std::uint64_t seg[kNumCritSegments] = {};
        /** @} */

        /** Charge [segMark, up_to) to @p segment, advancing the
         *  cursor; no-op when the cursor is already past @p up_to. */
        void
        charge(Tick up_to, CritSegment segment)
        {
            if (up_to > segMark) {
                seg[static_cast<std::size_t>(segment)] +=
                    up_to - segMark;
                segMark = up_to;
            }
        }
    };

    /** The MSHR for @p line_num, or nullptr. */
    Mshr *findMshr(std::uint64_t line_num);
    const Mshr *findMshr(std::uint64_t line_num) const;

    /** Release @p mshr's pool slot (reset, onto the free list) and
     *  drop its index entry. */
    void eraseMshr(Mshr &mshr);

    /** Multicast the current attempt's snoops and arm the timer. */
    void issueAttempt(Mshr &mshr);

    /** Timer fired for the given generation. */
    void onTimeout(std::uint64_t line_num, std::uint64_t gen);

    /** Test for and perform completion. */
    void tryComplete(Mshr &mshr);

    /** Install a completed full-miss line, evicting a victim. */
    void installLine(Mshr &mshr);

    /** Evict @p victim, returning its tokens (and data) to memory. */
    void evict(CacheLine &victim);

    /** Respond to a snoop from the cached line @p line. */
    void respondFromLine(const SnoopMsg &msg, CacheLine &line);

    /**
     * Remove an L2 line, preserving L1 inclusion (the L1 copy, if
     * any, is invalidated first).  All L2 removals go through here.
     */
    void removeL2(CacheLine &line);

    /** Install/refresh the L1 copy after an L2 hit or fill. */
    void fillL1(HostAddr line_addr, VmId vm, PageType type);

    CoherenceSystem &system_;
    CoreId core_;
    Cache cache_;
    /** Optional inclusive write-through L1 in front of the L2. */
    std::optional<Cache> l1_;
    ResidenceCounters residence_;
    /**
     * Outstanding MSHRs: line number -> slot in mshrPool_.  The index
     * keeps the probe sequence and rehashes a FlatMap<Mshr> would
     * have, while the ~200-byte MSHRs live only in as many pool slots
     * as were ever outstanding at once.  A reference into the pool is
     * valid until the next access() allocates a slot.
     */
    FlatMap<std::uint32_t> mshrs_;
    std::vector<Mshr> mshrPool_;
    /** Pool slots not in use, reused last-freed first. */
    std::vector<std::uint32_t> freeMshrs_;
};

} // namespace vsnoop

#endif // VSNOOP_COHERENCE_CONTROLLER_HH_
