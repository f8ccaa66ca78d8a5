/**
 * @file
 * Virtual snooping: the paper's contribution (Section IV).
 *
 * VirtualSnoopPolicy implements SnoopTargetPolicy by consulting the
 * per-VM vCPU map — the hardware's n-bit vCPU map registers, kept
 * synchronized by the hypervisor:
 *
 *  - VM-private pages: snoops are multicast to the requesting VM's
 *    vCPU map only;
 *  - RW-shared pages (hypervisor data, inter-VM channels): snoops
 *    broadcast, since the hypervisor may have pulled the data into
 *    any cache;
 *  - RO-shared pages (content-based sharing): handled per the
 *    configured RoPolicy — broadcast, memory-direct, intra-VM, or
 *    friend-VM (Section VI-B).
 *
 * Relocation support (Section IV-B): when a vCPU leaves a core, the
 * core stays in the VM's map until the per-VM cache residence
 * counter says no private line of the VM remains there.  Three
 * modes are modelled:
 *
 *  - Base: cores are never removed (vsnoop-base);
 *  - Counter: remove when the counter reaches zero;
 *  - CounterThreshold: remove speculatively when the counter drops
 *    below a small threshold; stranded tokens are recovered because
 *    transient attempt 3+ broadcasts (safe retry on Token
 *    Coherence).
 */

#ifndef VSNOOP_CORE_VSNOOP_HH_
#define VSNOOP_CORE_VSNOOP_HH_

#include <cstdint>
#include <vector>

#include "coherence/policy.hh"
#include "sim/core_set.hh"
#include "sim/stats.hh"
#include "virt/vcpu_map.hh"

namespace vsnoop
{

class CoherenceSystem;
enum class TraceEventKind : std::uint8_t;

/** Relocation (vCPU map maintenance) modes, Section IV-B. */
enum class RelocationMode : std::uint8_t
{
    /** Never remove cores from a vCPU map (vsnoop-base). */
    Base,
    /** Remove a core when its residence counter reaches zero. */
    Counter,
    /** Remove speculatively below a threshold; rely on retry. */
    CounterThreshold,
    /**
     * The paper's alternative (discussed but not evaluated there):
     * when the counter drops below the threshold on a departed
     * core, flush the VM's remaining private lines so the counter
     * reaches zero and the core is removed exactly.  Trades flush
     * writeback traffic and controller complexity for retry-free
     * removal.
     */
    CounterFlush,
};

/** Content-shared (RO-shared) page request policies, Section VI-B. */
enum class RoPolicy : std::uint8_t
{
    /** Unoptimized: broadcast requests on content-shared pages. */
    Broadcast,
    /** Send only to the memory controller. */
    MemoryDirect,
    /** Send to the requester's vCPU map plus memory. */
    IntraVm,
    /** Send to the requester's and its friend VM's maps + memory. */
    FriendVm,
};

/** Human-readable names for reporting. */
const char *relocationModeName(RelocationMode mode);
const char *roPolicyName(RoPolicy policy);

/**
 * Virtual snooping configuration.
 */
struct VsnoopConfig
{
    RelocationMode relocation = RelocationMode::Counter;
    RoPolicy roPolicy = RoPolicy::Broadcast;
    /** Residence count below which CounterThreshold removes a core
     *  (the paper uses 10). */
    std::uint64_t counterThreshold = 10;
    /** Transient attempt at which filtered requests fall back to a
     *  broadcast (the paper: first two attempts use the map). */
    std::uint32_t broadcastAttempt = 3;
    /** Bytes per vCPU-map synchronization message. */
    std::uint32_t mapSyncBytes = 8;
    /**
     * Token bundle memory grants to a VM's first RO-shared reader
     * under the intra-VM / friend-VM policies (lets the provider
     * copy serve later same-VM readers cache-to-cache).
     */
    std::uint32_t roTokenBundle = 4;
};

/**
 * The virtual snooping policy and vCPU map register file.
 */
class VirtualSnoopPolicy : public SnoopTargetPolicy,
                           public VcpuMappingListener
{
  public:
    /**
     * @param num_cores Physical cores.
     * @param num_vms Virtual machines.
     * @param config Policy configuration.
     */
    VirtualSnoopPolicy(std::uint32_t num_cores, std::uint32_t num_vms,
                       const VsnoopConfig &config);

    /**
     * Attach to a coherence system: hooks every core's residence
     * counters and enables map-synchronization traffic accounting.
     * Must be called once, after the system is constructed.
     */
    void attach(CoherenceSystem &system);

    /** Configure a friend VM (used when roPolicy is FriendVm). */
    void setFriend(VmId vm, VmId friend_vm);

    /** Current vCPU map (snoop domain) of @p vm. */
    CoreSet vcpuMap(VmId vm) const;

    /** Cores currently running @p vm (subset of the map). */
    CoreSet runningSet(VmId vm) const;

    // SnoopTargetPolicy interface.
    SnoopTargets targets(CoreId requester, const MemAccess &access,
                         std::uint32_t attempt) override;

    // VcpuMappingListener interface.
    void onVcpuPlaced(VCpuId vcpu, VmId vm, CoreId core) override;
    void onVcpuRemoved(VCpuId vcpu, VmId vm, CoreId core) override;

    /** Zero every policy statistic (warmup boundary). */
    void
    resetStats()
    {
        mapAdds.reset();
        mapRemovals.reset();
        filteredRequests.reset();
        broadcastRequests.reset();
        memoryDirectRequests.reset();
        selectiveFlushes.reset();
        flushedLines.reset();
        removalPeriods.clear();
    }

    /** @{ Statistics. */
    /** Cores added to vCPU maps. */
    Counter mapAdds;
    /** Cores removed from vCPU maps (Counter/CounterThreshold). */
    Counter mapRemovals;
    /** Requests filtered (multicast within a map). */
    Counter filteredRequests;
    /** Requests broadcast (RW-shared, hypervisor, fallback). */
    Counter broadcastRequests;
    /** Requests sent memory-direct. */
    Counter memoryDirectRequests;
    /** Selective flushes performed (CounterFlush mode). */
    Counter selectiveFlushes;
    /** Lines evicted by selective flushes. */
    Counter flushedLines;
    /**
     * Core-removal periods after a vCPU relocation, in ticks
     * (Figure 9): one exact sample each time a formerly used core
     * is removed from the VM's map.  A run records only a handful,
     * so consumers take quantiles with nearestRank() and convert
     * ticks to their own time scale.
     */
    std::vector<Tick> removalPeriods;
    /** @} */

  private:
    /**
     * Precomputed destination set for one (VM, page class) pair.
     * The targets() hot path is a template load plus a requester-bit
     * clear; the set algebra over the vCPU maps (union with the
     * friend VM's map, provider masks, bundle sizes) runs only here,
     * on the rare map or friend-pairing changes.
     */
    struct TargetTemplate
    {
        SnoopTargets targets;
        /** Statistic bumped on the first transient attempt. */
        Counter *firstAttempt = nullptr;
        /** Attempt number from which the request broadcasts. */
        std::uint32_t fallbackAttempt = ~std::uint32_t{0};
    };

    /** Recompute every template from map_ / friendOf_ / config_. */
    void rebuildTemplates();

    /** Remove @p core from @p vm's map, with sync accounting. */
    void removeFromMap(VmId vm, CoreId core);

    /** Add @p core to @p vm's map, with sync accounting. */
    void addToMap(VmId vm, CoreId core);

    /** Called by the residence counter banks. */
    void onResidenceChange(CoreId core, VmId vm, std::uint64_t count);

    /** Emit a MapAdd/MapRemove trace record when tracing is on. */
    void traceMapChange(TraceEventKind kind, VmId vm, CoreId core) const;

    /** Evaluate removal eligibility for (core, vm). */
    void maybeRemove(CoreId core, VmId vm, std::uint64_t count);

    /** Account hypervisor map-register synchronization traffic. */
    void accountMapSync(VmId vm);

    std::uint32_t numCores_;
    std::uint32_t numVms_;
    VsnoopConfig config_;
    CoherenceSystem *system_ = nullptr;
    CoreSet allCores_;
    std::vector<CoreSet> map_;
    std::vector<CoreSet> running_;
    std::vector<VmId> friendOf_;
    /** Per-VM templates: [vm * 2] private pages, [vm * 2 + 1] RO. */
    std::vector<TargetTemplate> templates_;
    /** Hypervisor accesses and RW-shared pages (broadcast). */
    TargetTemplate hypervisorTemplate_;
    /** Late-retry broadcast fallback (requester not yet removed). */
    SnoopTargets fallbackTargets_;
    /** Guards against re-entering a selective flush. */
    bool flushing_ = false;
    /**
     * Tick at which the last vCPU of @p vm left @p core while data
     * remained (kMaxTick when not pending), indexed
     * core * numVms + vm; used for the Figure 9 distribution.
     */
    std::vector<Tick> pendingRemovalSince_;
};

} // namespace vsnoop

#endif // VSNOOP_CORE_VSNOOP_HH_
