#include "core/vsnoop.hh"

#include "coherence/system.hh"
#include "sim/logging.hh"
#include "trace/pagemon.hh"
#include "trace/trace.hh"

namespace vsnoop
{

const char *
relocationModeName(RelocationMode mode)
{
    switch (mode) {
      case RelocationMode::Base:
        return "vsnoop-base";
      case RelocationMode::Counter:
        return "counter";
      case RelocationMode::CounterThreshold:
        return "counter-threshold";
      case RelocationMode::CounterFlush:
        return "counter-flush";
    }
    return "unknown";
}

const char *
roPolicyName(RoPolicy policy)
{
    switch (policy) {
      case RoPolicy::Broadcast:
        return "vsnoop-broadcast";
      case RoPolicy::MemoryDirect:
        return "memory-direct";
      case RoPolicy::IntraVm:
        return "intra-VM";
      case RoPolicy::FriendVm:
        return "friend-VM";
    }
    return "unknown";
}

VirtualSnoopPolicy::VirtualSnoopPolicy(std::uint32_t num_cores,
                                       std::uint32_t num_vms,
                                       const VsnoopConfig &config)
    : numCores_(num_cores), numVms_(num_vms), config_(config),
      allCores_(CoreSet::firstN(num_cores)), map_(num_vms),
      running_(num_vms), friendOf_(num_vms, kInvalidVm),
      pendingRemovalSince_(static_cast<std::size_t>(num_cores) * num_vms,
                           kMaxTick)
{
    vsnoop_assert(num_vms <= 32,
                  "provider bitmasks support at most 32 VMs");
    rebuildTemplates();
}

void
VirtualSnoopPolicy::rebuildTemplates()
{
    auto broadcastTargets = [&](FilterReason reason) {
        SnoopTargets t;
        t.cores = allCores_;
        t.memory = true;
        t.providerMask = ~std::uint32_t{0};
        t.reason = reason;
        return t;
    };
    hypervisorTemplate_.targets =
        broadcastTargets(FilterReason::HypervisorShared);
    hypervisorTemplate_.firstAttempt = &broadcastRequests;
    fallbackTargets_ = broadcastTargets(FilterReason::RetryFallback);

    templates_.resize(static_cast<std::size_t>(numVms_) * 2);
    for (VmId vm = 0; vm < numVms_; ++vm) {
        TargetTemplate &priv = templates_[vm * 2];
        priv.targets = SnoopTargets{};
        priv.targets.cores = map_[vm];
        priv.targets.memory = true;
        priv.targets.providerMask = 1U << vm;
        priv.targets.reason = FilterReason::VmPrivate;
        priv.firstAttempt = &filteredRequests;
        // Counter-threshold may have stranded tokens on removed
        // cores; later transient attempts broadcast to recover them
        // (the paper's safe-retry fallback).
        priv.fallbackAttempt = config_.broadcastAttempt;

        TargetTemplate &ro = templates_[vm * 2 + 1];
        SnoopTargets t;
        t.memory = true;
        t.reason = FilterReason::RoShared;
        switch (config_.roPolicy) {
          case RoPolicy::Broadcast:
            t.cores = allCores_;
            t.providerMask = ~std::uint32_t{0};
            ro.firstAttempt = &broadcastRequests;
            ro.fallbackAttempt = ~std::uint32_t{0};
            break;
          case RoPolicy::MemoryDirect:
            // Single-token grants: up to numCores sharers never
            // exhaust memory's pool, so memory-direct keeps
            // succeeding.  Attempt 2 means memory had no free token
            // (every copy cached): fall back to a broadcast that can
            // reach the cached copies.
            t.providerMask = 0;
            t.roBundle = 1;
            ro.firstAttempt = &memoryDirectRequests;
            ro.fallbackAttempt = 2;
            break;
          case RoPolicy::IntraVm:
            t.cores = map_[vm];
            t.providerMask = 1U << vm;
            t.roBundle = config_.roTokenBundle;
            ro.firstAttempt = &filteredRequests;
            ro.fallbackAttempt = config_.broadcastAttempt;
            break;
          case RoPolicy::FriendVm: {
            t.cores = map_[vm];
            t.providerMask = 1U << vm;
            t.roBundle = config_.roTokenBundle;
            VmId fr = friendOf_[vm];
            if (fr != kInvalidVm) {
                t.cores |= map_[fr];
                t.providerMask |= 1U << fr;
            }
            ro.firstAttempt = &filteredRequests;
            ro.fallbackAttempt = config_.broadcastAttempt;
            break;
          }
        }
        ro.targets = t;
    }
}

void
VirtualSnoopPolicy::attach(CoherenceSystem &system)
{
    vsnoop_assert(system_ == nullptr, "policy attached twice");
    system_ = &system;
    for (CoreId c = 0; c < numCores_; ++c) {
        system.controller(c).residence().setCallback(
            [this, c](VmId vm, std::uint64_t count) {
                onResidenceChange(c, vm, count);
            });
    }
    if (config_.roPolicy == RoPolicy::FriendVm) {
        for (VmId vm = 0; vm < numVms_; ++vm) {
            if (friendOf_[vm] != kInvalidVm)
                system.setFriend(vm, friendOf_[vm]);
        }
    }
}

void
VirtualSnoopPolicy::setFriend(VmId vm, VmId friend_vm)
{
    vsnoop_assert(vm < numVms_ && friend_vm < numVms_,
                  "friend pairing out of range");
    friendOf_[vm] = friend_vm;
    rebuildTemplates();
    if (system_ != nullptr)
        system_->setFriend(vm, friend_vm);
}

CoreSet
VirtualSnoopPolicy::vcpuMap(VmId vm) const
{
    vsnoop_assert(vm < numVms_, "bad VM id ", vm);
    return map_[vm];
}

CoreSet
VirtualSnoopPolicy::runningSet(VmId vm) const
{
    vsnoop_assert(vm < numVms_, "bad VM id ", vm);
    return running_[vm];
}

SnoopTargets
VirtualSnoopPolicy::targets(CoreId requester, const MemAccess &access,
                            std::uint32_t attempt)
{
    // Table-driven filter decision: select the precomputed template
    // for the access's (VM, page class), then clear the requester's
    // bit.  No per-request set algebra over the vCPU maps — that
    // runs in rebuildTemplates() on the rare map changes.
    const TargetTemplate *tmpl;
    if (access.vm == kInvalidVm || access.vm >= numVms_ ||
        access.pageType == PageType::RwShared) {
        // Hypervisor accesses and RW-shared pages must broadcast:
        // the hypervisor can have left the data in any cache.
        tmpl = &hypervisorTemplate_;
    } else if (access.pageType == PageType::VmPrivate) {
        tmpl = &templates_[static_cast<std::size_t>(access.vm) * 2];
    } else {
        vsnoop_assert(!access.isWrite,
                      "RO-shared write must take the COW path");
        tmpl = &templates_[static_cast<std::size_t>(access.vm) * 2 + 1];
    }
    if (attempt >= tmpl->fallbackAttempt) {
        SnoopTargets t = fallbackTargets_;
        t.cores.remove(requester);
        return t;
    }
    SnoopTargets t = tmpl->targets;
    t.cores.remove(requester);
    if (attempt == 1) {
        tmpl->firstAttempt->inc();
        // Filtered means the destination set was narrowed below a
        // broadcast: multicast within a map or memory-direct.  The
        // attached system's page monitor (trace/pagemon.hh) records
        // the decision for the touched page.
        PageMon *pm = system_ != nullptr ? system_->pagemon() : nullptr;
        if (pm != nullptr) {
            pm->policyDecision(access.addr,
                               tmpl->firstAttempt != &broadcastRequests);
        }
    }
    return t;
}

void
VirtualSnoopPolicy::onVcpuPlaced(VCpuId vcpu, VmId vm, CoreId core)
{
    (void)vcpu;
    vsnoop_assert(vm < numVms_, "bad VM id ", vm);
    running_[vm].add(core);
    // The core is back in use by this VM: cancel any pending
    // removal-period measurement.
    pendingRemovalSince_[static_cast<std::size_t>(core) * numVms_ + vm] =
        kMaxTick;
    if (!map_[vm].contains(core))
        addToMap(vm, core);
}

void
VirtualSnoopPolicy::onVcpuRemoved(VCpuId vcpu, VmId vm, CoreId core)
{
    (void)vcpu;
    vsnoop_assert(vm < numVms_, "bad VM id ", vm);
    running_[vm].remove(core);
    if (config_.relocation == RelocationMode::Base)
        return;
    std::uint64_t count = 0;
    if (system_ != nullptr)
        count = system_->controller(core).residence().count(vm);
    // Start the Figure 9 removal-period clock only when the VM
    // actually left data behind; a clean departure is removed
    // immediately and has no drain period to measure.
    if (map_[vm].contains(core) && count > 0) {
        pendingRemovalSince_[static_cast<std::size_t>(core) * numVms_ +
                             vm] =
            system_ != nullptr ? system_->eventQueue().now() : 0;
    }
    maybeRemove(core, vm, count);
}

void
VirtualSnoopPolicy::onResidenceChange(CoreId core, VmId vm,
                                      std::uint64_t count)
{
    if (config_.relocation == RelocationMode::Base)
        return;
    maybeRemove(core, vm, count);
}

void
VirtualSnoopPolicy::maybeRemove(CoreId core, VmId vm, std::uint64_t count)
{
    if (!map_[vm].contains(core) || running_[vm].contains(core))
        return;
    bool removable = false;
    switch (config_.relocation) {
      case RelocationMode::Base:
        return;
      case RelocationMode::Counter:
        removable = count == 0;
        break;
      case RelocationMode::CounterThreshold:
        removable = count < config_.counterThreshold;
        break;
      case RelocationMode::CounterFlush:
        if (count == 0) {
            removable = true;
        } else if (count < config_.counterThreshold && !flushing_ &&
                   system_ != nullptr) {
            // Evict the stragglers; the resulting residence-counter
            // callbacks re-enter maybeRemove and take the count==0
            // branch above once the flush completes.
            flushing_ = true;
            selectiveFlushes.inc();
            flushedLines.inc(
                system_->controller(core).flushVmPrivateLines(vm));
            flushing_ = false;
            removable =
                system_->controller(core).residence().count(vm) == 0 &&
                map_[vm].contains(core);
        }
        break;
    }
    if (removable)
        removeFromMap(vm, core);
}

void
VirtualSnoopPolicy::traceMapChange(TraceEventKind kind, VmId vm,
                                   CoreId core) const
{
    if (system_ == nullptr)
        return;
    TraceSink *t = system_->trace();
    if (t == nullptr)
        return;
    TraceRecord r;
    r.kind = kind;
    r.tick = system_->eventQueue().now();
    r.core = core;
    r.vm = vm;
    r.targets = map_[vm].mask();
    r.value = system_->controller(core).residence().count(vm);
    t->record(r);
}

void
VirtualSnoopPolicy::addToMap(VmId vm, CoreId core)
{
    map_[vm].add(core);
    rebuildTemplates();
    mapAdds.inc();
    traceMapChange(TraceEventKind::MapAdd, vm, core);
    accountMapSync(vm);
}

void
VirtualSnoopPolicy::removeFromMap(VmId vm, CoreId core)
{
    map_[vm].remove(core);
    rebuildTemplates();
    mapRemovals.inc();
    traceMapChange(TraceEventKind::MapRemove, vm, core);
    accountMapSync(vm);
    auto idx = static_cast<std::size_t>(core) * numVms_ + vm;
    Tick since = pendingRemovalSince_[idx];
    if (since != kMaxTick && system_ != nullptr) {
        Tick now = system_->eventQueue().now();
        removalPeriods.push_back(now - since);
    }
    pendingRemovalSince_[idx] = kMaxTick;
}

void
VirtualSnoopPolicy::accountMapSync(VmId vm)
{
    // The hypervisor multicasts the new map value to the cores in
    // the map and collects acknowledgments (Section IV-B).  The
    // cost is control traffic only; relocation is so much rarer
    // than coherence transactions that the latency is negligible
    // (the paper argues it is at most one broadcast round trip),
    // but the messages are charged to the network so the Table IV
    // traffic numbers include them.
    if (system_ == nullptr)
        return;
    CoreSet members = map_[vm];
    if (members.count() < 2)
        return;
    CoreId src = members.first();
    members.forEach([&](CoreId c) {
        if (c == src)
            return;
        system_->sendControl(src, c, config_.mapSyncBytes);  // update
        system_->sendControl(c, src, config_.mapSyncBytes);  // ack
    });
}

} // namespace vsnoop
