#include "system/sim_system.hh"

#include <algorithm>
#include <unordered_map>

#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/stats.hh"

namespace vsnoop
{

SimSystem::SimSystem(const SystemConfig &config, const AppProfile &app)
    : SimSystem(config,
                std::vector<AppProfile>(config.numVms, app))
{
}

SimSystem::SimSystem(const SystemConfig &config,
                     const std::vector<AppProfile> &apps)
    : config_(config), hypervisor_(config.hypervisor),
      mapping_(config.numCores())
{
    build(apps);
}

void
SimSystem::build(const std::vector<AppProfile> &apps)
{
    vsnoop_assert(apps.size() == config_.numVms,
                  "need one application profile per VM");
    std::uint32_t cores = config_.numCores();
    std::uint32_t vcpus = config_.numVms * config_.vcpusPerVm;
    vsnoop_assert(vcpus <= cores,
                  "the simulator does not model overcommitted coherence "
                  "runs (", vcpus, " vCPUs > ", cores, " cores); see the "
                  "scheduler simulation for overcommitted studies");

    if (config_.idealNetwork) {
        network_ = std::make_unique<IdealCrossbar>(
            cores, config_.crossbarLatency, config_.mesh.linkBytes);
    } else {
        auto mesh = std::make_unique<Mesh>(config_.mesh);
        mesh_ = mesh.get();
        network_ = std::move(mesh);
    }

    ProtocolConfig protocol = config_.protocol;
    protocol.numCores = cores;

    IdealRegionFilterPolicy *region_policy = nullptr;
    if (config_.policy == PolicyKind::VirtualSnoop) {
        auto policy = std::make_unique<VirtualSnoopPolicy>(
            cores, config_.numVms, config_.vsnoop);
        vsnoopPolicy_ = policy.get();
        policy_ = std::move(policy);
    } else if (config_.policy == PolicyKind::IdealRegionFilter) {
        auto policy = std::make_unique<IdealRegionFilterPolicy>(
            cores, config_.regionBytes);
        region_policy = policy.get();
        policy_ = std::move(policy);
    } else {
        policy_ = std::make_unique<TokenBPolicy>(cores);
    }

    coherence_ = std::make_unique<CoherenceSystem>(
        eq_, *network_, *policy_, protocol, config_.l2, config_.numVms);
    coherence_->setCoreVmTable(mapping_.vmAtTable());

    if (vsnoopPolicy_ != nullptr) {
        vsnoopPolicy_->attach(*coherence_);
        mapping_.addListener(vsnoopPolicy_);
    }
    if (region_policy != nullptr)
        region_policy->attach(*coherence_);

    // Friend pairing: VM 2k <-> VM 2k+1.  Used by the friend-VM
    // policy and by Table VI data-source classification.
    for (VmId vm = 0; vm + 1u < config_.numVms; vm += 2) {
        coherence_->setFriend(vm, vm + 1);
        coherence_->setFriend(vm + 1, vm);
        if (vsnoopPolicy_ != nullptr) {
            vsnoopPolicy_->setFriend(vm, vm + 1);
            vsnoopPolicy_->setFriend(vm + 1, vm);
        }
    }

    // Watch-page runs get their trace sink before the guest VMs so
    // the watched pages' build-time lifecycle records (first-touch
    // maps, the initial content scan's merges) are captured.  Plain
    // --trace runs keep the sink attachment below, after the build,
    // so their record stream (and run JSON) is unchanged.
    if (!config_.watchPages.empty()) {
        trace_ = std::make_unique<TraceSink>(
            std::max<std::size_t>(1, config_.traceLimit));
        coherence_->setTrace(trace_.get());
    }

    // Page-level forensics: the monitor observes the hypervisor's
    // lifecycle events from the very first mapping, charges per-page
    // lookups at the coherence layer's snoopLookups sites, and
    // filters transaction tracing down to watched pages.
    if (config_.pages || !config_.watchPages.empty()) {
        pagemon_ = std::make_unique<PageMon>(
            config_.numVms,
            std::max<std::uint32_t>(1, config_.pagesTop));
        pagemon_->setClock(&eq_);
        pagemon_->setTrace(trace_.get());
        for (std::uint64_t page : config_.watchPages)
            pagemon_->addWatch(page);
        hypervisor_.setPageListener(pagemon_.get());
        coherence_->setPagemon(pagemon_.get());
    }

    // Guest VMs, content declarations and the ideal dedup scan.
    for (VmId vm = 0; vm < config_.numVms; ++vm) {
        VmId id = hypervisor_.createVm(config_.vcpusPerVm);
        vsnoop_assert(id == vm, "unexpected VM id");
        declareContentPages(hypervisor_, vm, apps[vm]);
    }
    if (config_.contentScan)
        hypervisor_.runContentScan();
    if (config_.contentScanPeriod > 0)
        scheduleContentScan();

    // vCPUs, initial one-to-one placement (VM k on the contiguous
    // quad of cores starting at k * vcpusPerVm), workloads, drivers.
    // When a scheduler trace drives the placement, the trace's own
    // events establish the mapping instead.
    bool default_placement = config_.placementTrace == nullptr;
    for (VmId vm = 0; vm < config_.numVms; ++vm) {
        for (std::uint32_t i = 0; i < config_.vcpusPerVm; ++i) {
            VCpuId vcpu = mapping_.addVcpu(vm);
            if (default_placement) {
                mapping_.place(vcpu, static_cast<CoreId>(
                                         vm * config_.vcpusPerVm + i));
            }
            VcpuWorkload workload(hypervisor_, vm, i, apps[vm],
                                  config_.seed);
            drivers_.push_back(std::make_unique<VcpuDriver>(
                eq_, *coherence_, mapping_, vcpu, std::move(workload),
                config_.warmupAccessesPerVcpu + config_.accessesPerVcpu,
                config_.warmupAccessesPerVcpu));
        }
    }

    if (config_.placementTrace != nullptr) {
        traceMigrator_ = std::make_unique<TraceMigrator>(
            eq_, mapping_, *config_.placementTrace,
            config_.traceTicksPerMs);
    } else if (config_.migrationPeriod > 0) {
        migrator_ = std::make_unique<ShuffleMigrator>(
            eq_, mapping_, config_.migrationPeriod, config_.seed);
    }

    if ((config_.captureTrace || !config_.tracePath.empty()) &&
        trace_ == nullptr) {
        trace_ = std::make_unique<TraceSink>(
            std::max<std::size_t>(1, config_.traceLimit));
        coherence_->setTrace(trace_.get());
        // Lifecycle records start flowing from here (measurement
        // setup is done); build-time events were still counted in
        // the monitor's transition totals.
        if (pagemon_ != nullptr)
            pagemon_->setTrace(trace_.get());
    }

    // The always-on accountant has charged the NoC waits of the
    // initial placement's vCPU-map syncs (VirtualSnoop only).  That
    // traffic is build, not run: drop it so noc_wait_cycles covers
    // the run alone.  The links keep it, so without warmup the
    // links' wait_cycles exceed noc_wait_cycles by those syncs.
    coherence_->critpath().resetStats();

    // Simulator-internals counters: one block per system, attached
    // branch-on-null to the event queue, the protocol tables and
    // the mesh.  Deliberately not reset at the warmup boundary —
    // perfmon measures the simulator's data structures, whose
    // warmup behavior (pool growth, table rehashes) is exactly what
    // a tuner needs to see.
    if (config_.perf) {
        perfmon_ = std::make_unique<PerfMon>();
        perfmon_->enabled = true;
        eq_.setPerf(&perfmon_->eventQueue);
        coherence_->setPerf(perfmon_.get());
        if (mesh_ != nullptr)
            mesh_->setPerf(&perfmon_->mesh);
    }

    bool perf_sampling = perfmon_ != nullptr &&
                         config_.perfSampleInterval > 0;
    if (config_.timeseriesInterval > 0 || perf_sampling) {
        // One shared sampling chain: the time-series interval wins
        // when both are on, so enabling perf never changes the
        // series a run already emits.
        Tick interval = config_.timeseriesInterval > 0
                            ? config_.timeseriesInterval
                            : config_.perfSampleInterval;
        sampler_ = std::make_unique<IntervalSampler>(
            eq_, interval,
            [this, cores](TimeSeriesSample &s) {
                const CoherenceStats &cs = coherence_->stats;
                s.transactions = cs.transactions.value();
                s.snoopLookups = cs.snoopLookups.value();
                s.snoopsDelivered = cs.snoopsDelivered.value();
                s.retries = cs.retries.value();
                s.persistentRequests = cs.persistentRequests.value();
                if (vsnoopPolicy_ != nullptr) {
                    s.filteredRequests =
                        vsnoopPolicy_->filteredRequests.value();
                    s.broadcastRequests =
                        vsnoopPolicy_->broadcastRequests.value();
                }
                const NetworkStats &ns = network_->stats();
                for (std::size_t c = 0; c < kNumMsgClasses; ++c)
                    s.byteHops[c] = ns.byteHops[c].value();
                s.residencePerCore.assign(cores, 0);
                for (CoreId c = 0; c < cores; ++c) {
                    const ResidenceCounters &res =
                        coherence_->controller(c).residence();
                    for (VmId vm = 0; vm < config_.numVms; ++vm)
                        s.residencePerCore[c] += res.count(vm);
                }
                if (perfmon_ != nullptr) {
                    EventQueuePerf &eqp = perfmon_->eventQueue;
                    eqp.wheelOccupancy.sample(eq_.wheelEntries());
                    eqp.overflowOccupancy.sample(eq_.overflowEntries());
                    coherence_->samplePerfOccupancy(*perfmon_);
                }
            });
    }
}

void
SimSystem::setProfiler(HostProfiler *profiler)
{
    profiler_ = profiler;
    // Protocol work is attributed at the event loop, one scope per
    // runUntil() slice: per-message scopes cost two clock reads per
    // event and dominated the profiler's own overhead.  Workload
    // generation still opens its nested Generate scope per batch.
    eq_.setDispatchProfile(profiler);
    for (auto &driver : drivers_)
        driver->setProfiler(profiler);
}

void
SimSystem::registerStats(StatSet &set) const
{
    const CoherenceStats &cs = coherence_->stats;
    set.add("coherence.transactions", cs.transactions);
    set.add("coherence.read_transactions", cs.readTransactions);
    set.add("coherence.write_transactions", cs.writeTransactions);
    set.add("coherence.l2_hits", cs.l2Hits);
    set.add("coherence.snoop_lookups", cs.snoopLookups);
    set.add("coherence.snoops_delivered", cs.snoopsDelivered);
    set.add("coherence.memory_snoops", cs.memorySnoops);
    set.add("coherence.retries", cs.retries);
    set.add("coherence.persistent_requests", cs.persistentRequests);
    set.add("coherence.dirty_writebacks", cs.dirtyWritebacks);
    set.add("coherence.bounced_responses", cs.bouncedResponses);
    set.add("coherence.miss_latency", cs.missLatency);
    set.add("coherence.ro_miss_latency", cs.roMissLatency);
    const MainMemory &memory = coherence_->memory();
    set.add("memory.reads", memory.reads);
    set.add("memory.writebacks", memory.writebacks);
    const CritPathAccountant &cp = coherence_->critpath();
    set.add("critpath.transactions", cp.transactions);
    for (std::size_t s = 0; s < kNumCritSegments; ++s) {
        set.add(std::string("critpath.seg_") +
                    critSegmentName(static_cast<CritSegment>(s)),
                cp.segTotal[s]);
    }
    set.add("interference.snoop_lookups", cp.lookupsTotal);
    set.add("interference.snoop_lookups_offdiag", cp.lookupsOffDiag);
    set.add("interference.bytes_delivered", cp.bytesTotal);
    set.add("interference.bytes_delivered_offdiag", cp.bytesOffDiag);
    if (vsnoopPolicy_ != nullptr) {
        set.add("vsnoop.filtered_requests",
                vsnoopPolicy_->filteredRequests);
        set.add("vsnoop.broadcast_requests",
                vsnoopPolicy_->broadcastRequests);
        set.add("vsnoop.map_adds", vsnoopPolicy_->mapAdds);
        set.add("vsnoop.map_removals", vsnoopPolicy_->mapRemovals);
    }
    if (pagemon_ != nullptr) {
        set.add("pages.lookups", pagemon_->lookupsCharged);
        set.add("pages.cross_vm_lookups", pagemon_->crossVmLookups);
        set.add("pages.truncated_lookups", pagemon_->truncatedLookups);
        set.add("pages.cow_breaks",
                pagemon_->eventsByKind[static_cast<std::size_t>(
                    PageEventKind::CowBreak)]);
        set.add("pages.remaps",
                pagemon_->eventsByKind[static_cast<std::size_t>(
                    PageEventKind::Remap)]);
    }
}

void
SimSystem::reportProgress(bool finished)
{
    if (!progress_)
        return;
    ProgressSample s;
    s.tick = eq_.now();
    for (const auto &driver : drivers_)
        s.accessesIssued += driver->issued();
    s.accessesTarget =
        static_cast<std::uint64_t>(drivers_.size()) *
        (config_.warmupAccessesPerVcpu + config_.accessesPerVcpu);
    const CoherenceStats &cs = coherence_->stats;
    s.transactions = cs.transactions.value();
    s.snoopLookups = cs.snoopLookups.value();
    if (vsnoopPolicy_ != nullptr) {
        s.filteredRequests = vsnoopPolicy_->filteredRequests.value();
        s.broadcastRequests = vsnoopPolicy_->broadcastRequests.value();
    }
    s.trafficByteHops = network_->stats().totalByteHops();
    s.eventsProcessed = eq_.eventsProcessed();
    s.finished = finished;
    progress_(s);
}

void
SimSystem::scheduleContentScan()
{
    // Periodic re-scan: models the hypervisor's continuous page
    // hashing, re-merging pages whose content classes are declared
    // anew after a COW divergence.
    eq_.scheduleFnIn(config_.contentScanPeriod, [this] {
        if (stopAux_)
            return;
        hypervisor_.runContentScan();
        scheduleContentScan();
    });
}

void
SimSystem::resetAllStats()
{
    // Drivers reset themselves at their own warmup boundary (so
    // per-driver counters cover exactly the measurement quota);
    // this resets only the global collectors.
    coherence_->resetStats();
    network_->resetStats();
    if (vsnoopPolicy_ != nullptr)
        vsnoopPolicy_->resetStats();
    if (migrator_)
        migrator_->migrations.reset();
    if (traceMigrator_)
        traceMigrator_->migrations.reset();
}

void
SimSystem::run()
{
    if (profiler_)
        profiler_->begin();
    for (auto &driver : drivers_)
        driver->start();
    if (migrator_)
        migrator_->start();
    if (traceMigrator_)
        traceMigrator_->start();
    if (sampler_)
        sampler_->start();
    reportProgress(false);

    auto all_done = [this] {
        return std::all_of(drivers_.begin(), drivers_.end(),
                           [](const auto &d) { return d->done(); });
    };

    if (config_.warmupAccessesPerVcpu > 0) {
        auto warmed = [this] {
            return std::all_of(drivers_.begin(), drivers_.end(),
                               [this](const auto &d) {
                                   return d->issued() >=
                                          config_.warmupAccessesPerVcpu;
                               });
        };
        while (!warmed() && !all_done()) {
            vsnoop_assert(!eq_.empty(),
                          "event queue drained during warmup");
            eq_.runUntil(eq_.now() + 10000);
            reportProgress(false);
        }
        resetAllStats();
        // Re-baseline the time series so it covers the measurement
        // phase only (the snapshot counters just dropped to zero).
        if (sampler_)
            sampler_->resetSeries();
        warmupEnd_ = eq_.now();
    }

    std::uint64_t last_check = 0;
    while (!all_done()) {
        vsnoop_assert(!eq_.empty(),
                      "event queue drained before the drivers finished");
        // Advance in bounded slices of simulated time so completion
        // is detected promptly; a count-based chunk would keep
        // dispatching the self-rescheduling migrator long after the
        // drivers finish.
        eq_.runUntil(eq_.now() + 10000);
        reportProgress(false);
        if (config_.invariantCheckPeriod > 0 &&
            eq_.eventsProcessed() - last_check >=
                config_.invariantCheckPeriod) {
            last_check = eq_.eventsProcessed();
            coherence_->checkInvariants();
        }
    }

    stopAux_ = true;
    if (migrator_)
        migrator_->stop();
    if (traceMigrator_)
        traceMigrator_->stop();
    // Stop sampling before the drain: the sampler's self-scheduling
    // event chain would otherwise keep the queue occupied for the
    // whole drain budget, one sample per interval.  stop() captures
    // end-of-run state (e.g. drained residence counters) in a final
    // partial sample; the post-stop drain only settles straggler
    // token responses, which never install or evict lines.
    if (sampler_)
        sampler_->stop();
    // Drain any still-queued responses so tokens settle (keeps the
    // final invariant check meaningful).
    {
        ProfileScope drain(profiler_, HostProfiler::Phase::Drain);
        eq_.run(1000000);
    }
    if (config_.invariantCheckPeriod > 0)
        coherence_->checkInvariants();
    if (profiler_)
        profiler_->end(eq_.eventsProcessed());
    reportProgress(true);
}

SystemResults
SimSystem::results() const
{
    SystemResults r;
    const CoherenceStats &cs = coherence_->stats;
    r.transactions = cs.transactions.value();
    r.snoopLookups = cs.snoopLookups.value();
    r.retries = cs.retries.value();
    r.persistentRequests = cs.persistentRequests.value();
    r.dirtyWritebacks = cs.dirtyWritebacks.value();
    r.trafficByteHops = network_->stats().totalByteHops();
    r.meanMissLatency = cs.missLatency.mean();
    r.meanRoMissLatency = cs.roMissLatency.mean();
    for (std::size_t i = 0; i < kNumFilterReasons; ++i) {
        const auto &cell = cs.latency[i];
        r.latencyByReason[i].merge(cell[0]);
        r.latencyByReason[i].merge(cell[1]);
        r.latencyFirstTry.merge(cell[0]);
        r.latencyRetried.merge(cell[1]);
        r.latency.merge(r.latencyByReason[i]);
    }
    r.links = network_->linkStats();
    for (std::size_t i = 0; i < kNumDataSources; ++i) {
        r.dataFrom[i] = cs.dataFrom[i].value();
        r.roDataFrom[i] = cs.roDataFrom[i].value();
    }
    Tick finish = 0;
    for (const auto &driver : drivers_) {
        finish = std::max(finish, driver->finishedAt());
        r.totalMisses += driver->totalMisses.value();
        const VcpuWorkload &w = driver->workload();
        r.totalAccesses += w.totalAccesses.value();
        for (std::size_t c = 0; c < kNumAccessCategories; ++c) {
            r.accessesByCategory[c] +=
                w.accessesByCategory[c].value();
            r.missesByCategory[c] +=
                driver->missesByCategory[c].value();
        }
    }
    // Runtime covers the measurement phase only.
    r.runtime = finish > warmupEnd_ ? finish - warmupEnd_ : finish;
    if (vsnoopPolicy_ != nullptr) {
        r.mapAdds = vsnoopPolicy_->mapAdds.value();
        r.mapRemovals = vsnoopPolicy_->mapRemovals.value();
    }
    if (migrator_)
        r.migrations = migrator_->migrations.value();
    if (traceMigrator_)
        r.migrations = traceMigrator_->migrations.value();
    // The sampler may exist for perf-only occupancy sampling; the
    // time series is emitted only when explicitly requested.
    if (sampler_ && config_.timeseriesInterval > 0)
        r.series = sampler_->series();
    r.critpath = coherence_->critpath().critSnapshot();
    r.interference = coherence_->critpath().interferenceSnapshot();
    if (pagemon_ != nullptr && config_.pages) {
        r.pages = pagemon_->snapshot();
        // Page-type census: distinct mapped host pages by current
        // sharing type, read off the hypervisor's tables.  Counting
        // is order-independent, so the unordered walk is fine.
        std::unordered_map<std::uint64_t, PageType> host_type;
        for (VmId vm = 0; vm < config_.numVms; ++vm) {
            hypervisor_.pageTable(vm).forEach(
                [&host_type](std::uint64_t,
                             const PageTableEntry &entry) {
                    host_type[entry.hostPage] = entry.type;
                });
        }
        for (const auto &[page, type] : host_type)
            r.pages.censusByType[static_cast<std::size_t>(type)]++;
        // Tracked cells created after the last lifecycle event on
        // their page (e.g. post-warmup re-allocation) would otherwise
        // report the default type; the live tables are authoritative
        // for pages still mapped.
        for (PageCell &cell : r.pages.cells) {
            auto it = host_type.find(cell.pageNum);
            if (it != host_type.end())
                cell.lastType = it->second;
        }
    }
    if (perfmon_ != nullptr) {
        r.perf = *perfmon_;
        r.perf.eventQueue.poolHighWater = std::max(
            r.perf.eventQueue.poolHighWater, eq_.poolSlots());
        coherence_->capturePerfSizes(r.perf);
    }
    return r;
}

} // namespace vsnoop
