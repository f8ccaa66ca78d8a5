/**
 * @file
 * Top-level system builder: wires cores, caches, the mesh, token
 * coherence, the hypervisor, workloads and the snoop policy into a
 * runnable simulation.
 *
 * The defaults reproduce the paper's configuration (Tables II/III):
 * 16 in-order cores with private 256 KB L2s over a 4x4 mesh, Token
 * Coherence, four VMs with four vCPUs each, the same application in
 * every VM.
 *
 * Concurrency contract — "one SimSystem per thread": a SimSystem
 * and every component it owns (event queue, caches, network,
 * policies, drivers, stats) are confined to the thread that built
 * it; none of them are internally synchronized.  Distinct
 * SimSystem instances share no mutable state — the only globals
 * they touch are the logging quiet flag (atomic, see
 * sim/logging.hh) and the const application catalogs
 * (thread-safe-initialized function statics) — so any number of
 * systems may be built and run concurrently on distinct threads.
 * The sweep runner (system/sweep.hh) relies on exactly this.
 */

#ifndef VSNOOP_SYSTEM_SIM_SYSTEM_HH_
#define VSNOOP_SYSTEM_SIM_SYSTEM_HH_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coherence/region_filter.hh"
#include "coherence/system.hh"
#include "core/vsnoop.hh"
#include "noc/mesh.hh"
#include "system/driver.hh"
#include "trace/critpath.hh"
#include "trace/pagemon.hh"
#include "trace/timeseries.hh"
#include "trace/trace.hh"
#include "virt/hypervisor.hh"
#include "virt/vcpu_map.hh"
#include "workload/app_profile.hh"
#include "workload/generator.hh"

namespace vsnoop
{

/** Which snoop destination-set policy to instantiate. */
enum class PolicyKind : std::uint8_t
{
    /** Broadcast TokenB baseline. */
    TokenB,
    /** Virtual snooping (the paper's proposal). */
    VirtualSnoop,
    /** Idealized region filter (RegionScout/CGCT upper bound). */
    IdealRegionFilter,
};

/**
 * Full-system configuration.
 */
struct SystemConfig
{
    std::uint32_t numVms = 4;
    std::uint32_t vcpusPerVm = 4;
    /** Mesh geometry; numCores = width * height. */
    MeshConfig mesh;
    /** Use an ideal crossbar instead of the mesh (ablation). */
    bool idealNetwork = false;
    Tick crossbarLatency = 8;
    ProtocolConfig protocol;
    CacheGeometry l2;
    PolicyKind policy = PolicyKind::VirtualSnoop;
    VsnoopConfig vsnoop;
    /** Region granularity for the ideal region filter. */
    std::uint64_t regionBytes = 1024;
    HypervisorConfig hypervisor;
    /** vCPU shuffle period in ticks; 0 pins VMs (no relocation). */
    Tick migrationPeriod = 0;
    /**
     * Optional credit-scheduler placement trace to replay instead
     * of random shuffles (overrides migrationPeriod and the default
     * one-to-one placement).  Record one with
     * SchedConfig::recordTrace.
     */
    std::shared_ptr<const std::vector<PlacementEvent>> placementTrace;
    /** Trace time scale: simulation ticks per trace millisecond. */
    double traceTicksPerMs = 20000.0;
    /** Accesses each vCPU performs in the measurement phase. */
    std::uint64_t accessesPerVcpu = 50000;
    /**
     * Warmup accesses per vCPU before statistics are reset; keeps
     * cold misses out of the measured miss mix (the paper's runs
     * are long enough that cold misses are negligible).
     */
    std::uint64_t warmupAccessesPerVcpu = 0;
    /** Run the ideal content scan before measurement. */
    bool contentScan = true;
    /** Re-run the content scan after this many ticks (0 = never);
     *  models the hypervisor's periodic hashing. */
    Tick contentScanPeriod = 0;
    /** Check token conservation every N dispatched events
     *  (0 = never); used by integration tests. */
    std::uint64_t invariantCheckPeriod = 0;
    /**
     * @{ Observability (src/trace).  captureTrace attaches an
     * in-memory TraceSink of up to traceLimit records; tracePath
     * additionally makes collectRun() export it as a Chrome trace
     * (and implies capture).  timeseriesInterval > 0 samples the
     * interval time series every N ticks into results.
     */
    bool captureTrace = false;
    std::uint64_t traceLimit = 1u << 20;
    std::string tracePath;
    Tick timeseriesInterval = 0;
    /** @} */
    /**
     * @{ Simulator-internals perfmon (sim/perfmon.hh).  perf
     * attaches counter blocks to the event queue, the protocol
     * FlatMaps and the mesh, and emits a results.perf block; off by
     * default so run JSON stays byte-identical.  Occupancy
     * histograms sample every perfSampleInterval ticks (or at
     * timeseriesInterval when a time series is also on, so the two
     * samplers share one event chain).
     */
    bool perf = false;
    Tick perfSampleInterval = 10000;
    /** @} */
    /**
     * @{ Page-level snoop forensics (trace/pagemon.hh).  pages
     * attaches a PageMon charging per-host-page attribution at the
     * snoopLookups sites and emits a results.pages block; off by
     * default so run JSON stays byte-identical.  pagesTop bounds the
     * heavy-hitter table.  watchPages promotes transactions touching
     * the listed host pages to full lifecycle tracing (implies a
     * trace sink, and filters transaction records to those pages).
     */
    bool pages = false;
    std::uint32_t pagesTop = 64;
    std::vector<std::uint64_t> watchPages;
    /** @} */
    std::uint64_t seed = 1;

    std::uint32_t numCores() const { return mesh.width * mesh.height; }
};

/**
 * Aggregated results of one run.
 */
struct SystemResults
{
    /** Tick at which the last vCPU finished its quota. */
    Tick runtime = 0;
    /** Coherence transactions (L2 misses + upgrades). */
    std::uint64_t transactions = 0;
    /** Snoop lookups induced (the Figures 7/8 metric). */
    std::uint64_t snoopLookups = 0;
    /** Total network traffic in byte-hops (the Table IV metric). */
    std::uint64_t trafficByteHops = 0;
    /** Transient retries and persistent escalations. */
    std::uint64_t retries = 0;
    std::uint64_t persistentRequests = 0;
    /** Evictions that wrote dirty data back to memory. */
    std::uint64_t dirtyWritebacks = 0;
    /** Completed-transaction data sources (all / RO-only). */
    std::uint64_t dataFrom[kNumDataSources] = {};
    std::uint64_t roDataFrom[kNumDataSources] = {};
    /** Accesses and misses by generated category (summed). */
    std::uint64_t accessesByCategory[kNumAccessCategories] = {};
    std::uint64_t missesByCategory[kNumAccessCategories] = {};
    std::uint64_t totalAccesses = 0;
    std::uint64_t totalMisses = 0;
    /** Mean transaction latency (ticks). */
    double meanMissLatency = 0.0;
    /** Mean RO-shared transaction latency (ticks). */
    double meanRoMissLatency = 0.0;
    /** @{ Log2-bucketed transaction-latency histograms (ticks). */
    LatencyHistogram latency;
    LatencyHistogram latencyByReason[kNumFilterReasons];
    LatencyHistogram latencyFirstTry;
    LatencyHistogram latencyRetried;
    /** @} */
    /** Per-link traffic (empty for the ideal crossbar). */
    std::vector<LinkStat> links;
    /** vCPU map maintenance (VirtualSnoop only). */
    std::uint64_t mapAdds = 0;
    std::uint64_t mapRemovals = 0;
    std::uint64_t migrations = 0;
    /** Interval time series (empty unless timeseriesInterval > 0). */
    TimeSeries series;
    /** @{ Critical-path attribution (always on; trace/critpath.hh):
     *  per-segment latency decomposition and the requester-VM x
     *  target-VM interference matrices. */
    CritPathSnapshot critpath;
    InterferenceSnapshot interference;
    /** @} */
    /** Simulator-internals counters (perf.enabled iff --perf). */
    PerfMon perf;
    /** Per-page attribution (pages.enabled iff --pages). */
    PagesSnapshot pages;
};

/**
 * One live-progress observation, reported from inside run().
 *
 * Samples are taken at the simulation loop's slice boundaries (and
 * once at start and end), so the callback sees monotonically
 * advancing ticks and counts.  Reporting only reads statistics —
 * it never touches the RNG or the event queue — so attaching a
 * callback cannot change simulation results.
 */
struct ProgressSample
{
    Tick tick = 0;
    /** Accesses completed across all vCPUs (warmup included). */
    std::uint64_t accessesIssued = 0;
    /** Total access quota across all vCPUs (warmup included). */
    std::uint64_t accessesTarget = 0;
    std::uint64_t transactions = 0;
    std::uint64_t snoopLookups = 0;
    /** @{ VirtualSnoop only; zero under other policies. */
    std::uint64_t filteredRequests = 0;
    std::uint64_t broadcastRequests = 0;
    /** @} */
    std::uint64_t trafficByteHops = 0;
    /** Events dispatched by the simulation kernel so far. */
    std::uint64_t eventsProcessed = 0;
    /** True for the final sample, after the drain. */
    bool finished = false;
};

/** Live-progress observer; invoked on the simulating thread. */
using ProgressFn = std::function<void(const ProgressSample &)>;

class StatSet;

/**
 * The assembled simulation.
 */
class SimSystem
{
  public:
    /**
     * Build a system running @p app in every VM (the paper's
     * methodology: N instances of the same application).
     */
    SimSystem(const SystemConfig &config, const AppProfile &app);

    /** Build a system with one profile per VM. */
    SimSystem(const SystemConfig &config,
              const std::vector<AppProfile> &apps);

    /** Run until every vCPU reaches its access quota. */
    void run();

    /** Collected results (valid after run()). */
    SystemResults results() const;

    /** @{ Component access for tests and detailed benches. */
    EventQueue &eventQueue() { return eq_; }
    CoherenceSystem &coherence() { return *coherence_; }
    Hypervisor &hypervisor() { return hypervisor_; }
    VcpuMapping &mapping() { return mapping_; }
    Network &network() { return *network_; }
    /** Null when the TokenB policy is active. */
    VirtualSnoopPolicy *vsnoopPolicy() { return vsnoopPolicy_; }
    /** Null unless captureTrace / tracePath requested a sink. */
    TraceSink *trace() { return trace_.get(); }
    const TraceSink *trace() const { return trace_.get(); }
    /** Null unless pages / watchPages requested a monitor. */
    PageMon *pagemon() { return pagemon_.get(); }
    const PageMon *pagemon() const { return pagemon_.get(); }
    /**
     * Attach a host self-profiler (sim/profiler.hh) before run().
     * The caller owns it and must keep it alive for the run; run()
     * brackets the simulation with begin()/end() and the
     * instrumented components charge their phases to it.
     */
    void setProfiler(HostProfiler *profiler);
    /**
     * Attach a live-progress observer before run(); invoked on the
     * simulating thread once at start, at every execution slice,
     * and once (with finished = true) after the drain.  Empty
     * detaches.  Observation is read-only, so results and run JSON
     * are byte-identical with or without a callback.
     */
    void setProgressCallback(ProgressFn fn) { progress_ = std::move(fn); }
    /**
     * Register the system's statistics (coherence counters and
     * latency distributions, policy filter counters, memory
     * activity) with a StatSet for live metrics export
     * (StatSet::registerMetrics()).  The set borrows references; it
     * must not outlive this system.
     */
    void registerStats(StatSet &set) const;
    const SystemConfig &config() const { return config_; }
    VcpuDriver &driver(VCpuId vcpu) { return *drivers_.at(vcpu); }
    std::size_t numDrivers() const { return drivers_.size(); }
    /** @} */

  private:
    void build(const std::vector<AppProfile> &apps);

    /** Arm the next periodic content scan. */
    void scheduleContentScan();

    /** Zero every statistic at the warmup boundary. */
    void resetAllStats();

    /** Invoke the progress callback with a fresh sample. */
    void reportProgress(bool finished);

    SystemConfig config_;
    EventQueue eq_;
    std::unique_ptr<Network> network_;
    std::unique_ptr<SnoopTargetPolicy> policy_;
    VirtualSnoopPolicy *vsnoopPolicy_ = nullptr;
    std::unique_ptr<CoherenceSystem> coherence_;
    Hypervisor hypervisor_;
    VcpuMapping mapping_;
    std::vector<std::unique_ptr<VcpuDriver>> drivers_;
    std::unique_ptr<ShuffleMigrator> migrator_;
    std::unique_ptr<TraceMigrator> traceMigrator_;
    std::unique_ptr<TraceSink> trace_;
    std::unique_ptr<PageMon> pagemon_;
    std::unique_ptr<IntervalSampler> sampler_;
    std::unique_ptr<PerfMon> perfmon_;
    /** The mesh when !idealNetwork (perf hooks); else nullptr. */
    Mesh *mesh_ = nullptr;
    HostProfiler *profiler_ = nullptr;
    ProgressFn progress_;
    /** Stops auxiliary event chains (periodic scans) at run end. */
    bool stopAux_ = false;
    /** Tick at which warmup ended and measurement began. */
    Tick warmupEnd_ = 0;
};

} // namespace vsnoop

#endif // VSNOOP_SYSTEM_SIM_SYSTEM_HH_
