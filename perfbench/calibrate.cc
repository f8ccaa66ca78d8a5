/**
 * @file
 * The traced run's per-layer ledger.
 *
 * Per-op costs are calibrated by timing each layer's public function
 * on inputs generated from the workload's own configuration: the
 * access stream its VcpuWorkloads produce, the targets its policy
 * picks for those accesses, the mesh legs those targets walk, the
 * event delays those legs produce, its L2 geometry.  The ledger then
 * multiplies each cost by the operation count of real runs (perfmon,
 * the event queue, and progress samples carried across the warmup
 * reset) and compares the sum with the untraced run's wall time:
 * no clock is read on the simulator's hot path.
 *
 * The controller's own cost is the one term not timed on its own: it
 * is what a coherence-only replay of the stream leaves after the
 * other layers' shares.  So the residual checks that generation plus
 * that replay account for the run; it cannot tell which layer under
 * the controller is mis-costed.
 */

#include <algorithm>
#include <filesystem>
#include <memory>

#include "mem/cache.hh"
#include "noc/mesh.hh"
#include "perfbench.hh"
#include "service/result_store.hh"
#include "service/sweep_wire.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/profiler.hh"
#include "sim/rng.hh"
#include "system/run_result.hh"
#include "workload/app_profile.hh"

using namespace vsnoop;

namespace perfbench
{

namespace
{

/** Defeats dead-code elimination of timed calls. */
volatile std::uint64_t g_sink = 0;

double
nanosSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/** Per-op host costs of the simulator layers for one config. */
struct LayerCosts
{
    double nextNs = 0, findHitNs = 0, findMissNs = 0, targetsNs = 0,
           sendNs = 0, dispatchNs = 0, missNs = 0;
};

/** One generated access and the core that issues it. */
struct Issue
{
    CoreId core = 0;
    MemAccess access;
    Tick gap = 1;
};

/** Every vCPU's access stream, round-robin as the drivers issue it
 *  (generated on @p system's hypervisor, as the run would). */
std::vector<Issue>
generateIssues(SimSystem &system, const AppProfile &app, double *nsPer)
{
    const SystemConfig &config = system.config();
    std::vector<VcpuWorkload> streams;
    std::vector<CoreId> cores;
    streams.reserve(config.numVms * config.vcpusPerVm);
    for (VmId vm = 0; vm < config.numVms; ++vm) {
        for (std::uint32_t i = 0; i < config.vcpusPerVm; ++i) {
            streams.emplace_back(system.hypervisor(), vm, i, app,
                                 config.seed);
            cores.push_back(static_cast<CoreId>(vm * config.vcpusPerVm + i));
        }
    }
    std::uint64_t perVcpu =
        config.warmupAccessesPerVcpu + config.accessesPerVcpu;
    std::vector<Issue> issues;
    issues.reserve(perVcpu * streams.size());
    Clock::time_point start = Clock::now();
    for (std::uint64_t n = 0; n < perVcpu; ++n) {
        for (std::size_t v = 0; v < streams.size(); ++v) {
            VcpuWorkload::Step step = streams[v].next();
            issues.push_back(Issue{cores[v], step.access, step.gap});
        }
    }
    if (nsPer != nullptr)
        *nsPer = nanosSince(start) / static_cast<double>(issues.size());
    return issues;
}

/** Operation counts of one replay or run, for the ledger. */
struct Counts
{
    double accesses = 0, transactions = 0, snoops = 0, decisions = 0,
           legs = 0, events = 0;
};

/**
 * What the non-coherence layers cost in a replay of @p c, in ns.
 * snoopLookups already counts the requester's own missing lookup.
 */
double
replayOthersNs(const Counts &c, const LayerCosts &k)
{
    double hits = std::max(0.0, c.accesses - c.transactions);
    return hits * k.findHitNs + c.snoops * k.findMissNs +
           c.decisions * k.targetsNs + c.legs * k.sendNs +
           c.events * k.dispatchNs;
}

/**
 * Replay @p issues through the coherence layer one round at a time:
 * every vCPU's next access issued at once, then drained, so the
 * protocol sees the run's concurrency without its drivers.
 */
Counts
replay(SimSystem &system, const std::vector<Issue> &issues)
{
    EventQueue &eq = system.eventQueue();
    CoherenceSystem &coherence = system.coherence();
    std::uint64_t events0 = eq.eventsProcessed();
    const std::size_t round =
        system.config().numVms * system.config().vcpusPerVm;
    for (std::size_t i = 0; i < issues.size(); i += round) {
        for (std::size_t j = i; j < std::min(i + round, issues.size()); ++j)
            coherence.access(issues[j].core, issues[j].access,
                             [](Tick, DataSource, bool) {});
        eq.run();
    }
    Counts c;
    c.accesses = static_cast<double>(issues.size());
    c.transactions = static_cast<double>(coherence.stats.transactions.value());
    c.snoops = static_cast<double>(coherence.stats.snoopLookups.value());
    c.decisions =
        c.transactions + static_cast<double>(coherence.stats.retries.value());
    c.events = static_cast<double>(eq.eventsProcessed() - events0);
    return c;
}

LayerCosts
calibrateLayers(const SystemConfig &traced, const std::string &appName,
                Report &report)
{
    SystemConfig config = traced;
    config.perf = false;
    const AppProfile &app = findApp(appName);
    LayerCosts k;

    SimSystem gen(config, app);
    std::vector<Issue> issues = generateIssues(gen, app, &k.nextNs);

    // Translation of the guest pages the stream mapped (reads, so
    // nothing is allocated or broken): a sub-cost of workload.next.
    {
        std::vector<std::pair<VmId, GuestAddr>> picks;
        std::vector<std::pair<VmId, std::uint64_t>> pages;
        for (VmId vm = 0; vm < config.numVms; ++vm)
            gen.hypervisor().pageTable(vm).forEach(
                [&](std::uint64_t page, const PageTableEntry &) {
                    pages.emplace_back(vm, page);
                });
        Rng rng(config.seed, 0x7a);
        for (std::size_t i = 0; i < 100000 && !pages.empty(); ++i) {
            const auto &[vm, page] =
                pages[rng.below(static_cast<std::uint32_t>(pages.size()))];
            picks.emplace_back(vm, makeGuestAddr(page, 0));
        }
        Clock::time_point start = Clock::now();
        std::uint64_t sink = 0;
        for (const auto &[vm, addr] : picks)
            sink += gen.hypervisor().translateData(vm, addr, false).addr.raw();
        g_sink = sink;
        if (!picks.empty())
            report.samples["virt.translate_ns"].push_back(
                nanosSince(start) / static_cast<double>(picks.size()));
    }

    // Snoop-target decisions by the system's own policy.
    std::vector<std::pair<CoreId, CoreId>> pairs;
    {
        SnoopTargetPolicy &policy = gen.coherence().policy();
        Clock::time_point start = Clock::now();
        std::uint64_t sink = 0;
        for (const Issue &issue : issues)
            sink += policy.targets(issue.core, issue.access, 1).cores.count();
        k.targetsNs = nanosSince(start) / static_cast<double>(issues.size());
        g_sink = sink;
        for (std::size_t i = 0; i < issues.size() && pairs.size() < 100000;
             ++i) {
            CoreId from = issues[i].core;
            policy.targets(from, issues[i].access, 1)
                .cores.forEach([&](CoreId to) {
                    pairs.emplace_back(from, to);
                    pairs.emplace_back(to, from);
                });
        }
    }

    // Tag lookups on the workload's L2 geometry, filled with one
    // core's stream: hits on lines it holds, misses on other cores'
    // lines it does not.
    {
        Cache cache(config.l2.sizeBytes, config.l2.ways);
        for (const Issue &issue : issues) {
            if (issue.core != 0 || cache.find(issue.access.addr))
                continue;
            CacheLine &slot = cache.victimFor(issue.access.addr);
            if (slot.valid)
                cache.remove(slot);
            cache.install(slot, issue.access.addr, issue.access.vm,
                          issue.access.pageType, 1, false, false);
        }
        std::vector<HostAddr> hits, misses;
        for (const Issue &issue : issues) {
            bool present = cache.find(issue.access.addr) != nullptr;
            if (present && issue.core == 0)
                hits.push_back(issue.access.addr);
            else if (!present && issue.core != 0)
                misses.push_back(issue.access.addr);
        }
        auto timeFinds = [&](const std::vector<HostAddr> &addrs) {
            if (addrs.empty())
                return 0.0;
            std::size_t calls = std::max<std::size_t>(addrs.size(), 100000);
            std::uint64_t sink = 0;
            Clock::time_point start = Clock::now();
            for (std::size_t i = 0; i < calls; ++i)
                sink += cache.find(addrs[i % addrs.size()]) != nullptr;
            g_sink = sink;
            return nanosSince(start) / static_cast<double>(calls);
        };
        k.findHitNs = timeFinds(hits);
        k.findMissNs = timeFinds(misses);
    }

    // Mesh walks of those request/response pairs, departing as the
    // stream's think gaps advance time; the arrival delays feed the
    // event-queue calibration below.
    std::vector<Tick> delays;
    if (!config.idealNetwork && !pairs.empty()) {
        auto walk = [&](MeshPerf *perf) {
            Mesh mesh(config.mesh);
            mesh.setPerf(perf);
            Tick now = 0;
            std::uint64_t sink = 0;
            Clock::time_point start = Clock::now();
            for (std::size_t i = 0; i < pairs.size(); ++i) {
                now += issues[(i / 2) % issues.size()].gap;
                bool request = (i % 2) == 0;
                Tick arrive = mesh.send(
                    pairs[i].first, pairs[i].second,
                    request ? config.protocol.controlBytes
                            : config.protocol.dataBytes,
                    request ? MsgClass::Request : MsgClass::Data, now);
                sink += arrive;
                if (perf != nullptr)
                    delays.push_back(arrive - now);
            }
            g_sink = sink;
            return nanosSince(start);
        };
        MeshPerf counted;
        walk(&counted);
        double ns = walk(nullptr);
        if (counted.legLength.count() > 0)
            k.sendNs = ns / static_cast<double>(counted.legLength.count());
    }
    if (delays.empty())
        delays.push_back(config.crossbarLatency);

    // Event dispatch: 64 self-rescheduling chains stepping through
    // the walks' delays (each dispatch schedules its successor, as
    // protocol events do).
    {
        EventQueue eq;
        struct Chains
        {
            EventQueue *eq;
            const std::vector<Tick> *delays;
            std::size_t next = 0;
            void fire()
            {
                Tick d = (*delays)[next++ % delays->size()];
                eq->scheduleFnIn(std::max<Tick>(1, d), [this] { fire(); });
            }
        } chains{&eq, &delays};
        for (int c = 0; c < 64; ++c)
            chains.fire();
        const std::uint64_t events = 300000;
        Clock::time_point start = Clock::now();
        eq.run(events);
        k.dispatchNs = nanosSince(start) / static_cast<double>(events);
    }

    // Coherence controller self-cost: replay the stream through the
    // coherence layer of a fresh system (counted on a perf-attached
    // twin), then subtract the other layers' calibrated shares.  It
    // is a remainder, not an independent timing: an error in another
    // layer's cost lands here, and stats.py flags it if negative.
    {
        SystemConfig counted_config = config;
        counted_config.perf = true;
        SimSystem twin(counted_config, app);
        Counts c = replay(twin, generateIssues(twin, app, nullptr));
        c.legs = static_cast<double>(
            twin.results().perf.mesh.legLength.count());

        SimSystem timed(config, app);
        std::vector<Issue> stream = generateIssues(timed, app, nullptr);
        Clock::time_point start = Clock::now();
        replay(timed, stream);
        double ns = nanosSince(start);
        if (c.transactions > 0)
            k.missNs = (ns - replayOthersNs(c, k)) / c.transactions;
    }
    return k;
}

/** Transactions and snoop lookups across the warmup reset. */
struct ProgressCarry
{
    std::uint64_t lastTxn = 0, lastSnoops = 0, carryTxn = 0,
                  carrySnoops = 0;

    void
    operator()(const ProgressSample &s)
    {
        // The warmup boundary zeroes the counters between two
        // samples; bank what the warmup counted.
        if (s.transactions < lastTxn) {
            carryTxn += lastTxn;
            carrySnoops += lastSnoops;
        }
        lastTxn = s.transactions;
        lastSnoops = s.snoopLookups;
    }
};

} // namespace

void
measureSystemLayer(const std::vector<PoolRun> &runs, const Options &opt,
                   double seconds, std::size_t firstOp, Report &report)
{
    std::size_t op = firstOp;
    auto push = [&](const char *name, double value) {
        report.samples[name].push_back(value);
    };
    Clock::time_point window = Clock::now();
    for (std::size_t i = 0; i < runs.size() || secondsSince(window) < seconds;
         ++i) {
        const PoolRun &run = runs[i % runs.size()];
        const AppProfile &app = findApp(run.app);
        // Calibrated next to the runs it explains, so a drift in
        // host speed moves both sides of the ledger alike.
        LayerCosts k = calibrateLayers(run.config, run.app, report);

        // Untraced: the wall time the ledger must explain.
        SystemConfig plain = run.config;
        plain.perf = false;
        double runStart = nowUs();
        Clock::time_point t0 = Clock::now();
        auto system = std::make_unique<SimSystem>(plain, app);
        Clock::time_point t1 = Clock::now();
        system->run();
        Clock::time_point t2 = Clock::now();
        std::string line = collectResults(*system, run.app).toJson();
        Clock::time_point t3 = Clock::now();
        system.reset();
        double buildNs = std::chrono::duration<double, std::nano>(t1 - t0).count();
        double runNs = std::chrono::duration<double, std::nano>(t2 - t1).count();
        double collectNs =
            std::chrono::duration<double, std::nano>(t3 - t2).count();
        std::string hash = recordDigest(line);
        report.spans.push_back(Span{"run", runStart, nowUs(), "", hash});
        report.spans.push_back(Span{"build", runStart, runStart + buildNs / 1e3,
                                    "run", hash});
        report.spans.push_back(Span{"run()", runStart + buildNs / 1e3,
                                    runStart + (buildNs + runNs) / 1e3,
                                    "run", hash});
        report.spans.push_back(Span{"collect",
                                    runStart + (buildNs + runNs) / 1e3,
                                    runStart + (buildNs + runNs +
                                                collectNs) / 1e3,
                                    "run", hash});
        observe(report, opt, op++, run.id, std::move(line));
        ++report.attempted;
        ++report.records;
        push("system.build_ms", buildNs / 1e6);
        push("system.run_ms", runNs / 1e6);
        push("system.collect_ms", collectNs / 1e6);

        // Traced: perfmon + host profiler + progress counts.
        SystemConfig traced = run.config;
        traced.perf = true;
        HostProfiler profiler;
        ProgressCarry carry;
        SimSystem tsys(traced, app);
        tsys.setProfiler(&profiler);
        tsys.setProgressCallback(
            [&carry](const ProgressSample &s) { carry(s); });
        Clock::time_point s0 = Clock::now();
        tsys.run();
        double tracedNs = nanosSince(s0);
        RunResult result = collectResults(tsys, run.app);
        observe(report, opt, op++, run.id, result.toJson());
        ++report.attempted;
        ++report.records;
        push("system.trace_overhead", tracedNs / runNs - 1.0);

        const SystemResults &r = result.results;
        const PerfMon &perf = r.perf;
        Counts c;
        for (std::size_t v = 0; v < tsys.numDrivers(); ++v)
            c.accesses += static_cast<double>(tsys.driver(v).issued());
        c.transactions = static_cast<double>(carry.carryTxn + carry.lastTxn);
        c.snoops =
            static_cast<double>(carry.carrySnoops + carry.lastSnoops);
        // Retries are only reported for the measured phase; scale
        // them to the whole run by its transaction share.
        double retryRate =
            r.transactions ? static_cast<double>(r.retries) / r.transactions
                           : 0.0;
        c.decisions = c.transactions * (1.0 + retryRate);
        c.legs = static_cast<double>(perf.mesh.legLength.count());
        c.events = static_cast<double>(tsys.eventQueue().eventsProcessed());

        double hits = std::max(0.0, c.accesses - c.transactions);
        report.ledger.insert(
            report.ledger.end(),
            {{"workload.next_ns", c.accesses, k.nextNs},
             {"mem.find_hit_ns", hits, k.findHitNs},
             {"mem.find_miss_ns", c.snoops, k.findMissNs},
             {"core.targets_ns", c.decisions, k.targetsNs},
             {"noc.send_ns", c.legs, k.sendNs},
             {"sim.dispatch_ns", c.events, k.dispatchNs},
             {"coherence.miss_ns", c.transactions, k.missNs}});
        report.ledgerWallNs += runNs;

        double total = static_cast<double>(profiler.totalNanos());
        auto share = [&](HostProfiler::Phase phase) {
            return total > 0
                       ? static_cast<double>(profiler.phaseNanos(phase)) / total
                       : 0.0;
        };
        push("system.profile.generate_share",
             share(HostProfiler::Phase::Generate));
        push("system.profile.coherence_share",
             share(HostProfiler::Phase::Coherence));
        push("system.profile.drain_share", share(HostProfiler::Phase::Drain));
        push("system.profile.other_share",
             share(HostProfiler::Phase::Other) +
                 share(HostProfiler::Phase::Network));
        push("system.host_ns_per_event", runNs / std::max(1.0, c.events));

        push("workload.accesses", static_cast<double>(r.totalAccesses));
        push("virt.migrations", static_cast<double>(r.migrations));
        push("virt.map_changes",
             static_cast<double>(r.mapAdds + r.mapRemovals));
        std::uint32_t cores = traced.numCores();
        push("core.filtered_share",
             r.transactions
                 ? std::max(0.0,
                            1.0 - static_cast<double>(r.snoopLookups) /
                                      (static_cast<double>(r.transactions) *
                                       cores))
                 : 0.0);
        push("coherence.transactions", static_cast<double>(r.transactions));
        push("coherence.snoop_lookups", static_cast<double>(r.snoopLookups));
        push("coherence.snoops_per_txn",
             static_cast<double>(r.snoopLookups) /
                 std::max<double>(1.0, static_cast<double>(r.transactions)));
        push("coherence.retries", static_cast<double>(r.retries));
        push("noc.legs", c.legs);
        push("noc.hops", static_cast<double>(perf.mesh.legLength.sum()));
        push("sim.events", c.events);
        push("sim.schedules",
             static_cast<double>(perf.eventQueue.schedules));
        push("sim.pool_refills",
             static_cast<double>(perf.eventQueue.poolRefills));
        const FlatTablePerf *tables[] = {&perf.mshrs, &perf.inflight,
                                         &perf.memoryLedger};
        double probes = 0, lookups = 0;
        for (const FlatTablePerf *t : tables) {
            probes += static_cast<double>(t->probeLength.sum());
            lookups += static_cast<double>(t->probeLength.count());
        }
        push("sim.probe_mean", lookups ? probes / lookups : 0.0);
    }
}

void
calibrateService(const std::vector<std::string> &bodies,
                 const std::vector<PoolRun> &runs,
                 const std::vector<std::string> &records,
                 const Options &opt, Report &report)
{
    auto perCallUs = [&](const char *name, std::size_t calls, auto &&fn) {
        for (int batch = 0; batch < 5; ++batch) {
            Clock::time_point start = Clock::now();
            for (std::size_t i = 0; i < calls; ++i)
                fn(i);
            report.samples[name].push_back(nanosSince(start) / 1e3 /
                                           static_cast<double>(calls));
        }
    };
    perCallUs("service.wire_parse_us", 200, [&](std::size_t i) {
        std::optional<JsonValue> doc = parseJson(bodies[i % bodies.size()]);
        SweepRequest request;
        std::string error;
        if (!doc || !parseSweepRequest(*doc, &request, &error))
            throw std::runtime_error("calibration body rejected: " + error);
    });
    perCallUs("service.cache_key_us", 200, [&](std::size_t i) {
        const PoolRun &run = runs[i % runs.size()];
        g_sink = runCacheKey(run.config, run.app).size();
    });

    std::string dir = opt.workDir + "/store-calibration";
    std::filesystem::remove_all(dir);
    ResultStore store;
    std::string error;
    if (!store.open(dir, std::uint64_t(1) << 32, &error))
        throw std::runtime_error("calibration store: " + error);
    std::vector<std::string> keys;
    for (const PoolRun &run : runs)
        keys.push_back(runCacheKey(run.config, run.app));
    std::size_t stored = std::min(records.size(), keys.size());
    perCallUs("service.store_put_us", stored, [&](std::size_t i) {
        store.put(keys[i], records[i]);
    });
    // Hits: the read path a resubmitted matrix takes (a cold run's
    // own lookup is a cheap in-memory miss).
    perCallUs("service.store_get_us", 200, [&](std::size_t i) {
        g_sink = store.get(keys[i % stored]).has_value();
    });
    std::filesystem::remove_all(dir);
}

} // namespace perfbench
