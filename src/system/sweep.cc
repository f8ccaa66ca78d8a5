#include "system/sweep.hh"

#include <atomic>
#include <mutex>
#include <thread>

#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "system/heartbeat.hh"

namespace vsnoop
{

std::size_t
SweepMatrix::runCount() const
{
    return apps.size() * policies.size() * relocations.size() *
           roPolicies.size() * seeds.size();
}

std::vector<SweepPoint>
SweepMatrix::expand() const
{
    vsnoop_assert(!apps.empty() && !policies.empty() &&
                      !relocations.empty() && !roPolicies.empty() &&
                      !seeds.empty(),
                  "every sweep axis needs at least one value");
    std::vector<SweepPoint> points;
    points.reserve(runCount());
    for (const std::string &app : apps)
        for (PolicyKind policy : policies)
            for (RelocationMode relocation : relocations)
                for (RoPolicy ro : roPolicies)
                    for (std::uint64_t seed : seeds)
                        points.push_back(
                            {app, policy, relocation, ro, seed});
    return points;
}

SystemConfig
SweepMatrix::configFor(const SweepPoint &point) const
{
    SystemConfig cfg = base;
    cfg.policy = point.policy;
    cfg.vsnoop.relocation = point.relocation;
    cfg.vsnoop.roPolicy = point.roPolicy;
    cfg.seed = point.seed;
    if (!traceDir.empty())
        cfg.tracePath = traceDir + "/" + traceFileName(point);
    return cfg;
}

std::string
SweepMatrix::traceFileName(const SweepPoint &point)
{
    std::string name = point.app;
    name += '-';
    name += enumToken(point.policy);
    name += '-';
    name += enumToken(point.relocation);
    name += '-';
    name += enumToken(point.roPolicy);
    name += "-s";
    name += std::to_string(point.seed);
    name += ".trace.json";
    return name;
}

void
runIndexed(std::size_t count, unsigned jobs,
           const std::function<void(std::size_t)> &fn,
           const std::function<bool()> &cancel)
{
    if (count == 0)
        return;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, count));
    if (jobs == 1) {
        for (std::size_t i = 0; i < count; ++i) {
            if (cancel && cancel())
                return;
            fn(i);
        }
        return;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next.fetch_add(1);
             i < count;
             i = next.fetch_add(1)) {
            if (cancel && cancel()) {
                // Drain the dispatch counter so sibling workers
                // stop promptly too.
                next.store(count, std::memory_order_relaxed);
                return;
            }
            fn(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
}

std::vector<RunResult>
runSweep(const SweepMatrix &matrix, unsigned jobs, HostProfiler *profile)
{
    SweepExecution exec = runSweepMonitored(matrix, jobs, profile);
    return std::move(exec.results);
}

std::size_t
SweepExecution::completedCount() const
{
    std::size_t n = 0;
    for (std::uint8_t c : completed)
        n += c != 0;
    return n;
}

SweepExecution
runSweepMonitored(const SweepMatrix &matrix, unsigned jobs,
                  HostProfiler *profile, SweepHeartbeat *heartbeat,
                  const std::function<bool()> &cancel,
                  const std::function<void(std::size_t, const RunResult &)>
                      &onRunDone)
{
    std::vector<SweepPoint> points = matrix.expand();
    vsnoop_assert(heartbeat == nullptr ||
                      heartbeat->runCount() == points.size(),
                  "heartbeat cell count does not match the matrix");
    // Resolve profiles up front: findApp() is fatal on a bad name,
    // and failing before the pool spins up gives a clean error.
    std::vector<const AppProfile *> profiles;
    profiles.reserve(points.size());
    for (const SweepPoint &p : points)
        profiles.push_back(&findApp(p.app));

    SweepExecution exec;
    exec.results.resize(points.size());
    exec.completed.assign(points.size(), 0);
    std::mutex profile_mutex;
    if (heartbeat != nullptr)
        heartbeat->markLaunched(steadyNowMs());
    runIndexed(points.size(), jobs, [&](std::size_t i) {
        ProgressFn progress;
        if (heartbeat != nullptr) {
            RunProgress &cell = heartbeat->run(i);
            cell.start(steadyNowMs());
            progress = [&cell](const ProgressSample &sample) {
                cell.update(sample, steadyNowMs());
            };
        }
        if (profile == nullptr) {
            exec.results[i] =
                collectRun(matrix.configFor(points[i]), *profiles[i],
                           nullptr, std::move(progress));
        } else {
            // Each run profiles into a worker-local collector; only
            // the end-of-run merge takes the lock, so profiling adds
            // no cross-thread traffic to the hot path.
            HostProfiler local;
            exec.results[i] =
                collectRun(matrix.configFor(points[i]), *profiles[i],
                           &local, std::move(progress));
            std::lock_guard<std::mutex> lock(profile_mutex);
            profile->merge(local);
        }
        if (onRunDone)
            onRunDone(i, exec.results[i]);
        if (heartbeat != nullptr)
            heartbeat->run(i).finish(steadyNowMs());
        exec.completed[i] = 1;
    }, cancel);
    exec.interrupted = cancel && cancel();
    if (exec.interrupted && heartbeat != nullptr)
        heartbeat->markInterrupted();
    return exec;
}

} // namespace vsnoop
