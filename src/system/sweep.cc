#include "system/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>

#include "sim/logging.hh"
#include "system/config_schema.hh"

namespace vsnoop
{

std::size_t
SweepMatrix::runCount() const
{
    // Saturate: wire axes accept duplicates, so a product that wraps
    // must not slip under a caller's cap.
    std::size_t runs = 1;
    for (std::size_t axis : {apps.size(), policies.size(),
                             relocations.size(), roPolicies.size(),
                             seeds.size()})
        if (__builtin_mul_overflow(runs, axis, &runs))
            return SIZE_MAX;
    return runs;
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
           const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, count));
    if (jobs == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next.fetch_add(1);
             i < count;
             i = next.fetch_add(1))
            fn(i);
    };
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
}

} // namespace vsnoop
