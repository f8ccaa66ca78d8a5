/**
 * @file
 * Multi-configuration sweeps: the matrix and a generic worker pool.
 *
 * The evaluation workload of this repository — like the source
 * paper's Figures 6-10 (3 policies x 4 relocation modes x 4 RO
 * policies x ~10 apps) — is embarrassingly parallel: many
 * independent single-threaded SimSystem runs.  This layer expands
 * a cross-product of configuration axes into a deterministic run
 * list.  A matrix executes as one job on JobQueue
 * (service/job_queue.hh), the one run engine, which vsnoopsweep and
 * vsnoopserve share; runIndexed() is the plain pool the benches use
 * for their own run lists.
 *
 * Concurrency contract ("one SimSystem per thread"): each run
 * builds, executes, and destroys its own SimSystem entirely on one
 * worker thread; SimSystem instances share no mutable state (see
 * system/sim_system.hh).  Results are stored into pre-sized slots
 * indexed by the run's position in the expanded matrix, so output
 * order — and, with per-run seeds, output bytes — are identical
 * for any worker count.
 */

#ifndef VSNOOP_SYSTEM_SWEEP_HH_
#define VSNOOP_SYSTEM_SWEEP_HH_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "system/sim_system.hh"

namespace vsnoop
{

/**
 * One point of the sweep cross-product.
 */
struct SweepPoint
{
    std::string app;
    PolicyKind policy = PolicyKind::VirtualSnoop;
    RelocationMode relocation = RelocationMode::Counter;
    RoPolicy roPolicy = RoPolicy::Broadcast;
    std::uint64_t seed = 1;
};

/**
 * A sweep: configuration axes crossed over a base configuration.
 *
 * Every axis must be non-empty; expand() emits apps-major,
 * seeds-minor order (app, policy, relocation, ro_policy, seed),
 * matching the nesting of the paper's figure sweeps.
 */
struct SweepMatrix
{
    std::vector<std::string> apps;
    std::vector<PolicyKind> policies = {PolicyKind::VirtualSnoop};
    std::vector<RelocationMode> relocations = {RelocationMode::Counter};
    std::vector<RoPolicy> roPolicies = {RoPolicy::Broadcast};
    std::vector<std::uint64_t> seeds = {1};
    /** Template configuration; each point overrides the policy
     *  fields and the seed. */
    SystemConfig base;
    /**
     * When non-empty, every run writes a Chrome trace to
     * `<traceDir>/<app>-<policy>-<relocation>-<ro>-s<seed>.trace.json`
     * (see traceFileName()).  The directory must exist.  Trace
     * files are per-run, so parallel workers never share one and
     * sweep stdout stays byte-identical for any job count.
     */
    std::string traceDir;

    /** The product of the axis sizes, or SIZE_MAX if it overflows. */
    std::size_t runCount() const;

    /** The cross-product in deterministic order. */
    std::vector<SweepPoint> expand() const;

    /** The base configuration specialized to one point. */
    SystemConfig configFor(const SweepPoint &point) const;

    /** Trace file name (without directory) for one point. */
    static std::string traceFileName(const SweepPoint &point);
};

/**
 * Invoke fn(0..count-1), spread over up to @p jobs worker threads.
 *
 * The generic worker pool, exposed so benches can
 * parallelize their own run lists.  fn must be safe to call
 * concurrently for distinct indices; each index is invoked exactly
 * once.  jobs == 0 selects hardware concurrency.  Any vsnoop_fatal
 * / vsnoop_panic inside fn terminates the process as in serial
 * code.
 */
void runIndexed(std::size_t count, unsigned jobs,
                const std::function<void(std::size_t)> &fn);

} // namespace vsnoop

#endif // VSNOOP_SYSTEM_SWEEP_HH_
