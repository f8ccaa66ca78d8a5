/**
 * @file
 * Sweep heartbeat: shared live-progress state for a set of runs.
 *
 * A sweep is a JobQueue job (service/job_queue.hh): worker threads
 * each execute one SimSystem at a time.  The job's heartbeat gives
 * every run a lock-free progress cell (RunProgress, all relaxed
 * atomics) that its worker updates from the SimSystem progress
 * callback; readers — the stats server's handlers, the publisher's
 * stderr heartbeat and watchdog — never block a worker.
 * Nothing here feeds back into simulation state, so run JSON stays
 * byte-identical whether or not anyone is watching.
 *
 * On top of the cells the heartbeat derives the sweep-level view:
 * runs completed / running, throughput, ETA, and the
 * no-forward-progress watchdog (a run is stalled when it is
 * Running but its cell has not advanced for stallMs of wall time —
 * a deadlocked worker, a pathological configuration, or a starved
 * host).  The same view renders three ways: Prometheus series
 * (registerMetrics() onto sim/metrics.hh), the
 * /progress and /runs JSON endpoints, and one-line stderr
 * summaries.
 */

#ifndef VSNOOP_SYSTEM_HEARTBEAT_HH_
#define VSNOOP_SYSTEM_HEARTBEAT_HH_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "system/sweep.hh"

namespace vsnoop
{

class StatsServer;

/** Wall-clock milliseconds on the monotonic steady clock. */
std::uint64_t steadyNowMs();

/** Lifecycle of one run inside a sweep. */
enum class RunState : std::uint8_t
{
    Pending,
    Running,
    Done,
};

/** Token for a RunState ("pending", "running", "done"). */
const char *runStateName(RunState state);

/**
 * One run's live-progress cell.  The owning worker writes (start /
 * update / finish); any thread may read.  All fields are relaxed
 * atomics: readers want a recent view, not a synchronized one, and
 * the seqlock'd metrics snapshot provides cross-metric consistency
 * where it matters.
 */
class RunProgress
{
  public:
    RunProgress() = default;

    /** @{ Worker side. */
    void start(std::uint64_t nowMs);
    void update(const ProgressSample &sample, std::uint64_t nowMs);
    void finish(std::uint64_t nowMs);
    /** @} */

    /** @{ Reader side (relaxed loads). */
    RunState state() const;
    std::uint64_t tick() const { return load(tick_); }
    std::uint64_t accessesIssued() const { return load(issued_); }
    std::uint64_t accessesTarget() const { return load(target_); }
    std::uint64_t transactions() const { return load(transactions_); }
    std::uint64_t snoopLookups() const { return load(snoopLookups_); }
    std::uint64_t filteredRequests() const { return load(filtered_); }
    std::uint64_t broadcastRequests() const { return load(broadcast_); }
    std::uint64_t trafficByteHops() const { return load(byteHops_); }
    std::uint64_t eventsProcessed() const { return load(events_); }
    std::uint64_t startedMs() const { return load(startedMs_); }
    std::uint64_t finishedMs() const { return load(finishedMs_); }
    std::uint64_t lastUpdateMs() const { return load(lastUpdateMs_); }

    /** Completed / target accesses in [0, 1]. */
    double progressRatio() const;

    /** Filtered / (filtered + broadcast) requests; 0 when neither. */
    double filterRate() const;

    /**
     * True when the run is Running but its cell has not been
     * written for more than @p stallMs of wall time.
     */
    bool stalled(std::uint64_t nowMs, std::uint64_t stallMs) const;
    /** @} */

    /** Pre-set the access target so pending runs render totals. */
    void presetTarget(std::uint64_t target);

  private:
    static std::uint64_t load(const std::atomic<std::uint64_t> &v)
    {
        return v.load(std::memory_order_relaxed);
    }

    std::atomic<std::uint8_t> state_{
        static_cast<std::uint8_t>(RunState::Pending)};
    std::atomic<std::uint64_t> tick_{0};
    std::atomic<std::uint64_t> issued_{0};
    std::atomic<std::uint64_t> target_{0};
    std::atomic<std::uint64_t> transactions_{0};
    std::atomic<std::uint64_t> snoopLookups_{0};
    std::atomic<std::uint64_t> filtered_{0};
    std::atomic<std::uint64_t> broadcast_{0};
    std::atomic<std::uint64_t> byteHops_{0};
    std::atomic<std::uint64_t> events_{0};
    std::atomic<std::uint64_t> startedMs_{0};
    std::atomic<std::uint64_t> finishedMs_{0};
    std::atomic<std::uint64_t> lastUpdateMs_{0};
};

/**
 * Live-progress state for one sweep (or a single run: a one-point
 * matrix).  Constructed before workers launch; cells and identity
 * strings are immutable in count and layout afterwards, so readers
 * index freely.
 */
class SweepHeartbeat
{
  public:
    /** Identity of one run, precomputed for labels and JSON. */
    struct RunInfo
    {
        std::string app;
        std::string policy;
        std::string relocation;
        std::string roPolicy;
        std::uint64_t seed = 1;
        /** "app/policy/relocation/ro/s<seed>" display label. */
        std::string label;
    };

    /** One cell per point of the expanded matrix. */
    explicit SweepHeartbeat(const SweepMatrix &matrix);

    std::size_t runCount() const { return runs_.size(); }
    RunProgress &run(std::size_t i) { return runs_.at(i); }
    const RunProgress &run(std::size_t i) const { return runs_.at(i); }
    const RunInfo &info(std::size_t i) const { return info_.at(i); }

    /** Stamp the sweep launch time (throughput / ETA baseline). */
    void markLaunched(std::uint64_t nowMs);
    std::uint64_t launchedMs() const
    {
        return launchedMs_.load(std::memory_order_relaxed);
    }

    /** Flag the sweep as interrupted (SIGINT/SIGTERM observed). */
    void markInterrupted();
    bool interrupted() const
    {
        return interrupted_.load(std::memory_order_relaxed);
    }

    /** @{ Sweep-level aggregates (reader side). */
    std::size_t runsDone() const;
    std::size_t runsRunning() const;
    /** Wall seconds since markLaunched(); 0 before launch. */
    double elapsedSeconds(std::uint64_t nowMs) const;
    double runsPerSecond(std::uint64_t nowMs) const;
    /** Seconds to finish at the current rate; 0 while unknowable. */
    double etaSeconds(std::uint64_t nowMs) const;
    /** Indices of runs failing the no-forward-progress watchdog. */
    std::vector<std::size_t> stalledRuns(std::uint64_t nowMs,
                                         std::uint64_t stallMs) const;
    /** @} */

    /**
     * Register the sweep's Prometheus series (sweep aggregates
     * plus per-run series labeled {run, app, policy, relocation,
     * ro_policy, seed}).  Call once, before registry.freeze(); the
     * heartbeat must outlive the registry's last publish().  The
     * rate, ETA, elapsed and stalled gauges read steadyNowMs() when
     * published; stalled applies the @p stallMs watchdog.
     */
    void registerMetrics(MetricsRegistry &registry,
                         std::uint64_t stallMs) const;

    /** The /progress endpoint body (sweep-level view + watchdog). */
    std::string progressJson(std::uint64_t nowMs,
                             std::uint64_t stallMs) const;

    /** The /runs endpoint body (per-run state array). */
    std::string runsJson(std::uint64_t nowMs,
                         std::uint64_t stallMs) const;

    /** One-line stderr heartbeat summary (no trailing newline). */
    std::string heartbeatLine(std::uint64_t nowMs) const;

  private:
    std::vector<RunProgress> runs_;
    std::vector<RunInfo> info_;
    std::atomic<std::uint64_t> launchedMs_{0};
    std::atomic<bool> interrupted_{false};

};

/**
 * GET /logs: the slog ring as JSONL, oldest first.  "?level=L" keeps
 * records at L (debug|info|warn|error) or above and "?n=N" the
 * newest N; a bad level or count is a 400.
 */
void registerLogRoute(StatsServer &server);

/**
 * Wire the standard telemetry routes onto a stats server:
 *   /metrics  — Prometheus exposition of @p registry's snapshot
 *   /progress — heartbeat.progressJson()
 *   /runs     — heartbeat.runsJson()
 *   /logs     — registerLogRoute()
 *   /         — a plain-text endpoint index
 * The handlers capture references: both objects must outlive the
 * server's serving window (stop the server first).
 */
void registerTelemetryRoutes(StatsServer &server,
                             const MetricsRegistry &registry,
                             const SweepHeartbeat &heartbeat,
                             std::uint64_t stallMs);

} // namespace vsnoop

#endif // VSNOOP_SYSTEM_HEARTBEAT_HH_
