/**
 * @file
 * FIFO sweep-job queue executing on one shared run-worker pool.
 *
 * JobQueue is the one run engine: vsnoopserve executes served jobs
 * on it, and vsnoopsweep runs its matrix as one job on an in-process
 * queue without a store.  Submissions are validated sweep matrices
 * (service/sweep_wire.hh) assigned monotonic ids, and a persistent
 * pool of run workers executes them.
 * A free worker takes the next undispatched slot of the oldest job
 * with fewer than the per-job run limit in flight, so runs start in
 * (job id, slot) order, no job holds more workers than the limit,
 * and a worker freed by one job's tail starts the next job instead
 * of idling until the slowest run of the current one returns.
 * Per-run results land in slots indexed by the run's position in
 * the expanded matrix — the same order and bytes as running each
 * point alone with collectRun().
 *
 * Every slot first consults the ResultStore: a hit is served without
 * simulation, a miss executes and is inserted, so resubmitting a
 * finished matrix completes with zero new runs.  streamResults()
 * delivers finished lines in matrix order while the job still runs,
 * blocking on not-yet-finished slots — this backs the chunked
 * GET /jobs/<id>/results stream.  A matrix's traceDir is taken only
 * without a store (a store hit writes no trace file).
 *
 * Every job has a SweepHeartbeat: the worker serving a slot writes
 * its progress cell (a store hit only finishes it), and a cancel,
 * by cancel() or by shutdown() of a queued job, marks it interrupted.
 *
 * State machine: queued -> running -> done | failed | cancelled,
 * plus queued -> cancelled.  A job turns running when a worker
 * takes its first slot.  cancel() on a running job stops dispatch
 * of its slots: in-flight runs finish and are kept, undispatched
 * runs never start.  A run that throws fails its job the same way.
 * Jobs are retained after completion so status and results stay
 * queryable for the server's lifetime.
 *
 * Observability: each job carries the request id of the HTTP
 * request that submitted it (surfaced in JobStatus and every span).
 * With a JobTraceRecorder attached, the queue records the
 * lifecycle as spans — queue-wait [submitted, started] and execute
 * [started, finished] tile the job's wall time exactly (a job
 * cancelled while queued gets queue-wait [submitted, finished]
 * alone), runs and cache hits/misses are recorded per slot, and
 * streamResults() brackets each consumer.  registerMetrics() also
 * exports queue-wait and per-run execute latency histograms; the
 * queue-wait histogram is sampled whenever a job leaves the queued
 * state, so its _count reconciles with vsnoop_jobs_submitted_total
 * once every job is terminal.
 */

#ifndef VSNOOP_SERVICE_JOB_QUEUE_HH_
#define VSNOOP_SERVICE_JOB_QUEUE_HH_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/result_store.hh"
#include "sim/profiler.hh"
#include "sim/stats.hh"
#include "system/heartbeat.hh"
#include "system/run_totals.hh"
#include "system/sweep.hh"
#include "trace/job_trace.hh"

namespace vsnoop
{

enum class JobState : std::uint8_t
{
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
};

/** Wire token for a state ("queued", "running", ...). */
const char *jobStateName(JobState state);

/** True for Done/Failed/Cancelled (the job will not change again). */
bool jobStateTerminal(JobState state);

/** A point-in-time copy of one job's externally visible state. */
struct JobStatus
{
    std::uint64_t id = 0;
    JobState state = JobState::Queued;
    bool cancelRequested = false;
    std::size_t runsTotal = 0;
    std::size_t runsCompleted = 0;
    std::size_t runsFromCache = 0;
    std::size_t runsExecuted = 0;
    std::string label;
    /** Failure description (state == Failed). */
    std::string error;
    /** X-Request-Id of the submitting HTTP request (may be ""). */
    std::string requestId;
    /** steadyNowMs() stamps; -1 while unset. */
    std::int64_t submittedMs = -1;
    std::int64_t startedMs = -1;
    std::int64_t finishedMs = -1;
};

class JobQueue
{
  public:
    /**
     * @p store may be null (every run executes); @p runJobs caps the
     * runs one job has in flight (0 = hardware concurrency); @p trace,
     * when non-null, receives lifecycle spans (the recorder must
     * outlive the queue).  The pool of max(runJobs, hardware
     * concurrency) run workers starts immediately; runJobs counts
     * toward the pool size up to 256.
     */
    explicit JobQueue(ResultStore *store, unsigned runJobs = 0,
                      JobTraceRecorder *trace = nullptr);
    ~JobQueue();

    JobQueue(const JobQueue &) = delete;
    JobQueue &operator=(const JobQueue &) = delete;

    /**
     * Enqueue @p matrix.  Returns the new job id, or 0 with
     * @p error set when the matrix is invalid (empty axis, unknown
     * app, a run config validateConfig() rejects, a traceDir on a
     * store-backed queue) or the queue is shutting down.  App names
     * and configs are checked here so execution can never hit
     * findApp()'s fatal path or a simulator assertion that would
     * abort every job in the pool.  A non-null @p profile sums the
     * host profile of every run the job executes (CPU time across
     * workers); it must outlive the job.
     */
    std::uint64_t submit(const SweepMatrix &matrix,
                         const std::string &label = "",
                         std::string *error = nullptr,
                         const std::string &requestId = "",
                         HostProfiler *profile = nullptr);

    /** Status copy, or nullopt for an unknown id. */
    std::optional<JobStatus> status(std::uint64_t id) const;

    /** Status once job @p id is terminal or @p timeoutMs has
     *  passed, whichever is first; nullopt for an unknown id. */
    std::optional<JobStatus> waitFor(std::uint64_t id,
                                     std::uint64_t timeoutMs);

    /** Job @p id's progress cells, or nullptr for an unknown id;
     *  valid for the queue's lifetime (jobs are never erased). */
    const SweepHeartbeat *heartbeat(std::uint64_t id) const;

    /** Perf and pages totals over every executed run. */
    const RunTotals &totals() const { return totals_; }

    /** Every job's status, id order (oldest first). */
    std::vector<JobStatus> list() const;

    /**
     * Request cancellation.  True when this call initiated one
     * (job was queued or running); false for unknown/terminal jobs.
     */
    bool cancel(std::uint64_t id);

    /**
     * Invoke @p emit with each finished result line in matrix
     * order, blocking until a slot finishes or the job reaches a
     * terminal state (after which unfinished slots are skipped —
     * matching offline vsnoopsweep's interrupted output).  @p emit
     * returning false stops the stream.  Returns false for an
     * unknown id.  Safe from many threads concurrently.
     */
    bool streamResults(
        std::uint64_t id,
        const std::function<bool(const std::string &line)> &emit);

    /**
     * Cancel queued jobs, stop dispatch of running ones, and join
     * every worker once the in-flight runs finish.  Idempotent; the
     * destructor calls it.  Wakes every streamResults() waiter.
     */
    void shutdown();

    /** Run workers in the pool; 0 once shutdown() has joined them.
     *  Not synchronized with a concurrent shutdown(). */
    std::size_t workerCount() const { return workers_.size(); }

    /** @{ Service counters. */
    std::uint64_t jobsSubmitted() const { return jobsSubmitted_.load(); }
    std::uint64_t jobsCompleted() const { return jobsCompleted_.load(); }
    std::uint64_t jobsFailed() const { return jobsFailed_.load(); }
    std::uint64_t jobsCancelled() const { return jobsCancelled_.load(); }
    std::uint64_t runsExecuted() const { return runsExecuted_.load(); }
    std::uint64_t runsFromCache() const { return runsFromCache_.load(); }
    /** @} */

    /** Job counters, queue-wait and execute histograms, and the
     *  perf/pages totals of executed runs.  See
     *  ResultStore::registerMetrics() for the contract. */
    void registerMetrics(MetricsRegistry &registry) const;

  private:
    struct Job
    {
        explicit Job(const SweepMatrix &matrix) : heartbeat(matrix) {}

        std::uint64_t id = 0;
        /** Expanded points, their resolved profiles and configs. */
        std::vector<SweepPoint> points;
        std::vector<const AppProfile *> profiles;
        std::vector<SystemConfig> configs;
        std::vector<std::string> cacheKeys;
        std::string label;
        std::string requestId;
        /** One progress cell per slot (written without mutex_). */
        SweepHeartbeat heartbeat;
        /** Receives executed runs' profiles (merged under mutex_). */
        HostProfiler *profile = nullptr;

        JobState state = JobState::Queued;
        bool cancelRequested = false;
        std::vector<std::string> lines;
        /** ready[i] != 0 iff lines[i] holds a finished record. */
        std::vector<std::uint8_t> ready;
        /** Slots [0, dispatched) have been handed to a worker. */
        std::size_t dispatched = 0;
        /** Slots a worker is serving right now. */
        unsigned inFlight = 0;
        std::size_t completed = 0;
        std::size_t fromCache = 0;
        std::size_t executed = 0;
        std::string error;
        std::int64_t submittedMs = -1;
        std::int64_t startedMs = -1;
        std::int64_t finishedMs = -1;
    };

    void workerLoop();
    /** Oldest job a free worker may take a slot from, or nullptr;
     * drops jobs with nothing left to dispatch (mutex_ held). */
    Job *nextRunnableLocked();
    /** Serve one slot from the store or by simulating it, and
     * publish its line.  Takes mutex_ only to publish. */
    void runSlot(Job &job, std::size_t slot);
    /** True once no further slot of @p job may start. */
    bool haltedLocked(const Job &job) const;
    /**
     * Make a running @p job terminal, recording its execute span, if
     * nothing of it is in flight and nothing may start (mutex_ held).
     * Returns true when it did; the caller then calls logFinished()
     * without mutex_.
     */
    bool settleLocked(Job &job);
    /** The job_finished log record of a settled job. */
    void logFinished(const Job &job);
    JobStatus statusLocked(const Job &job) const;
    /** Sample the queue-wait histogram + span as a job leaves
     * Queued (mutex_ held; @p endMs is startedMs or finishedMs). */
    void leaveQueuedLocked(const Job &job, std::int64_t endMs);

    ResultStore *store_;
    /** Per-job in-flight run limit (resolved, >= 1). */
    unsigned runJobs_;
    JobTraceRecorder *trace_;

    mutable std::mutex mutex_;
    /** Worker wakeup (new job / shutdown). */
    std::condition_variable workCv_;
    /** Streamer/waitFor() wakeup (slot finished / terminal state). */
    std::condition_variable resultCv_;
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
    /** Jobs that may still have slots to dispatch, id order. */
    std::deque<Job *> pending_;
    std::uint64_t nextId_ = 1;
    bool stopping_ = false;
    bool shutdownDone_ = false;

    std::atomic<std::uint64_t> jobsSubmitted_{0};
    std::atomic<std::uint64_t> jobsCompleted_{0};
    std::atomic<std::uint64_t> jobsFailed_{0};
    std::atomic<std::uint64_t> jobsCancelled_{0};
    std::atomic<std::uint64_t> runsExecuted_{0};
    std::atomic<std::uint64_t> runsFromCache_{0};

    /** Latency histograms, guarded by mutex_ (sampled by the run
     * workers, cancel() and shutdown(), read by the publisher). */
    LatencyHistogram queueWaitHist_;
    LatencyHistogram runExecuteHist_;

    /** Perf and pages totals over executed runs submitted with
     * "perf"/"pages": true (own lock; see system/run_totals.hh). */
    RunTotals totals_;

    /** Declared last: the workers use every member above. */
    std::vector<std::thread> workers_;
};

} // namespace vsnoop

#endif // VSNOOP_SERVICE_JOB_QUEUE_HH_
