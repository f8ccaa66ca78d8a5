/**
 * @file
 * FIFO sweep-job queue executing on the existing worker pool.
 *
 * One JobQueue owns the service's execution: submissions are
 * validated sweep matrices (service/sweep_wire.hh) assigned
 * monotonic ids; a single dispatcher thread executes jobs in
 * submission order, each job fanning its runs into the shared
 * system/sweep.hh runIndexed() pool with the configured run
 * parallelism.  Per-run results land in slots indexed by the run's
 * position in the expanded matrix — the same order and bytes an
 * offline vsnoopsweep of the same matrix produces.
 *
 * Every run first consults the ResultStore: a hit is served without
 * simulation (and without occupying a worker), a miss executes and
 * is inserted, so resubmitting a matrix completes with zero new
 * runs.  streamResults() delivers finished lines in matrix order
 * while the job still runs, blocking on not-yet-finished slots —
 * this backs the chunked GET /jobs/<id>/results stream.
 *
 * State machine: queued -> running -> done | failed | cancelled,
 * plus queued -> cancelled.  cancel() on a running job sets a flag
 * the run pool polls before each dispatch (the same cooperative
 * path vsnoopsweep's SIGINT uses): in-flight runs finish and are
 * kept, undispatched runs never start.  Jobs are retained after
 * completion so status and results stay queryable for the server's
 * lifetime.
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
#include "sim/stats.hh"
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
     * @p store may be null (every run executes); @p runJobs is the
     * per-job worker count handed to runIndexed() (0 = hardware
     * concurrency); @p trace, when non-null, receives lifecycle
     * spans (the recorder must outlive the queue).  The dispatcher
     * thread starts immediately.
     */
    explicit JobQueue(ResultStore *store, unsigned runJobs = 0,
                      JobTraceRecorder *trace = nullptr);
    ~JobQueue();

    JobQueue(const JobQueue &) = delete;
    JobQueue &operator=(const JobQueue &) = delete;

    /**
     * Enqueue @p matrix.  Returns the new job id, or 0 with
     * @p error set when the matrix is invalid (empty axis, unknown
     * app) or the queue is shutting down.  App names are resolved
     * here so execution can never hit findApp()'s fatal path.
     */
    std::uint64_t submit(const SweepMatrix &matrix,
                         const std::string &label = "",
                         std::string *error = nullptr,
                         const std::string &requestId = "");

    /** Status copy, or nullopt for an unknown id. */
    std::optional<JobStatus> status(std::uint64_t id) const;

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
     * Cancel queued jobs, flag the running one, and join the
     * dispatcher once its in-flight runs finish.  Idempotent; the
     * destructor calls it.  Wakes every streamResults() waiter.
     */
    void shutdown();

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
        std::uint64_t id = 0;
        SweepMatrix matrix;
        /** Expanded points, their resolved profiles and configs. */
        std::vector<SweepPoint> points;
        std::vector<const AppProfile *> profiles;
        std::vector<SystemConfig> configs;
        std::vector<std::string> cacheKeys;
        std::string label;
        std::string requestId;

        JobState state = JobState::Queued;
        std::atomic<bool> cancelRequested{false};
        std::vector<std::string> lines;
        /** ready[i] != 0 iff lines[i] holds a finished record. */
        std::vector<std::uint8_t> ready;
        std::size_t completed = 0;
        std::size_t fromCache = 0;
        std::size_t executed = 0;
        std::string error;
        std::int64_t submittedMs = -1;
        std::int64_t startedMs = -1;
        std::int64_t finishedMs = -1;
    };

    void dispatchLoop();
    void execute(Job &job);
    JobStatus statusLocked(const Job &job) const;
    /** Sample the queue-wait histogram + span as a job leaves
     * Queued (mutex_ held; @p endMs is startedMs or finishedMs). */
    void leaveQueuedLocked(const Job &job, std::int64_t endMs);

    ResultStore *store_;
    unsigned runJobs_;
    JobTraceRecorder *trace_;

    mutable std::mutex mutex_;
    /** Dispatcher wakeup (new job / shutdown). */
    std::condition_variable dispatchCv_;
    /** Streamer wakeup (slot finished / terminal transition). */
    std::condition_variable resultCv_;
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
    std::deque<std::uint64_t> fifo_;
    std::uint64_t nextId_ = 1;
    std::atomic<bool> stopping_{false};
    bool shutdownDone_ = false;
    std::thread dispatcher_;

    std::atomic<std::uint64_t> jobsSubmitted_{0};
    std::atomic<std::uint64_t> jobsCompleted_{0};
    std::atomic<std::uint64_t> jobsFailed_{0};
    std::atomic<std::uint64_t> jobsCancelled_{0};
    std::atomic<std::uint64_t> runsExecuted_{0};
    std::atomic<std::uint64_t> runsFromCache_{0};

    /** Latency histograms, guarded by mutex_ (sampled on the
     * dispatcher and run workers, staged by the publisher). */
    LatencyHistogram queueWaitHist_;
    LatencyHistogram runExecuteHist_;

    /** Perf and pages totals over executed runs submitted with
     * "perf"/"pages": true (own lock; see system/run_totals.hh). */
    RunTotals totals_;
};

} // namespace vsnoop

#endif // VSNOOP_SERVICE_JOB_QUEUE_HH_
