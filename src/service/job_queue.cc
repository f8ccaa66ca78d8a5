#include "service/job_queue.hh"

#include <algorithm>
#include <chrono>
#include <exception>

#include "service/sweep_wire.hh"
#include "sim/logging.hh"
#include "sim/slog.hh"
#include "system/config_schema.hh"
#include "system/run_result.hh"
#include "workload/app_profile.hh"

namespace vsnoop
{

namespace
{

/** Pool ceiling for an oversized runJobs (vsnoopserve accepts any
 *  --jobs value): the workers start up front, so runJobs must not
 *  become an unbounded thread count. */
constexpr unsigned kMaxWorkers = 256;

} // namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
    }
    vsnoop_panic("unknown JobState ", static_cast<int>(state));
}

bool
jobStateTerminal(JobState state)
{
    return state == JobState::Done || state == JobState::Failed ||
           state == JobState::Cancelled;
}

JobQueue::JobQueue(ResultStore *store, unsigned runJobs,
                   JobTraceRecorder *trace)
    : store_(store), trace_(trace)
{
    unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    runJobs_ = runJobs == 0 ? hardware : runJobs;
    unsigned workers = std::max(std::min(runJobs_, kMaxWorkers), hardware);
    workers_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        workers_.emplace_back(&JobQueue::workerLoop, this);
}

JobQueue::~JobQueue()
{
    shutdown();
}

std::uint64_t
JobQueue::submit(const SweepMatrix &matrix, const std::string &label,
                 std::string *error, const std::string &requestId,
                 HostProfiler *profile)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return std::uint64_t(0);
    };
    if (matrix.apps.empty() || matrix.policies.empty() ||
        matrix.relocations.empty() || matrix.roPolicies.empty() ||
        matrix.seeds.empty())
        return fail("every sweep axis must be non-empty");
    if (!matrix.traceDir.empty() && store_ != nullptr)
        return fail("per-run trace capture needs a queue without a "
                    "result store; submit without a trace directory");

    auto job = std::make_unique<Job>(matrix);
    job->points = matrix.expand();
    job->profiles.reserve(job->points.size());
    job->configs.reserve(job->points.size());
    job->cacheKeys.reserve(job->points.size());
    for (const SweepPoint &point : job->points) {
        const AppProfile *profile = tryFindApp(point.app);
        if (profile == nullptr)
            return fail("unknown app '" + point.app + "'");
        job->profiles.push_back(profile);
        job->configs.push_back(matrix.configFor(point));
        // A config the simulator would abort on must not reach a
        // worker: the abort would take every job in the pool with it.
        std::string invalid;
        if (!validateConfig(job->configs.back(), &invalid))
            return fail(invalid);
        job->cacheKeys.push_back(
            runCacheKey(job->configs.back(), point.app));
    }
    job->label = label;
    job->requestId = requestId;
    job->profile = profile;
    job->lines.resize(job->points.size());
    job->ready.assign(job->points.size(), 0);
    job->submittedMs =
        static_cast<std::int64_t>(steadyNowMs());

    std::size_t runs = job->points.size();
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return fail("the service is shutting down");
        job->id = nextId_++;
        id = job->id;
        pending_.push_back(job.get());
        jobs_.emplace(id, std::move(job));
        jobsSubmitted_.fetch_add(1);
        workCv_.notify_all();
    }
    slog().log(LogLevel::Info, "job_submitted",
               {LogField("job", id),
                LogField("runs", static_cast<std::uint64_t>(runs)),
                LogField("label", label),
                LogField("request_id", requestId)});
    return id;
}

JobStatus
JobQueue::statusLocked(const Job &job) const
{
    JobStatus s;
    s.id = job.id;
    s.state = job.state;
    s.cancelRequested = job.cancelRequested;
    s.runsTotal = job.points.size();
    s.runsCompleted = job.completed;
    s.runsFromCache = job.fromCache;
    s.runsExecuted = job.executed;
    s.label = job.label;
    s.error = job.error;
    s.requestId = job.requestId;
    s.submittedMs = job.submittedMs;
    s.startedMs = job.startedMs;
    s.finishedMs = job.finishedMs;
    return s;
}

std::optional<JobStatus>
JobQueue::status(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return statusLocked(*it->second);
}

std::optional<JobStatus>
JobQueue::waitFor(std::uint64_t id, std::uint64_t timeoutMs)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    const Job &job = *it->second;
    resultCv_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                       [&] { return jobStateTerminal(job.state); });
    return statusLocked(job);
}

const SweepHeartbeat *
JobQueue::heartbeat(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : &it->second->heartbeat;
}

std::vector<JobStatus>
JobQueue::list() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const auto &[id, job] : jobs_)
        out.push_back(statusLocked(*job));
    return out;
}

void
JobQueue::leaveQueuedLocked(const Job &job, std::int64_t endMs)
{
    std::int64_t wait = endMs - job.submittedMs;
    queueWaitHist_.sample(
        static_cast<std::uint64_t>(wait < 0 ? 0 : wait));
    if (trace_ != nullptr)
        trace_->record(JobSpan{job.id, "queue-wait", job.submittedMs,
                               endMs, job.requestId, -1, ""});
}

bool
JobQueue::cancel(std::uint64_t id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    Job &job = *it->second;
    if (job.state == JobState::Queued) {
        // Workers drop non-queued jobs from pending_ when they scan.
        job.state = JobState::Cancelled;
        job.cancelRequested = true;
        job.heartbeat.markInterrupted();
        job.finishedMs = static_cast<std::int64_t>(steadyNowMs());
        jobsCancelled_.fetch_add(1);
        leaveQueuedLocked(job, job.finishedMs);
        if (trace_ != nullptr)
            trace_->record(JobInstant{job.id, "cancel",
                                      job.finishedMs, job.requestId,
                                      -1});
        resultCv_.notify_all();
        return true;
    }
    if (job.state != JobState::Running || job.cancelRequested)
        return false;
    job.cancelRequested = true;
    job.heartbeat.markInterrupted();
    if (trace_ != nullptr)
        trace_->record(JobInstant{
            job.id, "cancel", static_cast<std::int64_t>(steadyNowMs()),
            job.requestId, -1});
    // With runs in flight, the last one to return settles the job.
    if (settleLocked(job)) {
        lock.unlock();
        logFinished(job);
    }
    return true;
}

bool
JobQueue::streamResults(
    std::uint64_t id,
    const std::function<bool(const std::string &line)> &emit)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    Job &job = *it->second; // jobs are never erased; stays valid
    struct StreamSpan
    {
        JobTraceRecorder *trace;
        JobSpan span;
        ~StreamSpan()
        {
            if (trace == nullptr)
                return;
            span.endMs = static_cast<std::int64_t>(steadyNowMs());
            trace->record(std::move(span));
        }
    } streamSpan{trace_,
                 JobSpan{job.id, "stream",
                         static_cast<std::int64_t>(steadyNowMs()), 0,
                         job.requestId, -1, ""}};
    for (std::size_t i = 0; i < job.ready.size(); ++i) {
        resultCv_.wait(lock, [&] {
            return job.ready[i] != 0 || jobStateTerminal(job.state);
        });
        if (job.ready[i] == 0)
            continue; // terminal with a gap (cancelled mid-sweep)
        // Emit without the lock: the write can block on a slow
        // client, and simulation workers must keep publishing.
        std::string line = job.lines[i];
        lock.unlock();
        bool keep_going = emit(line);
        lock.lock();
        if (!keep_going)
            return true;
    }
    return true;
}

JobQueue::Job *
JobQueue::nextRunnableLocked()
{
    for (auto it = pending_.begin(); it != pending_.end();) {
        Job &job = **it;
        if (jobStateTerminal(job.state) || haltedLocked(job) ||
            job.dispatched == job.points.size()) {
            it = pending_.erase(it);
            continue;
        }
        if (job.inFlight < runJobs_)
            return &job;
        ++it;
    }
    return nullptr;
}

bool
JobQueue::haltedLocked(const Job &job) const
{
    return job.cancelRequested || stopping_ || !job.error.empty();
}

void
JobQueue::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        Job *job = nullptr;
        workCv_.wait(lock, [&] {
            return stopping_ || (job = nextRunnableLocked()) != nullptr;
        });
        if (stopping_)
            return; // running jobs are settled by their last run
        if (job->state == JobState::Queued) {
            job->state = JobState::Running;
            job->startedMs = static_cast<std::int64_t>(steadyNowMs());
            job->heartbeat.markLaunched(
                static_cast<std::uint64_t>(job->startedMs));
            leaveQueuedLocked(*job, job->startedMs);
        }
        std::size_t slot = job->dispatched++;
        ++job->inFlight;
        lock.unlock();

        // Never empty once set: a non-empty error is what fails the job.
        std::string error;
        try {
            runSlot(*job, slot);
        } catch (const std::exception &e) {
            error = "slot " + std::to_string(slot) + ": " + e.what();
        } catch (...) {
            error = "slot " + std::to_string(slot) +
                    ": unknown execution error";
        }

        lock.lock();
        --job->inFlight;
        if (!error.empty() && job->error.empty())
            job->error = std::move(error);
        if (settleLocked(*job)) {
            lock.unlock();
            logFinished(*job);
            lock.lock();
        }
        // The one slot this run freed is picked up by this worker's
        // own next wait, so no other worker needs waking.
    }
}

void
JobQueue::runSlot(Job &job, std::size_t slot)
{
    RunProgress &cell = job.heartbeat.run(slot);
    std::optional<std::string> cached =
        store_ != nullptr ? store_->get(job.cacheKeys[slot])
                          : std::nullopt;
    if (trace_ != nullptr)
        trace_->record(JobInstant{
            job.id, cached ? "cache-hit" : "cache-miss",
            static_cast<std::int64_t>(steadyNowMs()), job.requestId,
            static_cast<std::int64_t>(slot)});
    if (cached) {
        cell.finish(steadyNowMs());
        std::lock_guard<std::mutex> lock(mutex_);
        job.lines[slot] = std::move(*cached);
        job.ready[slot] = 1;
        ++job.completed;
        ++job.fromCache;
        runsFromCache_.fetch_add(1);
        resultCv_.notify_all();
        return;
    }

    std::int64_t begin = static_cast<std::int64_t>(steadyNowMs());
    cell.start(static_cast<std::uint64_t>(begin));
    ProgressFn progress = [&cell](const ProgressSample &sample) {
        cell.update(sample, steadyNowMs());
    };
    // A run profiles into a local collector; only the merge locks.
    HostProfiler local;
    RunResult result =
        collectRun(job.configs[slot], *job.profiles[slot],
                   job.profile ? &local : nullptr, std::move(progress));
    if (job.profile != nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        job.profile->merge(local);
    }
    totals_.add(result.results);
    std::string line = result.toJson();
    if (store_ != nullptr)
        store_->put(job.cacheKeys[slot], line);
    std::int64_t end = static_cast<std::int64_t>(steadyNowMs());
    cell.finish(static_cast<std::uint64_t>(end));
    if (trace_ != nullptr)
        trace_->record(JobSpan{job.id, "run", begin, end, job.requestId,
                               static_cast<std::int64_t>(slot),
                               job.points[slot].app});
    std::lock_guard<std::mutex> lock(mutex_);
    runExecuteHist_.sample(static_cast<std::uint64_t>(end - begin));
    job.lines[slot] = std::move(line);
    job.ready[slot] = 1;
    ++job.completed;
    ++job.executed;
    runsExecuted_.fetch_add(1);
    resultCv_.notify_all();
}

bool
JobQueue::settleLocked(Job &job)
{
    if (job.state != JobState::Running || job.inFlight != 0)
        return false;
    if (!haltedLocked(job) && job.dispatched < job.points.size())
        return false;
    if (!job.error.empty()) {
        job.state = JobState::Failed;
        jobsFailed_.fetch_add(1);
    } else if (job.completed < job.points.size()) {
        job.state = JobState::Cancelled;
        jobsCancelled_.fetch_add(1);
    } else {
        job.state = JobState::Done;
        jobsCompleted_.fetch_add(1);
    }
    job.finishedMs = static_cast<std::int64_t>(steadyNowMs());
    // The execute span starts exactly where queue-wait ended, so the
    // two tile [submitted, finished]: per-job spans sum to the job's
    // submit-to-done latency by construction.
    if (trace_ != nullptr)
        trace_->record(JobSpan{job.id, "execute", job.startedMs,
                               job.finishedMs, job.requestId, -1,
                               jobStateName(job.state)});
    resultCv_.notify_all();
    return true;
}

void
JobQueue::logFinished(const Job &job)
{
    // A terminal job is never written again, so it reads safely
    // without mutex_.
    slog().log(
        job.state == JobState::Failed ? LogLevel::Warn : LogLevel::Info,
        "job_finished",
        {LogField("job", job.id), LogField("state", jobStateName(job.state)),
         LogField("runs_completed",
                  static_cast<std::uint64_t>(job.completed)),
         LogField("error", job.error),
         LogField("request_id", job.requestId)});
}

void
JobQueue::shutdown()
{
    std::vector<Job *> settled;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdownDone_)
            return;
        shutdownDone_ = true;
        stopping_ = true;
        std::int64_t now = static_cast<std::int64_t>(steadyNowMs());
        for (Job *job : pending_) {
            if (job->state == JobState::Queued) {
                job->state = JobState::Cancelled;
                job->cancelRequested = true;
                job->heartbeat.markInterrupted();
                job->finishedMs = now;
                jobsCancelled_.fetch_add(1);
                leaveQueuedLocked(*job, now);
            } else if (settleLocked(*job)) {
                settled.push_back(job);
            }
        }
        pending_.clear();
        workCv_.notify_all();
        resultCv_.notify_all();
    }
    for (Job *job : settled)
        logFinished(*job);
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
}

void
JobQueue::registerMetrics(MetricsRegistry &registry) const
{
    auto jobsIn = [this](JobState state) {
        return [this, state] {
            std::lock_guard<std::mutex> lock(mutex_);
            return static_cast<double>(std::count_if(
                jobs_.begin(), jobs_.end(),
                [state](const auto &job) {
                    return job.second->state == state;
                }));
        };
    };
    auto locked = [this](const LatencyHistogram &hist) {
        return [this, &hist] {
            std::lock_guard<std::mutex> lock(mutex_);
            return hist;
        };
    };
    registry.addCounter("vsnoop_jobs_submitted_total",
                        "Sweep jobs accepted",
                        atomicSource(jobsSubmitted_));
    registry.addCounter("vsnoop_jobs_completed_total",
                        "Sweep jobs finished (done)",
                        atomicSource(jobsCompleted_));
    registry.addCounter("vsnoop_jobs_failed_total",
                        "Sweep jobs finished (failed)",
                        atomicSource(jobsFailed_));
    registry.addCounter("vsnoop_jobs_cancelled_total",
                        "Sweep jobs cancelled",
                        atomicSource(jobsCancelled_));
    registry.addCounter("vsnoop_job_runs_executed_total",
                        "Runs simulated on behalf of jobs",
                        atomicSource(runsExecuted_));
    registry.addCounter("vsnoop_job_runs_from_cache_total",
                        "Runs served from the result store",
                        atomicSource(runsFromCache_));
    registry.addGauge("vsnoop_jobs_queued", "Jobs waiting to run",
                      jobsIn(JobState::Queued));
    registry.addGauge("vsnoop_jobs_running", "Jobs currently executing",
                      jobsIn(JobState::Running));
    // Sampled whenever a job leaves Queued, so once every job is
    // terminal this histogram's _count equals
    // vsnoop_jobs_submitted_total.
    registry.addHistogram("vsnoop_job_queue_wait_ms",
                          "Milliseconds jobs spent queued before dispatch "
                          "(or cancellation)",
                          locked(queueWaitHist_));
    // One sample per simulated run; _count equals
    // vsnoop_job_runs_executed_total.
    registry.addHistogram("vsnoop_job_run_execute_ms",
                          "Milliseconds per executed run, simulation plus "
                          "store insert",
                          locked(runExecuteHist_));
    totals_.registerMetrics(registry, true, true);
}

} // namespace vsnoop
