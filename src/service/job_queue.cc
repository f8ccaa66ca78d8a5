#include "service/job_queue.hh"

#include <algorithm>
#include <exception>

#include "service/sweep_wire.hh"
#include "sim/logging.hh"
#include "sim/slog.hh"
#include "system/heartbeat.hh"
#include "system/run_result.hh"
#include "workload/app_profile.hh"

namespace vsnoop
{

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
    : store_(store), runJobs_(runJobs), trace_(trace)
{
    dispatcher_ = std::thread(&JobQueue::dispatchLoop, this);
}

JobQueue::~JobQueue()
{
    shutdown();
}

std::uint64_t
JobQueue::submit(const SweepMatrix &matrix, const std::string &label,
                 std::string *error, const std::string &requestId)
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
    if (!matrix.traceDir.empty())
        return fail("per-run trace capture is not served; submit "
                    "without a trace directory");

    auto job = std::make_unique<Job>();
    job->matrix = matrix;
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
        job->cacheKeys.push_back(
            runCacheKey(job->configs.back(), point.app));
    }
    job->label = label;
    job->requestId = requestId;
    job->lines.resize(job->points.size());
    job->ready.assign(job->points.size(), 0);
    job->submittedMs =
        static_cast<std::int64_t>(steadyNowMs());

    std::size_t runs = job->points.size();
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_.load())
            return fail("the service is shutting down");
        job->id = nextId_++;
        id = job->id;
        fifo_.push_back(id);
        jobs_.emplace(id, std::move(job));
        jobsSubmitted_.fetch_add(1);
        dispatchCv_.notify_one();
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
    s.cancelRequested = job.cancelRequested.load();
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
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    Job &job = *it->second;
    if (job.state == JobState::Queued) {
        // The dispatcher skips non-queued jobs when it pops them.
        job.state = JobState::Cancelled;
        job.cancelRequested.store(true);
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
    if (job.state == JobState::Running &&
        !job.cancelRequested.exchange(true)) {
        if (trace_ != nullptr)
            trace_->record(JobInstant{
                job.id, "cancel",
                static_cast<std::int64_t>(steadyNowMs()),
                job.requestId, -1});
        return true;
    }
    return false;
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

void
JobQueue::dispatchLoop()
{
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            dispatchCv_.wait(lock, [&] {
                return !fifo_.empty() || stopping_.load();
            });
            if (stopping_.load())
                return; // queued jobs were marked cancelled
            std::uint64_t id = fifo_.front();
            fifo_.pop_front();
            Job &candidate = *jobs_.at(id);
            if (candidate.state != JobState::Queued)
                continue; // cancelled while waiting its turn
            candidate.state = JobState::Running;
            candidate.startedMs =
                static_cast<std::int64_t>(steadyNowMs());
            leaveQueuedLocked(candidate, candidate.startedMs);
            job = &candidate;
        }
        execute(*job);
    }
}

void
JobQueue::execute(Job &job)
{
    std::size_t total = job.points.size();
    auto finish = [&](JobState state, const std::string &error) {
        std::size_t completed;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            job.state = state;
            job.error = error;
            job.finishedMs = static_cast<std::int64_t>(steadyNowMs());
            completed = job.completed;
            switch (state) {
              case JobState::Done: jobsCompleted_.fetch_add(1); break;
              case JobState::Failed: jobsFailed_.fetch_add(1); break;
              case JobState::Cancelled:
                jobsCancelled_.fetch_add(1);
                break;
              default: vsnoop_panic("non-terminal finish state");
            }
            resultCv_.notify_all();
        }
        // The execute span starts exactly where queue-wait ended,
        // so the two tile [submitted, finished]: per-job spans sum
        // to the job's submit-to-done latency by construction.
        if (trace_ != nullptr)
            trace_->record(JobSpan{job.id, "execute", job.startedMs,
                                   job.finishedMs, job.requestId, -1,
                                   jobStateName(state)});
        slog().log(
            state == JobState::Failed ? LogLevel::Warn
                                      : LogLevel::Info,
            "job_finished",
            {LogField("job", job.id),
             LogField("state", jobStateName(state)),
             LogField("runs_completed",
                      static_cast<std::uint64_t>(completed)),
             LogField("error", error),
             LogField("request_id", job.requestId)});
    };

    try {
        // Cache pass first: hits complete instantly and never
        // occupy a worker, so a fully warm matrix finishes without
        // simulating anything.
        std::vector<std::size_t> miss_slots;
        for (std::size_t i = 0; i < total; ++i) {
            std::optional<std::string> cached =
                store_ != nullptr
                    ? store_->get(job.cacheKeys[i])
                    : std::nullopt;
            if (trace_ != nullptr)
                trace_->record(JobInstant{
                    job.id, cached ? "cache-hit" : "cache-miss",
                    static_cast<std::int64_t>(steadyNowMs()),
                    job.requestId, static_cast<std::int64_t>(i)});
            if (cached) {
                std::lock_guard<std::mutex> lock(mutex_);
                job.lines[i] = std::move(*cached);
                job.ready[i] = 1;
                ++job.completed;
                ++job.fromCache;
                runsFromCache_.fetch_add(1);
                resultCv_.notify_all();
            } else {
                miss_slots.push_back(i);
            }
        }

        auto cancelled = [&] {
            return job.cancelRequested.load() || stopping_.load();
        };
        runIndexed(
            miss_slots.size(), runJobs_,
            [&](std::size_t k) {
                std::size_t slot = miss_slots[k];
                std::int64_t begin =
                    static_cast<std::int64_t>(steadyNowMs());
                RunResult result = collectRun(job.configs[slot],
                                              *job.profiles[slot]);
                totals_.add(result.results);
                std::string line = result.toJson();
                if (store_ != nullptr)
                    store_->put(job.cacheKeys[slot], line);
                std::int64_t end =
                    static_cast<std::int64_t>(steadyNowMs());
                if (trace_ != nullptr)
                    trace_->record(JobSpan{
                        job.id, "run", begin, end, job.requestId,
                        static_cast<std::int64_t>(slot),
                        job.points[slot].app});
                std::lock_guard<std::mutex> lock(mutex_);
                runExecuteHist_.sample(
                    static_cast<std::uint64_t>(end - begin));
                job.lines[slot] = std::move(line);
                job.ready[slot] = 1;
                ++job.completed;
                ++job.executed;
                runsExecuted_.fetch_add(1);
                resultCv_.notify_all();
            },
            cancelled);

        bool complete;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            complete = job.completed == total;
        }
        if (!complete && cancelled())
            finish(JobState::Cancelled, "");
        else
            finish(JobState::Done, "");
    } catch (const std::exception &e) {
        finish(JobState::Failed, e.what());
    } catch (...) {
        finish(JobState::Failed, "unknown execution error");
    }
}

void
JobQueue::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdownDone_)
            return;
        shutdownDone_ = true;
        stopping_.store(true);
        std::int64_t now = static_cast<std::int64_t>(steadyNowMs());
        for (std::uint64_t id : fifo_) {
            Job &job = *jobs_.at(id);
            if (job.state != JobState::Queued)
                continue;
            job.state = JobState::Cancelled;
            job.cancelRequested.store(true);
            job.finishedMs = now;
            jobsCancelled_.fetch_add(1);
            leaveQueuedLocked(job, now);
        }
        fifo_.clear();
        dispatchCv_.notify_all();
        resultCv_.notify_all();
    }
    if (dispatcher_.joinable())
        dispatcher_.join();
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
