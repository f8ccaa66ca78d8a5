/**
 * @file
 * Job lifecycle trace: spans and instants for the sweep service,
 * exported as a Chrome trace-event document.
 *
 * While chrome_trace.hh renders coherence transactions from one
 * simulated run, this recorder captures the serving layer around
 * the runs: each job's path through the JobQueue as wall-clock
 * spans.  Loading the export in Perfetto (https://ui.perfetto.dev)
 * shows one track per job under a "jobs" process, with the track
 * split into the contiguous lifecycle phases:
 *
 *   queue-wait   submit() accepted the job .. a run worker took its
 *                first slot (or a cancellation took it out of the
 *                queue)
 *   execute      that first slot .. terminal state
 *
 * The two phases tile [submitted, finished] exactly, so a job's
 * spans sum to its submit-to-done latency by construction — the
 * acceptance check tests rely on.  Cache lookups surface as
 * hit/miss instants on the job's track; executed runs become
 * slices under a separate "runs" process, each on the first lane
 * free when it starts (runs of concurrent jobs overlap, so lanes
 * are assigned at export; the slot is in the slice's args); result
 * streaming, which overlaps execution, gets its own "streams"
 * process.  Every event carries the request id of the HTTP request
 * that created the job, correlating the Perfetto view with
 * access-log lines and /metrics deltas.
 *
 * Timestamps are system/heartbeat.hh steadyNowMs() milliseconds,
 * exported as trace-event microseconds (ms * 1000); viewers show
 * relative time, so only the scale matters.  Thread-safe: the
 * queue's run workers and streaming handlers record
 * concurrently; writeChromeTrace() snapshots under the same lock.
 */

#ifndef VSNOOP_TRACE_JOB_TRACE_HH_
#define VSNOOP_TRACE_JOB_TRACE_HH_

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace vsnoop
{

/** One closed lifecycle span ([beginMs, endMs], steadyNowMs). */
struct JobSpan
{
    std::uint64_t job = 0;
    /** Phase name: "queue-wait", "execute", "run", "stream". */
    std::string name;
    std::int64_t beginMs = 0;
    std::int64_t endMs = 0;
    std::string requestId;
    /** Matrix slot for "run" spans; -1 elsewhere. */
    std::int64_t slot = -1;
    /** Extra detail shown in the viewer's args pane. */
    std::string detail;
};

/** One point event ("cache-hit", "cache-miss", "cancel"). */
struct JobInstant
{
    std::uint64_t job = 0;
    std::string name;
    std::int64_t tsMs = 0;
    std::string requestId;
    std::int64_t slot = -1;
};

/**
 * Thread-safe collector for job spans/instants.  See the file
 * comment for the track layout writeChromeTrace() produces.
 */
class JobTraceRecorder
{
  public:
    void record(JobSpan span);
    void record(JobInstant instant);

    /** Point-in-time copies, recording order (for tests). */
    std::vector<JobSpan> spans() const;
    std::vector<JobInstant> instants() const;

    /**
     * Render everything recorded so far as one deterministic
     * Chrome trace-event JSON document.
     */
    void writeChromeTrace(std::ostream &out) const;

  private:
    mutable std::mutex mutex_;
    std::vector<JobSpan> spans_;
    std::vector<JobInstant> instants_;
};

} // namespace vsnoop

#endif // VSNOOP_TRACE_JOB_TRACE_HH_
