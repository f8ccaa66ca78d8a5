#include "trace/job_trace.hh"

#include <algorithm>
#include <ostream>
#include <set>
#include <vector>

#include "sim/json.hh"

namespace vsnoop
{

namespace
{

/** Track layout: one process per event family. */
constexpr std::uint64_t kJobsPid = 0;
constexpr std::uint64_t kRunsPid = 1;
constexpr std::uint64_t kStreamsPid = 2;

void
eventHeader(JsonWriter &json, const std::string &name, const char *ph,
            std::int64_t tsMs, std::uint64_t pid, std::uint64_t tid)
{
    json.beginObject();
    json.key("name").value(name);
    json.key("ph").value(ph);
    // steadyNowMs milliseconds -> trace-event microseconds.
    json.key("ts").value(tsMs * 1000);
    json.key("pid").value(pid);
    json.key("tid").value(tid);
}

void
metadataEvent(JsonWriter &json, const char *what, std::uint64_t pid,
              std::uint64_t tid, const std::string &name)
{
    eventHeader(json, what, "M", 0, pid, tid);
    json.key("args").beginObject();
    json.key("name").value(name);
    json.endObject();
    json.endObject();
}

void
commonArgs(JsonWriter &json, std::uint64_t job,
           const std::string &requestId, std::int64_t slot,
           const std::string &detail)
{
    json.key("args").beginObject();
    json.key("job").value(job);
    json.key("request_id").value(requestId);
    if (slot >= 0)
        json.key("slot").value(slot);
    if (!detail.empty())
        json.key("detail").value(detail);
    json.endObject();
}

} // namespace

void
JobTraceRecorder::record(JobSpan span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
JobTraceRecorder::record(JobInstant instant)
{
    std::lock_guard<std::mutex> lock(mutex_);
    instants_.push_back(std::move(instant));
}

std::vector<JobSpan>
JobTraceRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<JobInstant>
JobTraceRecorder::instants() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return instants_;
}

void
JobTraceRecorder::writeChromeTrace(std::ostream &out) const
{
    std::vector<JobSpan> spans;
    std::vector<JobInstant> instants;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans = spans_;
        instants = instants_;
    }

    // Runs of concurrent jobs overlap, so each run takes the first
    // "runs" lane free at its start (in begin order): no lane holds
    // overlapping slices, and there are as many lanes as runs were
    // ever in flight at once.
    std::vector<std::size_t> runs;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == "run")
            runs.push_back(i);
    std::stable_sort(runs.begin(), runs.end(),
                     [&spans](std::size_t a, std::size_t b) {
                         return spans[a].beginMs < spans[b].beginMs;
                     });
    std::vector<std::uint64_t> runLane(spans.size(), 0);
    std::vector<std::int64_t> laneEnd;
    for (std::size_t i : runs) {
        auto lane = std::find_if(laneEnd.begin(), laneEnd.end(),
                                 [&](std::int64_t end) {
                                     return end <= spans[i].beginMs;
                                 });
        if (lane == laneEnd.end())
            lane = laneEnd.insert(lane, 0);
        *lane = spans[i].endMs;
        runLane[i] = static_cast<std::uint64_t>(lane - laneEnd.begin());
    }

    // Which tracks exist, for the metadata block.
    std::set<std::uint64_t> jobTids;
    std::set<std::uint64_t> streamTids;
    for (const JobSpan &span : spans) {
        if (span.name == "stream")
            streamTids.insert(span.job);
        else if (span.name != "run")
            jobTids.insert(span.job);
    }
    for (const JobInstant &instant : instants)
        jobTids.insert(instant.job);

    JsonWriter json;
    json.beginObject();
    json.key("traceEvents").beginArray();

    metadataEvent(json, "process_name", kJobsPid, 0, "jobs");
    for (std::uint64_t tid : jobTids)
        metadataEvent(json, "thread_name", kJobsPid, tid,
                      "job " + std::to_string(tid));
    if (!laneEnd.empty()) {
        metadataEvent(json, "process_name", kRunsPid, 0, "runs");
        for (std::uint64_t tid = 0; tid < laneEnd.size(); ++tid)
            metadataEvent(json, "thread_name", kRunsPid, tid,
                          "lane " + std::to_string(tid));
    }
    if (!streamTids.empty()) {
        metadataEvent(json, "process_name", kStreamsPid, 0, "streams");
        for (std::uint64_t tid : streamTids)
            metadataEvent(json, "thread_name", kStreamsPid, tid,
                          "job " + std::to_string(tid) + " stream");
    }

    for (std::size_t i = 0; i < spans.size(); ++i) {
        const JobSpan &span = spans[i];
        std::uint64_t pid = kJobsPid;
        std::uint64_t tid = span.job;
        if (span.name == "run") {
            pid = kRunsPid;
            tid = runLane[i];
        } else if (span.name == "stream") {
            pid = kStreamsPid;
        }
        eventHeader(json, span.name, "X", span.beginMs, pid, tid);
        json.key("dur").value((span.endMs - span.beginMs) * 1000);
        commonArgs(json, span.job, span.requestId, span.slot,
                   span.detail);
        json.endObject();
    }

    for (const JobInstant &instant : instants) {
        eventHeader(json, instant.name, "i", instant.tsMs, kJobsPid,
                    instant.job);
        json.key("s").value("t");
        commonArgs(json, instant.job, instant.requestId, instant.slot,
                   "");
        json.endObject();
    }

    json.endArray();
    json.key("displayTimeUnit").value("ms");
    json.endObject();
    out << json.str();
}

} // namespace vsnoop
