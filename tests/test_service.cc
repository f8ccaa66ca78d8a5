/**
 * @file
 * Service-layer tests: the content-addressed ResultStore, the
 * JobQueue state machine (including cache-served resubmission,
 * cooperative cancellation and per-run progress cells), and an
 * end-to-end HTTP check that the job API streams bytes identical to
 * a serial run of the same matrix.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/job_api.hh"
#include "service/job_queue.hh"
#include "service/result_store.hh"
#include "service/sweep_wire.hh"
#include "sim/json.hh"
#include "sim/metrics.hh"
#include "sim/slog.hh"
#include "sim/stats_server.hh"
#include "sweep_reference.hh"
#include "system/sweep.hh"
#include "trace/job_trace.hh"
#include "workload/app_profile.hh"

namespace vsnoop::test
{
namespace
{

namespace fs = std::filesystem;

/** A fresh, empty store directory per test. */
fs::path
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) /
                   ("vsnoop_service_" + name);
    fs::remove_all(dir);
    return dir;
}

/** A fast 2-run matrix (1 app x 2 seeds) for queue tests. */
SweepMatrix
tinyMatrix()
{
    SweepMatrix m;
    m.apps = {"ferret"};
    m.seeds = {1, 2};
    m.base.mesh.width = 2;
    m.base.mesh.height = 2;
    m.base.numVms = 2;
    m.base.vcpusPerVm = 2;
    m.base.l2.sizeBytes = 32 * 1024;
    m.base.accessesPerVcpu = 400;
    m.base.warmupAccessesPerVcpu = 100;
    return m;
}

/** Wait (up to 120 s) until @p id reaches a terminal state. */
JobStatus
awaitTerminal(JobQueue &queue, std::uint64_t id)
{
    std::optional<JobStatus> status = queue.waitFor(id, 120000);
    EXPECT_TRUE(status.has_value());
    if (!status)
        return JobStatus{};
    EXPECT_TRUE(jobStateTerminal(status->state))
        << "job " << id << " never finished";
    return *status;
}

// ---------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------

TEST(ResultStore, RoundTripsRecordsAndCountsHitsAndMisses)
{
    fs::path dir = freshDir("roundtrip");
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;

    EXPECT_FALSE(store.get("no-such-key").has_value());
    EXPECT_EQ(store.misses(), 1u);

    store.put("key-a", "{\"run\":\"a\"}");
    store.put("key-b", "{\"run\":\"b\"}");
    EXPECT_EQ(store.insertions(), 2u);
    EXPECT_EQ(store.entryCount(), 2u);

    std::optional<std::string> got = store.get("key-a");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "{\"run\":\"a\"}");
    got = store.get("key-b");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "{\"run\":\"b\"}");
    EXPECT_EQ(store.hits(), 2u);
    EXPECT_EQ(store.misses(), 1u);
    fs::remove_all(dir);
}

TEST(ResultStore, EvictsLeastRecentlyUsedBeyondTheByteCap)
{
    fs::path dir = freshDir("evict");
    // Each entry is key + '\n' + record + '\n' = 2+1+28+1 = 32
    // bytes; a 70-byte cap holds two entries, not three.
    const std::string record(28, 'r');
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 70, &error)) << error;

    store.put("k1", record);
    store.put("k2", record);
    EXPECT_EQ(store.entryCount(), 2u);
    EXPECT_EQ(store.evictions(), 0u);

    // Touch k1 so k2 becomes least recently used, then overflow.
    EXPECT_TRUE(store.get("k1").has_value());
    store.put("k3", record);

    EXPECT_EQ(store.evictions(), 1u);
    EXPECT_EQ(store.entryCount(), 2u);
    EXPECT_FALSE(store.get("k2").has_value());
    EXPECT_TRUE(store.get("k1").has_value());
    EXPECT_TRUE(store.get("k3").has_value());
    fs::remove_all(dir);
}

TEST(ResultStore, EvictionUnlinksTheVictimObject)
{
    fs::path dir = freshDir("evict_unlink");
    auto objects = [&dir] {
        std::vector<std::string> names;
        for (const auto &entry : fs::directory_iterator(dir / "objects"))
            names.push_back(entry.path().filename().string());
        std::sort(names.begin(), names.end());
        return names;
    };
    const std::string record(28, 'r');
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 70, &error)) << error;

    store.put("k1", record);
    std::vector<std::string> first = objects();
    ASSERT_EQ(first.size(), 1u);
    store.put("k2", record);
    std::vector<std::string> both = objects();
    ASSERT_EQ(both.size(), 2u);
    std::string k2 = both[0] == first[0] ? both[1] : both[0];

    // k2 is now least recently used; inserting k3 evicts it, and
    // its object file must go with it.
    EXPECT_TRUE(store.get("k1").has_value());
    store.put("k3", record);
    EXPECT_EQ(store.evictions(), 1u);
    std::vector<std::string> after = objects();
    EXPECT_EQ(after.size(), 2u);
    EXPECT_FALSE(fs::exists(dir / "objects" / k2));
    EXPECT_TRUE(fs::exists(dir / "objects" / first[0]));
    fs::remove_all(dir);
}

TEST(ResultStore, NeverEvictsTheEntryJustInserted)
{
    fs::path dir = freshDir("keep_newest");
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 16, &error)) << error;

    // One entry alone exceeds the cap; it must survive anyway.
    store.put("big", std::string(64, 'x'));
    EXPECT_EQ(store.entryCount(), 1u);
    EXPECT_TRUE(store.get("big").has_value());
    fs::remove_all(dir);
}

TEST(ResultStore, DropsCorruptedEntriesAndHealsByReinsertion)
{
    fs::path dir = freshDir("corrupt");
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;

    store.put("key-c", "{\"run\":\"c\"}");

    // Tamper: rewrite the object so its key line no longer matches.
    fs::path object = dir / "objects" / contentHash("key-c");
    {
        std::ofstream os(object, std::ios::binary | std::ios::trunc);
        os << "some-other-key\n{\"run\":\"evil\"}\n";
    }

    EXPECT_FALSE(store.get("key-c").has_value());
    EXPECT_EQ(store.corruptDropped(), 1u);
    EXPECT_EQ(store.entryCount(), 0u);
    EXPECT_FALSE(fs::exists(object));

    store.put("key-c", "{\"run\":\"c\"}");
    std::optional<std::string> got = store.get("key-c");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "{\"run\":\"c\"}");
    fs::remove_all(dir);
}

TEST(ResultStore, ReopenRecoversEntriesFromDisk)
{
    fs::path dir = freshDir("reopen");
    std::string error;
    {
        ResultStore store;
        ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error))
            << error;
        store.put("key-a", "{\"run\":\"a\"}");
        store.put("key-b", "{\"run\":\"b\"}");
    }

    ResultStore reopened;
    ASSERT_TRUE(reopened.open(dir.string(), 1 << 20, &error)) << error;
    EXPECT_EQ(reopened.entryCount(), 2u);
    std::optional<std::string> got = reopened.get("key-a");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "{\"run\":\"a\"}");

    // A directory an older build used also holds an LRU index and
    // perhaps a torn index.tmp: every object is adopted, and both
    // files are removed.
    {
        std::ofstream index(dir / "index");
        for (const char *key : {"key-b", "key-a"})
            index << contentHash(key) << ' '
                  << fs::file_size(dir / "objects" / contentHash(key))
                  << '\n';
        std::ofstream(dir / "index.tmp") << contentHash("key-a");
    }
    ResultStore adopted;
    ASSERT_TRUE(adopted.open(dir.string(), 1 << 20, &error)) << error;
    EXPECT_EQ(adopted.entryCount(), 2u);
    got = adopted.get("key-b");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "{\"run\":\"b\"}");
    EXPECT_FALSE(fs::exists(dir / "index"));
    EXPECT_FALSE(fs::exists(dir / "index.tmp"));
    fs::remove_all(dir);
}

TEST(ResultStore, ReopenAdoptsObjectsOldestWrittenFirst)
{
    fs::path dir = freshDir("reopen_order");
    auto object = [&dir](const char *key) {
        return dir / "objects" / contentHash(key);
    };
    // Two 32-byte entries fill the 70-byte cap; a third evicts one.
    const std::string record(28, 'r');
    std::string error;
    {
        ResultStore store;
        ASSERT_TRUE(store.open(dir.string(), 70, &error)) << error;
        store.put("kn", record);
        store.put("ko", record);
    }
    // "ko" was put last but is the older write.
    const fs::file_time_type now = fs::file_time_type::clock::now();
    fs::last_write_time(object("kn"), now - std::chrono::hours(1));
    fs::last_write_time(object("ko"), now - std::chrono::hours(2));
    {
        ResultStore store;
        ASSERT_TRUE(store.open(dir.string(), 70, &error)) << error;
        store.put("k3", record);
        EXPECT_EQ(store.evictions(), 1u);
        EXPECT_FALSE(fs::exists(object("ko")));
        ASSERT_TRUE(fs::exists(object("kn")));
        // A hit moves the entry in memory only: its mtime, which age
        // GC reads as the write time, stays put.
        const fs::file_time_type written = fs::last_write_time(object("kn"));
        EXPECT_TRUE(store.get("kn").has_value());
        EXPECT_EQ(fs::last_write_time(object("kn")), written);
    }
    // Objects written within one timestamp tick adopt in name order.
    fs::last_write_time(object("kn"), now);
    fs::last_write_time(object("k3"), now);
    const bool kn_first = contentHash("kn") < contentHash("k3");
    {
        ResultStore store;
        ASSERT_TRUE(store.open(dir.string(), 70, &error)) << error;
        store.put("k4", record);
        EXPECT_EQ(fs::exists(object("kn")), !kn_first);
        EXPECT_EQ(fs::exists(object("k3")), kn_first);
    }
    fs::remove_all(dir);
}

TEST(ResultStore, DropsEveryDamagedObjectAsAMiss)
{
    fs::path dir = freshDir("damaged");
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;

    const std::string key = "key-d";
    const std::string record = "{\"run\":\"abcdefghijklmnopqrstuvwxyz\"}";
    const std::string whole = key + '\n' + record + '\n';
    std::string zero_tail = whole;
    std::fill(zero_tail.end() - 10, zero_tail.end(), '\0');
    const std::pair<const char *, std::string> damaged[] = {
        {"empty file", ""},
        {"key line only", key + '\n'},
        {"key without a newline", key},
        {"another key", "key-e\n" + record + '\n'},
        {"record truncated mid-line", whole.substr(0, whole.size() - 10)},
        {"zero-filled tail", zero_tail},
    };
    const fs::path object = dir / "objects" / contentHash(key);
    std::uint64_t drops = 0;
    for (const auto &[what, bytes] : damaged) {
        store.put(key, record);
        {
            std::ofstream os(object, std::ios::binary | std::ios::trunc);
            os << bytes;
        }
        const std::uint64_t misses = store.misses();
        EXPECT_FALSE(store.get(key).has_value()) << what;
        EXPECT_EQ(store.corruptDropped(), ++drops) << what;
        EXPECT_EQ(store.misses(), misses + 1) << what;
        EXPECT_EQ(store.entryCount(), 0u) << what;
        EXPECT_FALSE(fs::exists(object)) << what;
    }

    // A fresh put round-trips; an unknown key is a plain miss.
    store.put(key, record);
    std::optional<std::string> got = store.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, record);
    EXPECT_FALSE(store.get("no-such-key").has_value());
    EXPECT_EQ(store.corruptDropped(), drops);

    // Puts, hits, misses and drops leave nothing beside objects/.
    std::vector<std::string> names;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{"objects"});
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------

TEST(JobQueue, RunsAJobThroughTheStateMachine)
{
    JobQueue queue(nullptr, 2);
    std::string error;
    SweepMatrix m = tinyMatrix();
    std::uint64_t id = queue.submit(m, "smoke", &error);
    ASSERT_NE(id, 0u) << error;

    JobStatus status = awaitTerminal(queue, id);
    EXPECT_EQ(status.state, JobState::Done);
    EXPECT_EQ(status.runsTotal, 2u);
    EXPECT_EQ(status.runsCompleted, 2u);
    EXPECT_EQ(status.runsExecuted, 2u);
    EXPECT_EQ(status.runsFromCache, 0u);
    EXPECT_EQ(status.label, "smoke");
    EXPECT_GE(status.submittedMs, 0);
    EXPECT_GE(status.startedMs, status.submittedMs);
    EXPECT_GE(status.finishedMs, status.startedMs);
    EXPECT_EQ(queue.jobsCompleted(), 1u);

    // Streamed lines are the serial reference's bytes, matrix order.
    EXPECT_EQ(jobLines(queue, id), serialRunLines(m));

    EXPECT_EQ(queue.list().size(), 1u);
    EXPECT_FALSE(queue.status(id + 1).has_value());
    EXPECT_FALSE(queue.waitFor(id + 1, 0).has_value());
    EXPECT_EQ(queue.heartbeat(id + 1), nullptr);
    EXPECT_FALSE(queue.streamResults(id + 1,
                                     [](const std::string &) {
                                         return true;
                                     }));
}

TEST(JobQueue, ObservationDoesNotChangeRunBytes)
{
    // Every job writes its progress cells, and this one also merges
    // a host profile; neither may move a byte of the runs.
    SweepMatrix m = tinyMatrix();
    m.apps = {"ferret", "blackscholes"};
    JobQueue queue(nullptr, 2);
    HostProfiler profile;
    std::string error;
    std::uint64_t id = queue.submit(m, "", &error, "", &profile);
    ASSERT_NE(id, 0u) << error;
    EXPECT_EQ(jobLines(queue, id), serialRunLines(m));
    EXPECT_EQ(awaitTerminal(queue, id).state, JobState::Done);

    // Every cell saw the full lifecycle, and every run was profiled.
    const SweepHeartbeat *hb = queue.heartbeat(id);
    ASSERT_NE(hb, nullptr);
    ASSERT_EQ(hb->runCount(), 4u);
    for (std::size_t i = 0; i < hb->runCount(); ++i) {
        EXPECT_EQ(hb->run(i).state(), RunState::Done) << "run " << i;
        EXPECT_EQ(hb->run(i).accessesIssued(),
                  hb->run(i).accessesTarget())
            << "run " << i;
    }
    EXPECT_EQ(hb->runsDone(), hb->runCount());
    EXPECT_GT(hb->launchedMs(), 0u);
    EXPECT_FALSE(hb->interrupted());
    EXPECT_GT(profile.events(), 0u);
}

TEST(JobQueue, RejectsInvalidSubmissions)
{
    JobQueue queue(nullptr, 1);
    std::string error;

    SweepMatrix no_apps = tinyMatrix();
    no_apps.apps.clear();
    EXPECT_EQ(queue.submit(no_apps, "", &error), 0u);
    EXPECT_FALSE(error.empty());

    SweepMatrix unknown = tinyMatrix();
    unknown.apps = {"no-such-app"};
    error.clear();
    EXPECT_EQ(queue.submit(unknown, "", &error), 0u);
    EXPECT_NE(error.find("no-such-app"), std::string::npos) << error;

    // Configs the simulator would abort on never reach a worker.
    SweepMatrix oversized = tinyMatrix();
    oversized.base.mesh.width = 9;
    oversized.base.mesh.height = 8;
    error.clear();
    EXPECT_EQ(queue.submit(oversized, "", &error), 0u);
    EXPECT_EQ(error, "mesh 9x8 has 72 cores; at most 64 are supported");

    EXPECT_EQ(queue.jobsSubmitted(), 0u);

    // A store hit writes no trace file, so only a storeless queue
    // takes a trace directory.
    fs::path dir = freshDir("reject_trace_dir");
    ResultStore store;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;
    JobQueue stored(&store, 1);
    SweepMatrix traced = tinyMatrix();
    traced.traceDir = dir.string();
    error.clear();
    EXPECT_EQ(stored.submit(traced, "", &error), 0u);
    EXPECT_NE(error.find("trace directory"), std::string::npos) << error;
    EXPECT_EQ(stored.jobsSubmitted(), 0u);
    fs::remove_all(dir);
}

TEST(JobQueue, CancelsQueuedJobsBeforeTheyStart)
{
    // The first (deliberately long) job may use every worker and has
    // more slots than the pool has workers, so the second job stays
    // queued while the first one runs.
    JobQueue queue(nullptr, 0);
    std::string error;
    SweepMatrix slow = tinyMatrix();
    slow.seeds.clear();
    for (std::uint64_t seed = 1; seed <= 2 * queue.workerCount(); ++seed)
        slow.seeds.push_back(seed);
    slow.base.accessesPerVcpu = 30000;
    slow.base.warmupAccessesPerVcpu = 1000;
    std::uint64_t first = queue.submit(slow, "long", &error);
    ASSERT_NE(first, 0u) << error;
    std::uint64_t second = queue.submit(tinyMatrix(), "victim", &error);
    ASSERT_NE(second, 0u) << error;

    EXPECT_TRUE(queue.cancel(second));
    std::optional<JobStatus> status = queue.status(second);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Cancelled);
    EXPECT_EQ(status->runsCompleted, 0u);
    EXPECT_EQ(status->startedMs, -1);

    // Terminal jobs cannot be cancelled again; unknown ids never.
    EXPECT_FALSE(queue.cancel(second));
    EXPECT_FALSE(queue.cancel(second + 100));

    EXPECT_TRUE(queue.cancel(first));
    JobStatus done = awaitTerminal(queue, first);
    EXPECT_EQ(done.state, JobState::Cancelled);
    EXPECT_EQ(queue.jobsCancelled(), 2u);
}

TEST(JobQueue, CancelMidSweepKeepsFinishedRunsAndSkipsTheRest)
{
    JobQueue queue(nullptr, 1);
    std::string error;
    SweepMatrix m = tinyMatrix();
    m.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    m.base.accessesPerVcpu = 30000;
    m.base.warmupAccessesPerVcpu = 1000;
    std::uint64_t id = queue.submit(m, "", &error);
    ASSERT_NE(id, 0u) << error;

    // Wait for the first run to land, then cancel: in-flight runs
    // finish, undispatched ones never start.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(120);
    for (;;) {
        std::optional<JobStatus> status = queue.status(id);
        ASSERT_TRUE(status.has_value());
        if (status->runsCompleted >= 1)
            break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "first run never completed";
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(queue.cancel(id));
    // The cells say "interrupted" as soon as dispatch stops, while
    // the next run is still in flight, not once the job drains.
    const SweepHeartbeat *hb = queue.heartbeat(id);
    ASSERT_NE(hb, nullptr);
    EXPECT_TRUE(hb->interrupted());

    JobStatus status = awaitTerminal(queue, id);
    EXPECT_EQ(status.state, JobState::Cancelled);
    EXPECT_TRUE(status.cancelRequested);
    EXPECT_GE(status.runsCompleted, 1u);
    EXPECT_LT(status.runsCompleted, status.runsTotal);
    EXPECT_EQ(hb->runsDone(), status.runsCompleted);
    EXPECT_EQ(hb->runsRunning(), 0u);

    // The stream yields exactly the finished runs, then ends.
    std::size_t streamed = 0;
    EXPECT_TRUE(queue.streamResults(id, [&](const std::string &) {
        ++streamed;
        return true;
    }));
    EXPECT_EQ(streamed, status.runsCompleted);
}

TEST(JobQueue, ResubmissionIsServedEntirelyFromTheCache)
{
    fs::path dir = freshDir("queue_cache");
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;

    JobQueue queue(&store, 2);
    SweepMatrix m = tinyMatrix();
    std::uint64_t first = queue.submit(m, "", &error);
    ASSERT_NE(first, 0u) << error;
    JobStatus cold = awaitTerminal(queue, first);
    EXPECT_EQ(cold.state, JobState::Done);
    EXPECT_EQ(cold.runsExecuted, 2u);
    EXPECT_EQ(cold.runsFromCache, 0u);

    std::uint64_t second = queue.submit(m, "", &error);
    ASSERT_NE(second, 0u) << error;
    JobStatus warm = awaitTerminal(queue, second);
    EXPECT_EQ(warm.state, JobState::Done);
    EXPECT_EQ(warm.runsExecuted, 0u);
    EXPECT_EQ(warm.runsFromCache, 2u);
    EXPECT_GE(store.hits(), 2u);

    // Cached bytes are the executed bytes.
    EXPECT_EQ(jobLines(queue, first), jobLines(queue, second));
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// JobQueue: the shared run pool
// ---------------------------------------------------------------

/** tinyMatrix() with runs long enough (~20k accesses per vCPU) for
 *  two jobs' runs to overlap. */
SweepMatrix
overlapMatrix(std::vector<std::uint64_t> seeds)
{
    SweepMatrix m = tinyMatrix();
    m.seeds = std::move(seeds);
    m.base.accessesPerVcpu = 20000;
    m.base.warmupAccessesPerVcpu = 500;
    return m;
}

/** Poll until @p done(status) holds for job @p id. */
template <typename Pred>
void
awaitStatus(JobQueue &queue, std::uint64_t id, Pred done)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(120);
    for (;;) {
        std::optional<JobStatus> status = queue.status(id);
        ASSERT_TRUE(status.has_value());
        if (done(*status))
            return;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "job " << id << " never reached the awaited state";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/** Job @p id has left Queued, or (with one worker) cannot yet. */
auto
startedUnlessAlone(const JobQueue &queue)
{
    return [&queue](const JobStatus &status) {
        return status.state != JobState::Queued ||
               queue.workerCount() < 2;
    };
}

TEST(JobQueue, NextJobStartsBeforeTheCurrentOneFinishes)
{
    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "needs two hardware threads to overlap jobs";
    // One run worker per job, but the pool has a worker per
    // hardware thread: the second job must not wait for the first.
    JobQueue queue(nullptr, 1);
    ASSERT_GE(queue.workerCount(), 2u);
    std::string error;
    std::uint64_t first = queue.submit(overlapMatrix({1, 2}), "", &error);
    ASSERT_NE(first, 0u) << error;
    std::uint64_t second = queue.submit(overlapMatrix({3}), "", &error);
    ASSERT_NE(second, 0u) << error;
    JobStatus a = awaitTerminal(queue, first);
    JobStatus b = awaitTerminal(queue, second);
    EXPECT_EQ(a.state, JobState::Done);
    EXPECT_EQ(b.state, JobState::Done);
    EXPECT_GE(b.startedMs, 0);
    EXPECT_LT(b.startedMs, a.finishedMs);
}

TEST(JobQueue, OneWorkerPerJobNeverOverlapsItsOwnRuns)
{
    JobTraceRecorder trace;
    JobQueue queue(nullptr, 1, &trace);
    std::string error;
    std::vector<std::uint64_t> ids;
    for (std::uint64_t base : {10, 20}) {
        std::uint64_t id = queue.submit(
            overlapMatrix({base + 1, base + 2, base + 3}), "", &error);
        ASSERT_NE(id, 0u) << error;
        ids.push_back(id);
    }
    for (std::uint64_t id : ids)
        EXPECT_EQ(awaitTerminal(queue, id).state, JobState::Done);

    for (std::uint64_t id : ids) {
        std::vector<JobSpan> runs;
        for (const JobSpan &span : trace.spans())
            if (span.job == id && span.name == "run")
                runs.push_back(span);
        ASSERT_EQ(runs.size(), 3u);
        std::sort(runs.begin(), runs.end(),
                  [](const JobSpan &x, const JobSpan &y) {
                      return x.slot < y.slot;
                  });
        // Slots start in order, each after its predecessor ended.
        for (std::size_t i = 1; i < runs.size(); ++i)
            EXPECT_LE(runs[i - 1].endMs, runs[i].beginMs)
                << "job " << id << " slots " << i - 1 << " and " << i;
    }
}

TEST(JobQueue, ConcurrentJobsStreamTheOfflineBytes)
{
    JobQueue queue(nullptr, 1);
    std::string error;
    std::vector<SweepMatrix> matrices = {overlapMatrix({5, 6}),
                                         overlapMatrix({7, 8})};
    matrices[1].apps = {"fft"};
    std::vector<std::uint64_t> ids;
    for (const SweepMatrix &m : matrices) {
        ids.push_back(queue.submit(m, "", &error));
        ASSERT_NE(ids.back(), 0u) << error;
    }
    for (std::size_t j = 0; j < ids.size(); ++j)
        EXPECT_EQ(jobLines(queue, ids[j]), serialRunLines(matrices[j]))
            << "job " << ids[j];
}

TEST(JobQueue, CancellingOneRunningJobLeavesTheOtherDone)
{
    JobQueue queue(nullptr, 1);
    std::string error;
    std::uint64_t victim =
        queue.submit(overlapMatrix({1, 2, 3, 4}), "", &error);
    ASSERT_NE(victim, 0u) << error;
    std::uint64_t keeper =
        queue.submit(overlapMatrix({5, 6, 7}), "", &error);
    ASSERT_NE(keeper, 0u) << error;
    awaitStatus(queue, victim, [](const JobStatus &status) {
        return status.state != JobState::Queued;
    });
    awaitStatus(queue, keeper, startedUnlessAlone(queue));
    EXPECT_TRUE(queue.cancel(victim));

    JobStatus cancelled = awaitTerminal(queue, victim);
    EXPECT_EQ(cancelled.state, JobState::Cancelled);
    EXPECT_LT(cancelled.runsCompleted, cancelled.runsTotal);
    JobStatus done = awaitTerminal(queue, keeper);
    EXPECT_EQ(done.state, JobState::Done);
    EXPECT_FALSE(done.cancelRequested);
    EXPECT_EQ(done.runsCompleted, done.runsTotal);
    std::size_t streamed = 0;
    EXPECT_TRUE(queue.streamResults(keeper, [&](const std::string &) {
        ++streamed;
        return true;
    }));
    EXPECT_EQ(streamed, done.runsTotal);
}

TEST(JobQueue, PoolIsBoundedForAnOversizedRunLimit)
{
    // vsnoopserve takes any --jobs value; the pool starts up front,
    // so a huge per-job limit must not become a huge thread count.
    JobQueue queue(nullptr, std::numeric_limits<unsigned>::max());
    EXPECT_EQ(queue.workerCount(),
              std::max(256u, std::thread::hardware_concurrency()));
    std::string error;
    std::uint64_t id = queue.submit(tinyMatrix(), "", &error);
    ASSERT_NE(id, 0u) << error;
    EXPECT_EQ(awaitTerminal(queue, id).state, JobState::Done);
}

TEST(JobQueue, ShutdownWithRunningJobsJoinsEveryWorker)
{
    JobQueue queue(nullptr, 1);
    std::string error;
    std::uint64_t first =
        queue.submit(overlapMatrix({1, 2, 3}), "", &error);
    ASSERT_NE(first, 0u) << error;
    std::uint64_t second =
        queue.submit(overlapMatrix({4, 5, 6}), "", &error);
    ASSERT_NE(second, 0u) << error;
    awaitStatus(queue, first, [](const JobStatus &status) {
        return status.state != JobState::Queued;
    });
    awaitStatus(queue, second, startedUnlessAlone(queue));

    queue.shutdown();
    EXPECT_EQ(queue.workerCount(), 0u);
    for (std::uint64_t id : {first, second}) {
        std::optional<JobStatus> status = queue.status(id);
        ASSERT_TRUE(status.has_value());
        EXPECT_TRUE(jobStateTerminal(status->state)) << id;
        // In-flight runs were kept; nothing started after shutdown.
        EXPECT_LT(status->runsCompleted, status->runsTotal) << id;
    }
    EXPECT_EQ(queue.submit(tinyMatrix(), "", &error), 0u);
    EXPECT_NE(error.find("shutting down"), std::string::npos) << error;
}

// ---------------------------------------------------------------
// End-to-end over HTTP
// ---------------------------------------------------------------

TEST(JobApi, StreamedResultsAreByteIdenticalToOfflineSweep)
{
    // A 16-run matrix submitted over HTTP streams exactly the bytes
    // of a serial collectRun() loop over it (what offline
    // vsnoopsweep prints), and resubmission executes zero new runs.
    SweepMatrix m = tinyMatrix();
    m.apps = {"ferret", "blackscholes"};
    m.policies = {PolicyKind::TokenB, PolicyKind::VirtualSnoop};
    m.relocations = {RelocationMode::Base, RelocationMode::Counter};
    m.seeds = {1, 2};
    m.base.accessesPerVcpu = 200;
    m.base.warmupAccessesPerVcpu = 50;
    ASSERT_EQ(m.runCount(), 16u);

    std::string offline;
    for (const std::string &line : serialRunLines(m))
        offline += line + "\n";

    fs::path dir = freshDir("e2e");
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;
    JobQueue queue(&store, 2);
    StatsServer server;
    registerJobRoutes(server, queue);
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    auto submit_and_fetch = [&](std::uint64_t *cached,
                                std::uint64_t *executed) {
        std::optional<HttpReply> reply = httpRequest(
            server.address(), "POST", "/jobs",
            writeSweepRequestJson(m, "e2e"), "application/json",
            &error);
        EXPECT_TRUE(reply.has_value()) << error;
        if (!reply)
            return std::string();
        EXPECT_EQ(reply->status, 200) << reply->body;
        std::optional<JsonValue> accepted = parseJson(reply->body);
        EXPECT_TRUE(accepted.has_value());
        if (!accepted)
            return std::string();
        EXPECT_EQ(accepted->numberAt("runs_total"), 16.0);
        std::string id = std::to_string(
            static_cast<std::uint64_t>(accepted->numberAt("job")));

        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(120);
        for (;;) {
            std::optional<std::string> body =
                httpGet(server.address(), "/jobs/" + id, &error);
            EXPECT_TRUE(body.has_value()) << error;
            if (!body)
                return std::string();
            std::optional<JsonValue> status = parseJson(*body);
            EXPECT_TRUE(status.has_value());
            if (!status)
                return std::string();
            std::string state = status->stringAt("state");
            if (state == "done") {
                *cached = static_cast<std::uint64_t>(
                    status->numberAt("runs_from_cache"));
                *executed = static_cast<std::uint64_t>(
                    status->numberAt("runs_executed"));
                break;
            }
            EXPECT_NE(state, "failed") << *body;
            EXPECT_NE(state, "cancelled") << *body;
            if (std::chrono::steady_clock::now() > deadline) {
                ADD_FAILURE() << "job " << id << " never finished";
                return std::string();
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        std::optional<std::string> results = httpGet(
            server.address(), "/jobs/" + id + "/results", &error);
        EXPECT_TRUE(results.has_value()) << error;
        return results ? *results : std::string();
    };

    std::uint64_t cached = 0, executed = 0;
    std::string first = submit_and_fetch(&cached, &executed);
    EXPECT_EQ(first, offline);
    EXPECT_EQ(executed, 16u);
    EXPECT_EQ(cached, 0u);

    std::string second = submit_and_fetch(&cached, &executed);
    EXPECT_EQ(second, offline);
    EXPECT_EQ(executed, 0u);
    EXPECT_EQ(cached, 16u);

    queue.shutdown();
    server.stop();
    fs::remove_all(dir);
}

TEST(JobApi, RejectsMalformedSubmissionsWithActionableErrors)
{
    JobQueue queue(nullptr, 1);
    StatsServer server;
    registerJobRoutes(server, queue);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    std::optional<HttpReply> reply = httpRequest(
        server.address(), "POST", "/jobs", "not json",
        "application/json", &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 400);
    EXPECT_NE(reply->body.find("invalid JSON"), std::string::npos)
        << reply->body;

    reply = httpRequest(server.address(), "POST", "/jobs",
                        "{\"apps\":[\"ferret\"],"
                        "\"config\":{\"acceses\":1}}",
                        "application/json", &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 400);
    EXPECT_NE(reply->body.find("acceses"), std::string::npos)
        << reply->body;

    reply = httpRequest(server.address(), "GET", "/jobs/999", "", "",
                        &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 404);

    queue.shutdown();
    server.stop();
}

TEST(JobApi, OversizedMeshIsRejectedAndServingContinues)
{
    // A 9x8 mesh is 72 cores, past CoreSet's 64: the POST must get a
    // 400 (not take the server down) and the next job must complete.
    JobQueue queue(nullptr, 1);
    StatsServer server;
    registerJobRoutes(server, queue);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    SweepMatrix oversized = tinyMatrix();
    oversized.base.mesh.width = 9;
    oversized.base.mesh.height = 8;
    std::optional<HttpReply> reply = httpRequest(
        server.address(), "POST", "/jobs",
        writeSweepRequestJson(oversized, "too-big"), "application/json",
        &error);
    ASSERT_TRUE(reply.has_value()) << error;
    EXPECT_EQ(reply->status, 400);
    EXPECT_NE(reply->body.find("at most 64"), std::string::npos)
        << reply->body;
    EXPECT_EQ(queue.jobsSubmitted(), 0u);

    reply = httpRequest(server.address(), "POST", "/jobs",
                        writeSweepRequestJson(tinyMatrix(), "fits"),
                        "application/json", &error);
    ASSERT_TRUE(reply.has_value()) << error;
    ASSERT_EQ(reply->status, 200) << reply->body;
    std::optional<JsonValue> accepted = parseJson(reply->body);
    ASSERT_TRUE(accepted.has_value());
    JobStatus status = awaitTerminal(
        queue, static_cast<std::uint64_t>(accepted->numberAt("job")));
    EXPECT_EQ(status.state, JobState::Done);
    EXPECT_EQ(status.runsCompleted, 2u);

    queue.shutdown();
    server.stop();
}

// ---------------------------------------------------------------
// Observability: age GC, lifecycle spans, request-id threading
// ---------------------------------------------------------------

TEST(ResultStore, AgeGcEvictsOldObjectsAndCountsThem)
{
    fs::path dir = freshDir("age_gc");
    ResultStore store;
    store.setMaxAge(3600);
    std::string error;
    ASSERT_TRUE(store.open(dir.string(), 1 << 20, &error)) << error;

    store.put("fresh", "{\"run\":\"f\"}");
    store.put("stale", "{\"run\":\"s\"}");
    // Nothing is over an hour old yet.
    EXPECT_EQ(store.evictExpired(), 0u);

    // Backdate the stale object two hours.
    fs::path object = dir / "objects" / contentHash("stale");
    fs::last_write_time(object, fs::last_write_time(object) -
                                    std::chrono::hours(2));

    EXPECT_EQ(store.evictExpired(), 1u);
    EXPECT_EQ(store.expired(), 1u);
    EXPECT_EQ(store.entryCount(), 1u);
    EXPECT_FALSE(store.get("stale").has_value());
    EXPECT_TRUE(store.get("fresh").has_value());
    EXPECT_FALSE(fs::exists(object));

    // open() applies the cutoff too: backdate the survivor and
    // reopen — the entry must not be adopted.
    fs::path fresh_object = dir / "objects" / contentHash("fresh");
    fs::last_write_time(fresh_object,
                        fs::last_write_time(fresh_object) -
                            std::chrono::hours(2));
    ResultStore reopened;
    reopened.setMaxAge(3600);
    ASSERT_TRUE(reopened.open(dir.string(), 1 << 20, &error))
        << error;
    EXPECT_EQ(reopened.entryCount(), 0u);
    EXPECT_EQ(reopened.expired(), 1u);

    // maxAge 0 (the default) disables age GC entirely.
    ResultStore unaged;
    ASSERT_TRUE(unaged.open(dir.string(), 1 << 20, &error)) << error;
    EXPECT_EQ(unaged.evictExpired(), 0u);
    fs::remove_all(dir);
}

TEST(JobQueue, LifecycleSpansTileSubmitToDone)
{
    JobTraceRecorder trace;
    JobQueue queue(nullptr, 2, &trace);
    std::string error;
    std::uint64_t id =
        queue.submit(tinyMatrix(), "spans", &error, "span-req-1");
    ASSERT_NE(id, 0u) << error;
    JobStatus status = awaitTerminal(queue, id);
    EXPECT_EQ(status.state, JobState::Done);
    EXPECT_EQ(status.requestId, "span-req-1");

    const JobSpan *queue_wait = nullptr;
    const JobSpan *execute = nullptr;
    std::size_t runs = 0;
    std::vector<JobSpan> spans = trace.spans();
    for (const JobSpan &span : spans) {
        if (span.job != id)
            continue;
        EXPECT_EQ(span.requestId, "span-req-1") << span.name;
        if (span.name == "queue-wait")
            queue_wait = &span;
        else if (span.name == "execute")
            execute = &span;
        else if (span.name == "run") {
            ++runs;
            EXPECT_GE(span.slot, 0);
        }
    }
    ASSERT_NE(queue_wait, nullptr);
    ASSERT_NE(execute, nullptr);
    EXPECT_EQ(runs, 2u);

    // The two job-level spans tile [submitted, finished] exactly,
    // so their durations sum to the job's submit-to-done latency.
    EXPECT_EQ(queue_wait->beginMs, status.submittedMs);
    EXPECT_EQ(queue_wait->endMs, status.startedMs);
    EXPECT_EQ(execute->beginMs, status.startedMs);
    EXPECT_EQ(execute->endMs, status.finishedMs);
    EXPECT_EQ((queue_wait->endMs - queue_wait->beginMs) +
                  (execute->endMs - execute->beginMs),
              status.finishedMs - status.submittedMs);

    // Every uncached slot left a cache-miss instant.
    std::size_t misses = 0;
    for (const JobInstant &instant : trace.instants())
        if (instant.job == id && instant.name == "cache-miss")
            ++misses;
    EXPECT_EQ(misses, 2u);

    // The Chrome-trace export is one JSON document with an event
    // per span/instant plus per-track metadata.
    std::ostringstream out;
    trace.writeChromeTrace(out);
    std::optional<JsonValue> doc = parseJson(out.str());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_GE(events->items().size(),
              spans.size() + trace.instants().size());
}

TEST(JobTrace, OverlappingRunsOfConcurrentJobsGetSeparateLanes)
{
    // Slot 0 of jobs 1 and 2 overlap; job 1's slot 1 starts after
    // both ended and reuses the first lane.
    JobTraceRecorder trace;
    trace.record(JobSpan{1, "run", 10, 50, "", 0, "ferret"});
    trace.record(JobSpan{2, "run", 20, 60, "", 0, "fft"});
    trace.record(JobSpan{1, "run", 60, 90, "", 1, "ferret"});
    std::ostringstream out;
    trace.writeChromeTrace(out);
    std::optional<JsonValue> doc = parseJson(out.str());
    ASSERT_TRUE(doc.has_value());
    std::vector<std::pair<double, double>> lanes; // (ts, tid) of runs
    std::size_t lane_names = 0;
    for (const JsonValue &event : doc->find("traceEvents")->items()) {
        if (event.stringAt("name") == "run")
            lanes.emplace_back(event.numberAt("ts"),
                               event.numberAt("tid"));
        if (event.stringAt("name") == "thread_name" &&
            event.numberAt("pid") == 1)
            ++lane_names;
    }
    EXPECT_EQ(lanes, (std::vector<std::pair<double, double>>{
                         {10000, 0}, {20000, 1}, {60000, 0}}));
    EXPECT_EQ(lane_names, 2u);
}

TEST(JobQueue, QueueWaitHistogramReconcilesWithSubmissions)
{
    MetricsRegistry registry;
    JobQueue queue(nullptr, 2);
    queue.registerMetrics(registry);
    registry.freeze();

    std::string error;
    std::uint64_t first =
        queue.submit(tinyMatrix(), "one", &error);
    ASSERT_NE(first, 0u) << error;
    awaitTerminal(queue, first);
    std::uint64_t second =
        queue.submit(tinyMatrix(), "two", &error);
    ASSERT_NE(second, 0u) << error;
    awaitTerminal(queue, second);

    registry.publish();
    std::string text = registry.renderPrometheus();
    // Every submitted job left Queued exactly once, and every
    // executed run was timed: the histogram counts reconcile with
    // the job counters.
    EXPECT_NE(text.find("vsnoop_job_queue_wait_ms_count 2\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_job_run_execute_ms_count 4\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_jobs_submitted_total 2\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_job_runs_executed_total 4\n"),
              std::string::npos)
        << text;
}

TEST(JobApi, RequestIdsThreadFromSubmissionToStatus)
{
    JobQueue queue(nullptr, 2);
    StatsServer server;
    registerJobRoutes(server, queue);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    std::string body =
        writeSweepRequestJson(tinyMatrix(), "rid-e2e");
    std::optional<HttpReply> reply =
        httpRequest(server.address(), "POST", "/jobs", body,
                    "application/json", &error, 5000, "client-rid-7");
    ASSERT_TRUE(reply.has_value()) << error;
    ASSERT_EQ(reply->status, 200) << reply->body;
    // Echoed on the wire and in the acceptance body.
    EXPECT_EQ(reply->requestId, "client-rid-7");
    std::optional<JsonValue> accepted = parseJson(reply->body);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->stringAt("request_id"), "client-rid-7");
    std::uint64_t id =
        static_cast<std::uint64_t>(accepted->numberAt("job"));

    // The id sticks to the job for its whole life: the status JSON
    // reports the submitting request's id on every later poll.
    awaitTerminal(queue, id);
    reply = httpRequest(server.address(), "GET",
                        "/jobs/" + std::to_string(id), "", "",
                        &error);
    ASSERT_TRUE(reply.has_value()) << error;
    ASSERT_EQ(reply->status, 200);
    std::optional<JsonValue> status = parseJson(reply->body);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->stringAt("request_id"), "client-rid-7");
    // The poll itself got its own server-generated id.
    EXPECT_FALSE(reply->requestId.empty());
    EXPECT_NE(reply->requestId, "client-rid-7");

    // The submission left a correlatable structured log record.
    bool logged = false;
    for (const LogRecord &r : slog().tail())
        if (r.json.find("\"msg\":\"job_submitted\"") !=
                std::string::npos &&
            r.json.find("\"request_id\":\"client-rid-7\"") !=
                std::string::npos)
            logged = true;
    EXPECT_TRUE(logged);

    queue.shutdown();
    server.stop();
}

} // namespace
} // namespace vsnoop::test
