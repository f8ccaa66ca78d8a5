/**
 * @file
 * serve-cold: an in-process vsnoopserve stack (ResultStore + JobQueue
 * + StatsServer with the job routes) driven over loopback HTTP by a
 * closed loop of client threads, every job a distinct matrix.
 *
 * A job's latency runs from sending POST /jobs to the last byte of
 * its blocking GET /jobs/<id>/results stream — no status polling,
 * so a sub-millisecond cached job is not rounded up to a poll tick.
 */

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "perfbench.hh"
#include "service/job_api.hh"
#include "service/job_queue.hh"
#include "service/result_store.hh"
#include "service/sweep_wire.hh"
#include "sim/json.hh"
#include "sim/stats_server.hh"
#include "system/run_result.hh"
#include "trace/job_trace.hh"
#include "workload/app_profile.hh"

using namespace vsnoop;

namespace perfbench
{

namespace
{

/** Closed-loop client threads (the load is one process). */
constexpr unsigned kClients = 2;
/** Run workers per job (JobQueue's runIndexed parallelism). */
constexpr unsigned kRunJobs = 2;
/** Seed space of the set-up warm-up jobs (never a window job). */
constexpr std::uint64_t kWarmupItemBase = 99000;
/**
 * Peak RSS is read once this many window jobs have finished: JobQueue
 * keeps every job's lines, so a read at the window's end would grow
 * with throughput instead of comparing the same work across builds.
 */
constexpr std::size_t kRssJobs = 100;

/**
 * One served matrix (Fig. 8 style): virtual snooping with
 * counter-threshold relocation, a short migration period and a
 * 32 KB L2, so residence counters remove cores, for ferret and for
 * fft under the intra-VM RO policy.  Two runs, one seed.
 */
SweepMatrix
serveMatrix(std::uint64_t seed, std::uint64_t item, bool perf)
{
    SweepMatrix matrix;
    matrix.apps = {"ferret", "fft"};
    matrix.policies = {PolicyKind::VirtualSnoop};
    matrix.relocations = {RelocationMode::CounterThreshold};
    matrix.roPolicies = {RoPolicy::IntraVm};
    matrix.seeds = {seed * 100000 + item};
    matrix.base.accessesPerVcpu = 1000;
    matrix.base.warmupAccessesPerVcpu = 250;
    matrix.base.migrationPeriod = 10000;
    matrix.base.l2.sizeBytes = 32 * 1024;
    matrix.base.perf = perf;
    return matrix;
}

std::vector<PoolRun>
runsOf(const SweepMatrix &matrix, std::uint64_t item)
{
    std::vector<PoolRun> runs;
    std::size_t r = 0;
    for (const SweepPoint &point : matrix.expand())
        runs.push_back(PoolRun{std::to_string(item) + "." +
                                   std::to_string(r++),
                               matrix.configFor(point), point.app});
    return runs;
}

/** The service under test, as vsnoopserve wires it. */
struct Stack
{
    ResultStore store;
    JobTraceRecorder recorder;
    std::unique_ptr<JobQueue> queue;
    StatsServer server;
    std::string addr;

    Stack() = default;
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    ~Stack()
    {
        // Queue first so blocked streams end, then the server.
        if (queue)
            queue->shutdown();
        server.stop();
    }
};

std::unique_ptr<Stack>
openStack(const std::string &dir, bool trace)
{
    auto stack = std::make_unique<Stack>();
    std::string error;
    if (!stack->store.open(dir, std::uint64_t(1) << 32, &error))
        throw std::runtime_error("store " + dir + ": " + error);
    stack->queue = std::make_unique<JobQueue>(
        &stack->store, kRunJobs, trace ? &stack->recorder : nullptr);
    registerJobRoutes(stack->server, *stack->queue);
    if (!stack->server.start("127.0.0.1:0", &error))
        throw std::runtime_error("server: " + error);
    stack->addr = stack->server.address();
    return stack;
}

/** What one client thread saw; merged after the window. */
struct ClientLog
{
    std::vector<double> jobMs, postUs, streamUs;
    std::vector<Observed> observed;
    std::vector<std::pair<std::size_t, std::uint64_t>> jobs;
    std::set<std::size_t> failed;
    std::vector<std::string> notes;
    std::vector<Span> spans;
    std::uint64_t records = 0;
};

/**
 * Submit @p body and read its results stream to the last byte.
 * Returns the lines, or records a failure of @p op in @p log.
 */
std::vector<std::string>
serveJob(const std::string &addr, const std::string &body,
         std::size_t op, const std::string &requestId, bool trace,
         ClientLog &log)
{
    auto fail = [&](const std::string &what) {
        log.failed.insert(op);
        log.notes.push_back("op " + std::to_string(op) + ": " + what);
        return std::vector<std::string>{};
    };
    std::string error;
    double t0 = nowUs();
    std::optional<HttpReply> posted =
        httpRequest(addr, "POST", "/jobs", body, "application/json",
                    &error, 30000, requestId);
    double t1 = nowUs();
    if (!posted || posted->status != 200)
        return fail("POST /jobs: " +
                    (posted ? std::to_string(posted->status) : error));
    std::optional<JsonValue> accepted = parseJson(posted->body);
    if (!accepted)
        return fail("POST /jobs: malformed reply");
    auto id = static_cast<std::uint64_t>(accepted->numberAt("job"));
    auto total = static_cast<std::size_t>(accepted->numberAt("runs_total"));
    log.jobs.emplace_back(op, id);
    std::optional<HttpReply> streamed = httpRequest(
        addr, "GET", "/jobs/" + std::to_string(id) + "/results", "", "",
        &error, 120000, requestId);
    double t2 = nowUs();
    if (!streamed || streamed->status != 200)
        return fail("GET results: " +
                    (streamed ? std::to_string(streamed->status) : error));
    log.jobMs.push_back((t2 - t0) / 1e3);
    log.postUs.push_back(t1 - t0);
    log.streamUs.push_back(t2 - t1);
    if (trace) {
        log.spans.push_back(Span{"job", t0, t2, "", requestId});
        log.spans.push_back(Span{"post", t0, t1, "job", requestId});
        log.spans.push_back(Span{"stream", t1, t2, "job", requestId});
    }
    std::vector<std::string> lines;
    std::size_t pos = 0;
    const std::string &text = streamed->body;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    if (lines.size() != total)
        return fail("stream carried " + std::to_string(lines.size()) +
                    " lines, expected " + std::to_string(total));
    return lines;
}

} // namespace

std::vector<PoolRun>
servePool(std::uint64_t seed, std::size_t items)
{
    std::vector<PoolRun> pool;
    for (std::uint64_t k = 0; k < items; ++k) {
        std::vector<PoolRun> runs = runsOf(serveMatrix(seed, k, false), k);
        pool.insert(pool.end(), runs.begin(), runs.end());
    }
    return pool;
}

void
runServeCold(const Options &opt, Report &report)
{
    const bool perf = opt.trace;

    // Set-up, repeated on fresh store directories (median reported):
    // store open, queue + server start, and one warm-up job over HTTP.
    std::unique_ptr<Stack> stack;
    for (int rep = 0; rep < 9; ++rep) {
        std::string dir = opt.workDir + "/store-" + opt.workload + "-" +
                          std::to_string(rep);
        std::filesystem::remove_all(dir);
        stack.reset();
        Clock::time_point start = Clock::now();
        stack = openStack(dir, opt.trace);
        ClientLog scratch;
        serveJob(stack->addr,
                 writeSweepRequestJson(
                     serveMatrix(opt.seed, kWarmupItemBase + rep, perf)),
                 0, "pb-setup-" + std::to_string(rep), false, scratch);
        if (!scratch.failed.empty())
            throw std::runtime_error("set-up job failed: " +
                                     scratch.notes.front());
        report.setupSeconds.push_back(secondsSince(start));
    }

    std::uint64_t hits0 = stack->store.hits();
    std::uint64_t misses0 = stack->store.misses();
    std::atomic<std::size_t> nextOp{0};
    std::atomic<std::size_t> nextRecord{0};
    std::atomic<std::size_t> finished{0};
    // Written by the one client that finishes job kRssJobs; read
    // after the join.
    double rssAtJobs = 0.0;
    std::vector<ClientLog> logs(kClients);
    Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.seconds));
    std::vector<std::thread> clients;
    // One closed-loop iteration: the next job, served and digested.
    auto serveNext = [&](std::size_t op, ClientLog &log) {
        std::string body =
            writeSweepRequestJson(serveMatrix(opt.seed, op, perf));
        std::string rid =
            "pb-" + std::to_string(opt.seed) + "-" + std::to_string(op);
        std::vector<std::string> lines =
            serveJob(stack->addr, body, op, rid, opt.trace, log);
        for (std::size_t r = 0; r < lines.size(); ++r) {
            log.observed.push_back(observeRecord(
                opt, nextRecord.fetch_add(1), op,
                std::to_string(op) + "." + std::to_string(r),
                std::move(lines[r])));
            ++log.records;
        }
    };
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ClientLog &log = logs[c];
            while (Clock::now() < deadline) {
                std::size_t op = nextOp.fetch_add(1);
                try {
                    serveNext(op, log);
                } catch (const std::exception &e) {
                    log.failed.insert(op);
                    log.notes.push_back("op " + std::to_string(op) + ": " +
                                        e.what());
                }
                if (finished.fetch_add(1) + 1 == kRssJobs)
                    rssAtJobs = peakRssMb();
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    report.windowSeconds = secondsSince(start);
    // Peak memory of set-up plus the first kRssJobs jobs (all of the
    // window, if it finished fewer), before verification.
    report.values["peak_rss_mb"] = rssAtJobs > 0.0 ? rssAtJobs : peakRssMb();

    std::uint64_t hits = stack->store.hits() - hits0;
    std::uint64_t lookups = hits + stack->store.misses() - misses0;
    report.values["service.store_hit_ratio"] =
        lookups ? static_cast<double>(hits) / lookups : 0.0;
    std::size_t ops = nextOp.load();
    report.attempted += ops;
    for (ClientLog &log : logs) {
        report.records += log.records;
        report.failedOps.insert(log.failed.begin(), log.failed.end());
        report.notes.insert(report.notes.end(), log.notes.begin(),
                            log.notes.end());
        report.jobMs.insert(report.jobMs.end(), log.jobMs.begin(),
                            log.jobMs.end());
        std::vector<double> &post = report.samples["http.post_us"];
        post.insert(post.end(), log.postUs.begin(), log.postUs.end());
        std::vector<double> &stream = report.samples["http.stream_us"];
        stream.insert(stream.end(), log.streamUs.begin(),
                      log.streamUs.end());
        report.observed.insert(report.observed.end(),
                               log.observed.begin(), log.observed.end());
        report.spans.insert(report.spans.end(), log.spans.begin(),
                            log.spans.end());
        // A job counts only if the queue itself saw it finish done.
        for (const auto &[op, id] : log.jobs) {
            std::optional<JobStatus> s = stack->queue->status(id);
            if (!s || s->state != JobState::Done) {
                report.failedOps.insert(op);
                report.notes.push_back("op " + std::to_string(op) +
                                       ": job did not end done");
                continue;
            }
            report.samples["service.queue_wait_ms"].push_back(
                static_cast<double>(s->startedMs - s->submittedMs));
            report.samples["service.execute_ms"].push_back(
                static_cast<double>(s->finishedMs - s->startedMs));
        }
    }
    if (opt.trace) {
        // The queue's own lifecycle spans (queue-wait, execute, run,
        // stream; request id on each) beside the benchmark's spans.
        std::ofstream out(opt.workDir + "/jobs-" + opt.workload +
                          ".trace.json");
        stack->recorder.writeChromeTrace(out);
    }
    stack.reset();

    // Offline references for every served run not committed.
    std::vector<PoolRun> served;
    for (std::size_t op = 0; op < ops; ++op) {
        std::vector<PoolRun> runs =
            runsOf(serveMatrix(opt.seed, op, perf), op);
        served.insert(served.end(), runs.begin(), runs.end());
    }
    computeOffline(served, opt, std::thread::hardware_concurrency(),
                   report);

    if (opt.trace) {
        // The system layer and the calibrations on this workload's
        // own run configs, submission bodies and records.
        std::vector<PoolRun> sample;
        std::vector<std::string> bodies;
        for (std::uint64_t k = 0; k < 8; ++k) {
            SweepMatrix matrix = serveMatrix(opt.seed, k, perf);
            std::vector<PoolRun> runs = runsOf(matrix, k);
            sample.insert(sample.end(), runs.begin(), runs.end());
            bodies.push_back(writeSweepRequestJson(matrix));
        }
        measureSystemLayer(sample, opt, 3.0, ops, report);
        std::vector<std::string> records;
        for (std::size_t i = 0; i < 4; ++i)
            records.push_back(
                collectRun(sample[i].config, findApp(sample[i].app))
                    .toJson());
        calibrateService(bodies, sample, records, opt, report);
    }
}

} // namespace perfbench
