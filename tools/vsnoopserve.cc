/**
 * @file
 * vsnoopserve — persistent simulation-as-a-service sweep server.
 *
 * Serves the job API (service/job_api.hh) over the embedded HTTP
 * server: clients POST sweep matrices, poll job status, and stream
 * byte-identical JSONL results; every run is cached on disk in a
 * content-addressed ResultStore so repeated what-if questions are
 * answered without simulating.  /metrics exposes queue and cache
 * counters in Prometheus text format.
 *
 *   vsnoopserve --addr 127.0.0.1:8100 --cache-dir vsnoop-cache &
 *   curl -d @matrix.json http://127.0.0.1:8100/jobs
 *   curl http://127.0.0.1:8100/jobs/1/results
 *
 * Observability: stderr carries one JSON object per log line
 * (structured access logs, job transitions, cache evictions);
 * GET /logs replays the most recent records with an optional
 * ?level= filter; /metrics includes latency histograms, build
 * info, and uptime; --trace-jobs exports every job's lifecycle
 * spans as a Perfetto-loadable Chrome trace on shutdown.
 *
 * SIGINT/SIGTERM drains in-flight runs, cancels queued jobs, and
 * exits 0 after a summary.  A second signal kills immediately.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "service/job_api.hh"
#include "service/job_queue.hh"
#include "service/result_store.hh"
#include "sim/cli.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/slog.hh"
#include "sim/stats_server.hh"
#include "system/heartbeat.hh"
#include "trace/job_trace.hh"

using namespace vsnoop;
using cli::die;

namespace
{

void
usage()
{
    std::cout <<
        "vsnoopserve — persistent sweep server with a job queue and\n"
        "an on-disk content-addressed result cache\n"
        "\n"
        "usage: vsnoopserve [flags]\n"
        "\n"
        "  --addr H:P            listen address (default\n"
        "                        127.0.0.1:8100; port 0 picks a free\n"
        "                        port — the bound address is printed\n"
        "                        to stderr)\n"
        "  --cache-dir DIR       result-store directory, created if\n"
        "                        absent (default vsnoop-cache)\n"
        "  --cache-max-mb N      evict least-recently-used cached\n"
        "                        runs beyond N MB (default 512)\n"
        "  --jobs N              runs one job may simulate at once\n"
        "                        (default hardware concurrency); up\n"
        "                        to max(N, nproc) runs execute at\n"
        "                        once across jobs (N counted up to\n"
        "                        256)\n"
        "  --http-threads N      HTTP connection workers (default 8,\n"
        "                        at most 256)\n"
        "  --max-body-kb N       reject request bodies over N KB\n"
        "                        with 413 (default 1024)\n"
        "  --read-timeout-ms N   drop clients stalled longer than N\n"
        "                        ms mid-request (default 5000)\n"
        "  --store-max-age DUR   evict cached runs older than DUR\n"
        "                        (<N>[s|m|h|d], e.g. 7d; checked at\n"
        "                        startup and periodically; default\n"
        "                        off)\n"
        "  --trace-jobs FILE     write every job's lifecycle spans\n"
        "                        as a Chrome trace (Perfetto) to\n"
        "                        FILE on shutdown\n"
        "  --log-ring N          keep the last N log records for\n"
        "                        GET /logs (default 1024)\n"
        "  --help                this text\n"
        "\n"
        "HTTP API:\n"
        "  POST   /jobs               submit a sweep matrix (JSON)\n"
        "  GET    /jobs               list jobs\n"
        "  GET    /jobs/<id>          status + progress\n"
        "  GET    /jobs/<id>/results  stream results (JSONL,\n"
        "                             chunked, matrix order)\n"
        "  DELETE /jobs/<id>          cancel\n"
        "  GET    /metrics            Prometheus text format\n"
        "  GET    /logs               recent log records (JSONL;\n"
        "                             ?level=warn&n=100 filters)\n"
        "\n"
        "Results are byte-identical to offline vsnoopsweep output\n"
        "for the same matrix; identical submissions are served from\n"
        "the cache without executing any run.\n"
        "\n"
        "Flags accept both \"--flag value\" and \"--flag=value\".\n";
}

volatile std::sig_atomic_t g_signal = 0;

extern "C" void
onSignal(int sig)
{
    g_signal = sig;
    static const char msg[] =
        "\nvsnoopserve: shutting down; draining in-flight runs"
        " (repeat the signal to kill)\n";
    ssize_t rc = write(2, msg, sizeof msg - 1);
    (void)rc;
}

void
installSignalHandlers()
{
    struct sigaction action;
    std::memset(&action, 0, sizeof action);
    action.sa_handler = onSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESETHAND;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

/** "<N>[s|m|h|d]" (bare N = seconds) -> seconds. */
std::int64_t
parseDuration(const std::string &flag, const std::string &value)
{
    std::size_t digits = std::min(value.find_first_not_of("0123456789"),
                                  value.size());
    std::string suffix = value.substr(digits);
    std::uint64_t mult = 0;
    if (suffix.empty() || suffix == "s")
        mult = 1;
    else if (suffix == "m")
        mult = 60;
    else if (suffix == "h")
        mult = 3600;
    else if (suffix == "d")
        mult = 86400;
    else
        die(flag + " expects <N>[s|m|h|d], got '" + value + "'");
    return static_cast<std::int64_t>(
        cli::parseUint(flag, value.substr(0, digits), INT64_MAX / mult) *
        mult);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string addr = "127.0.0.1:8100";
    std::string cache_dir = "vsnoop-cache";
    std::uint64_t cache_max_mb = 512;
    unsigned jobs = 0;
    unsigned http_threads = 8;
    std::uint64_t max_body_kb = 1024;
    std::uint64_t read_timeout_ms = 5000;
    std::int64_t store_max_age_s = 0;
    std::string trace_jobs_path;
    std::uint64_t log_ring = 1024;

    cli::Args args("vsnoopserve", argc, argv);
    while (args.next()) {
        const std::string &flag = args.flag();
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--addr") {
            addr = args.value();
        } else if (flag == "--cache-dir") {
            cache_dir = args.value();
        } else if (flag == "--cache-max-mb") {
            cache_max_mb = args.uintValue(UINT64_MAX >> 20);
        } else if (flag == "--jobs") {
            jobs = static_cast<unsigned>(args.uintValue(UINT_MAX));
        } else if (flag == "--http-threads") {
            // StatsServer starts every worker up front.
            http_threads = static_cast<unsigned>(args.uintValue(256));
            if (http_threads == 0)
                die("--http-threads must be at least 1");
        } else if (flag == "--max-body-kb") {
            max_body_kb = args.uintValue(SIZE_MAX >> 10);
            if (max_body_kb == 0)
                die("--max-body-kb must be at least 1");
        } else if (flag == "--read-timeout-ms") {
            read_timeout_ms = args.uintValue(INT_MAX);
            if (read_timeout_ms == 0)
                die("--read-timeout-ms must be at least 1");
        } else if (flag == "--store-max-age") {
            store_max_age_s = parseDuration(flag, args.value());
        } else if (flag == "--trace-jobs") {
            trace_jobs_path = args.value();
        } else if (flag == "--log-ring") {
            log_ring = args.uintValue();
            if (log_ring == 0)
                die("--log-ring must be at least 1");
        } else {
            die("unknown flag '" + flag + "' (try --help)");
        }
    }

    // Every log line on stderr is one JSON object (structured
    // access/job/eviction records); the plain-text banner and final
    // summary below are the only exceptions.
    quietLogging(false);
    slog().setRingCapacity(static_cast<std::size_t>(log_ring));
    slog().setJsonStderr(true);

    ResultStore store;
    store.setMaxAge(store_max_age_s);
    std::string error;
    if (!store.open(cache_dir, cache_max_mb * 1024 * 1024, &error))
        die("--cache-dir " + cache_dir + ": " + error);

    // Lifecycle spans are recorded only when they will be written
    // out — the recorder keeps every span until shutdown.
    JobTraceRecorder trace;
    JobTraceRecorder *tracePtr =
        trace_jobs_path.empty() ? nullptr : &trace;
    // Handlers reference the queue, so it must outlive the server's
    // worker threads: constructed before the server, destroyed
    // after it on every exit path.
    JobQueue queue(&store, jobs, tracePtr);

    MetricsRegistry registry;
    StatsServer server;
    server.setWorkers(http_threads);
    server.setMaxBodyBytes(max_body_kb * 1024);
    server.setReadTimeoutMs(static_cast<int>(read_timeout_ms));
    server.route("/", [] {
        HttpResponse resp;
        resp.body =
            "vsnoopserve\n"
            "  POST   /jobs               submit a sweep matrix\n"
            "  GET    /jobs               list jobs\n"
            "  GET    /jobs/<id>          status\n"
            "  GET    /jobs/<id>/results  stream results (JSONL)\n"
            "  DELETE /jobs/<id>          cancel\n"
            "  GET    /metrics            Prometheus text format\n"
            "  GET    /logs               recent log records (JSONL)\n";
        return resp;
    });
    server.route("/metrics", [&registry] {
        HttpResponse resp;
        resp.contentType = kPrometheusContentType;
        resp.body = registry.renderPrometheus();
        return resp;
    });
    registerJobRoutes(server, queue);
    registerLogRoute(server);

    // All routes are known now; register their series, then the
    // store's and the queue's, and freeze the layout.
    store.registerMetrics(registry);
    queue.registerMetrics(registry);
    server.registerMetrics(registry);
    registerBuildInfo(registry);
    const auto started = std::chrono::steady_clock::now();
    registry.addGauge("vsnoop_uptime_seconds",
                      "Seconds since the server started", [started] {
                          return std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     started)
                              .count();
                      });
    registry.freeze();

    if (!server.start(addr, &error))
        die("--addr " + addr + ": " + error);
    std::cerr << "vsnoopserve: serving on http://" << server.address()
              << " (cache " << cache_dir << ", cap " << cache_max_mb
              << " MB, " << store.entryCount()
              << " cached runs)\n";

    installSignalHandlers();

    // Main thread doubles as the registry's single publisher.
    std::uint64_t cycles = 0;
    while (g_signal == 0) {
        registry.publish();
        // Age out stale cache objects roughly once a minute.
        if (store_max_age_s > 0 && ++cycles % 240 == 0)
            store.evictExpired();
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }

    // Queue first so blocked result streams terminate, then the
    // server so workers drain, then a final summary.
    queue.shutdown();
    server.stop();

    if (!trace_jobs_path.empty()) {
        std::ofstream out(trace_jobs_path,
                          std::ios::binary | std::ios::trunc);
        if (out)
            trace.writeChromeTrace(out);
        if (!out.good())
            std::cerr << "vsnoopserve: cannot write --trace-jobs "
                      << trace_jobs_path << "\n";
    }
    std::cerr << "vsnoopserve: " << queue.jobsSubmitted()
              << " jobs submitted, " << queue.jobsCompleted()
              << " done, " << queue.jobsFailed() << " failed, "
              << queue.jobsCancelled() << " cancelled; "
              << queue.runsExecuted() << " runs executed, "
              << queue.runsFromCache() << " from cache ("
              << store.entryCount() << " cached, "
              << store.totalBytes() << " bytes)\n";
    return 0;
}
