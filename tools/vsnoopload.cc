/**
 * @file
 * vsnoopload — concurrent load generator for vsnoopserve.
 *
 * Hammers a running server with N client threads, each submitting
 * M sweep jobs drawn from a bounded pool of distinct matrices —
 * so a configurable fraction of submissions repeats an earlier
 * configuration and exercises the result cache — then polls each
 * job to completion, verifies the streamed results line count, and
 * reports end-to-end submit-to-done latency percentiles through
 * the repository's LatencyHistogram.
 *
 *   vsnoopserve --addr 127.0.0.1:8100 &
 *   vsnoopload --addr 127.0.0.1:8100 --clients 8 --submissions 4
 *
 * Exit status is non-zero when any request fails, so CI can use a
 * brief run as a pass/fail smoke of the serving path.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/sweep_wire.hh"
#include "sim/cli.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/stats_server.hh"
#include "system/heartbeat.hh"
#include "system/sweep.hh"
#include "workload/app_profile.hh"

using namespace vsnoop;
using cli::die;

namespace
{

void
usage()
{
    std::cout <<
        "vsnoopload — concurrent load generator for vsnoopserve\n"
        "\n"
        "usage: vsnoopload --addr H:P [flags]\n"
        "\n"
        "  --addr H:P            server address (required)\n"
        "  --clients N           concurrent client threads\n"
        "                        (default 8)\n"
        "  --submissions N       jobs each client submits\n"
        "                        (default 4)\n"
        "  --distinct N          size of the distinct-matrix pool\n"
        "                        the clients draw from; submissions\n"
        "                        beyond the pool repeat earlier\n"
        "                        matrices and should be served from\n"
        "                        cache (default clients*submissions/2,\n"
        "                        i.e. every matrix submitted twice)\n"
        "  --apps A,B,...        app pool, one per matrix, cycled\n"
        "                        (default ferret)\n"
        "  --accesses N          accesses per vCPU per run\n"
        "                        (default 2000)\n"
        "  --seed-base N         first seed; matrix k uses seed\n"
        "                        N + k (default 1)\n"
        "  --poll-ms N           status poll interval (default 25)\n"
        "  --help                this text\n"
        "\n"
        "Flags accept both \"--flag value\" and \"--flag=value\".\n";
}

struct ClientOutcome
{
    std::vector<std::uint64_t> latenciesMs;
    std::uint64_t failures = 0;
    std::uint64_t runsFromCache = 0;
    std::uint64_t runsExecuted = 0;
    std::vector<std::string> errors;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string addr;
    std::uint64_t clients = 8;
    std::uint64_t submissions = 4;
    std::uint64_t distinct = 0;
    std::vector<std::string> apps = {"ferret"};
    std::uint64_t accesses = 2000;
    std::uint64_t seed_base = 1;
    std::uint64_t poll_ms = 25;

    cli::Args args("vsnoopload", argc, argv);
    while (args.next()) {
        const std::string &flag = args.flag();
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--addr") {
            addr = args.value();
        } else if (flag == "--clients") {
            clients = args.uintValue();
        } else if (flag == "--submissions") {
            submissions = args.uintValue();
        } else if (flag == "--distinct") {
            distinct = args.uintValue();
        } else if (flag == "--apps") {
            apps = cli::splitList(flag, args.value());
        } else if (flag == "--accesses") {
            accesses = args.uintValue();
        } else if (flag == "--seed-base") {
            seed_base = args.uintValue();
        } else if (flag == "--poll-ms") {
            poll_ms = args.uintValue();
        } else {
            die("unknown flag '" + flag + "' (try --help)");
        }
    }
    if (addr.empty())
        die("--addr is required (try --help)");
    if (clients == 0 || submissions == 0)
        die("--clients and --submissions must be at least 1");
    for (const std::string &name : apps)
        if (tryFindApp(name) == nullptr)
            die("unknown app '" + name + "'");
    if (distinct == 0)
        distinct = std::max<std::uint64_t>(
            1, clients * submissions / 2);

    // The matrix pool: single-run matrices differing by seed (and
    // app, cycling the app list), so each is one cache key.
    std::vector<std::string> pool;
    pool.reserve(distinct);
    for (std::uint64_t k = 0; k < distinct; ++k) {
        SweepMatrix matrix;
        matrix.apps = {apps[k % apps.size()]};
        matrix.base.accessesPerVcpu = accesses;
        matrix.base.warmupAccessesPerVcpu = accesses / 4;
        matrix.seeds = {seed_base + k};
        pool.push_back(writeSweepRequestJson(
            matrix, "vsnoopload-" + std::to_string(k)));
    }

    std::vector<ClientOutcome> outcomes(clients);
    std::vector<std::thread> workers;
    workers.reserve(clients);
    auto wall_start = std::chrono::steady_clock::now();
    for (std::uint64_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
            ClientOutcome &outcome = outcomes[c];
            auto failed = [&](const std::string &what) {
                ++outcome.failures;
                outcome.errors.push_back(what);
            };
            for (std::uint64_t s = 0; s < submissions; ++s) {
                const std::string &body =
                    pool[(c * submissions + s) % distinct];
                std::string error;
                std::uint64_t t0 = steadyNowMs();
                std::optional<HttpReply> reply =
                    httpRequest(addr, "POST", "/jobs", body,
                                "application/json", &error);
                if (!reply || reply->status != 200) {
                    failed("POST /jobs: " +
                           (reply ? "HTTP " +
                                        std::to_string(reply->status)
                                  : error));
                    continue;
                }
                std::optional<JsonValue> accepted =
                    parseJson(reply->body);
                if (!accepted) {
                    failed("POST /jobs: malformed response");
                    continue;
                }
                std::uint64_t id = static_cast<std::uint64_t>(
                    accepted->numberAt("job"));
                std::uint64_t runs_total =
                    static_cast<std::uint64_t>(
                        accepted->numberAt("runs_total"));

                std::string state = "queued";
                std::uint64_t cached = 0, executed = 0;
                for (;;) {
                    std::optional<HttpReply> poll = httpRequest(
                        addr, "GET",
                        "/jobs/" + std::to_string(id), "", "",
                        &error);
                    if (!poll || poll->status != 200) {
                        state = "lost";
                        break;
                    }
                    std::optional<JsonValue> status =
                        parseJson(poll->body);
                    if (!status) {
                        state = "lost";
                        break;
                    }
                    state = status->stringAt("state");
                    cached = static_cast<std::uint64_t>(
                        status->numberAt("runs_from_cache"));
                    executed = static_cast<std::uint64_t>(
                        status->numberAt("runs_executed"));
                    if (state == "done" || state == "failed" ||
                        state == "cancelled")
                        break;
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(poll_ms));
                }
                if (state != "done") {
                    failed("job " + std::to_string(id) +
                           " ended in state '" + state + "'");
                    continue;
                }
                std::uint64_t t1 = steadyNowMs();

                std::optional<HttpReply> results = httpRequest(
                    addr, "GET",
                    "/jobs/" + std::to_string(id) + "/results", "",
                    "", &error);
                if (!results || results->status != 200) {
                    failed("GET results for job " +
                           std::to_string(id) + ": " +
                           (results ? "HTTP " + std::to_string(
                                                    results->status)
                                    : error));
                    continue;
                }
                std::uint64_t lines = 0;
                for (char ch : results->body)
                    if (ch == '\n')
                        ++lines;
                if (lines != runs_total) {
                    failed("job " + std::to_string(id) + ": " +
                           std::to_string(lines) + " result lines, "
                           "expected " + std::to_string(runs_total));
                    continue;
                }
                outcome.latenciesMs.push_back(t1 - t0);
                outcome.runsFromCache += cached;
                outcome.runsExecuted += executed;
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();

    LatencyHistogram latency;
    std::uint64_t failures = 0, ok = 0;
    std::uint64_t cached = 0, executed = 0;
    for (const ClientOutcome &outcome : outcomes) {
        failures += outcome.failures;
        ok += outcome.latenciesMs.size();
        cached += outcome.runsFromCache;
        executed += outcome.runsExecuted;
        for (std::uint64_t ms : outcome.latenciesMs)
            latency.sample(ms);
        for (const std::string &err : outcome.errors)
            std::cerr << "vsnoopload: " << err << "\n";
    }

    std::printf("vsnoopload: %llu clients x %llu submissions "
                "(%llu distinct matrices)\n",
                static_cast<unsigned long long>(clients),
                static_cast<unsigned long long>(submissions),
                static_cast<unsigned long long>(distinct));
    std::printf("  completed %llu, failed %llu in %.2f s "
                "(%.2f jobs/s)\n",
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(failures), wall,
                wall > 0 ? static_cast<double>(ok) / wall : 0.0);
    std::printf("  runs executed %llu, served from cache %llu\n",
                static_cast<unsigned long long>(executed),
                static_cast<unsigned long long>(cached));
    if (latency.count() > 0) {
        std::printf("  submit-to-done latency ms: p50 %llu, "
                    "p90 %llu, p99 %llu, max %llu\n",
                    static_cast<unsigned long long>(
                        latency.quantile(0.50)),
                    static_cast<unsigned long long>(
                        latency.quantile(0.90)),
                    static_cast<unsigned long long>(
                        latency.quantile(0.99)),
                    static_cast<unsigned long long>(latency.max()));
    }
    return failures == 0 ? 0 : 1;
}
