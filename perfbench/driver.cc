/**
 * @file
 * perfbench_driver — measure one benchmark workload and print a JSON
 * report of raw observations on stdout (run.py reduces it).
 *
 *   perfbench_driver --workload sweep-broadcast --seed 1 --seconds 10
 *                    --trace 0 --work-dir DIR [--known FILE]
 *                    [--corrupt N]
 *   perfbench_driver --workload W --seed 1 --expect N   # digests of
 *                    the first N pool items (the committed file)
 *
 * Workloads: sweep-broadcast (offline TokenB sweep, this file) and
 * serve-cold (in-process sweep service, serve.cc).
 * A binary that is not a Release build refuses to measure.
 */

#include <sys/resource.h>

#include <fstream>
#include <iostream>
#include <thread>

#include "perfbench.hh"
#include "service/sweep_wire.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/version.hh"
#include "system/run_result.hh"
#include "workload/app_profile.hh"

using namespace vsnoop;

namespace perfbench
{

namespace
{

/** Index of the brace closing the object that opens at @p open. */
std::size_t
closingBrace(const std::string &text, std::size_t open)
{
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = open; i < text.size(); ++i) {
        char ch = text[i];
        if (in_string) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                in_string = false;
        } else if (ch == '"') {
            in_string = true;
        } else if (ch == '{') {
            ++depth;
        } else if (ch == '}' && --depth == 0) {
            return i;
        }
    }
    return std::string::npos;
}

/** @p text without the member `,"<name>":{...}` (first occurrence). */
std::string
withoutMember(const std::string &text, const std::string &name)
{
    std::string marker = "\"" + name + "\":{";
    std::size_t at = text.find(marker);
    if (at == std::string::npos)
        return text;
    std::size_t close = closingBrace(text, at + marker.size() - 1);
    if (close == std::string::npos)
        return text;
    // Drop the separating comma on whichever side has one.
    std::size_t begin = at, end = close + 1;
    if (begin > 0 && text[begin - 1] == ',')
        --begin;
    else if (end < text.size() && text[end] == ',')
        ++end;
    return text.substr(0, begin) + text.substr(end);
}

} // namespace

std::string
recordDigest(const std::string &line)
{
    return contentHash(withoutMember(line, "meta"));
}

std::string
resultsDigest(const std::string &line)
{
    const std::string marker = "\"results\":{";
    std::size_t at = line.find(marker);
    if (at == std::string::npos)
        return contentHash(line);
    std::size_t open = at + marker.size() - 1;
    std::size_t close = closingBrace(line, open);
    if (close == std::string::npos)
        return contentHash(line);
    return contentHash(
        withoutMember(line.substr(open, close + 1 - open), "perf"));
}

Observed
observeRecord(const Options &opt, std::size_t index, std::size_t op,
              const std::string &id, std::string line)
{
    if (opt.corrupt >= 0 && index == static_cast<std::size_t>(opt.corrupt) &&
        !line.empty())
        line[line.size() / 2] ^= 0x01;
    return Observed{op, id, recordDigest(line), resultsDigest(line)};
}

void
observe(Report &report, const Options &opt, std::size_t op,
        const std::string &id, std::string line)
{
    report.observed.push_back(observeRecord(opt, report.observed.size(), op,
                                            id, std::move(line)));
}

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               Clock::now().time_since_epoch())
        .count();
}

void
computeOffline(const std::vector<PoolRun> &runs, const Options &opt,
               unsigned jobs, Report &report)
{
    std::vector<const PoolRun *> todo;
    for (const PoolRun &run : runs)
        if (!opt.knownIds.count(run.id) && !report.offline.count(run.id))
            todo.push_back(&run);
    std::vector<std::pair<std::string, std::string>> digests(todo.size());
    runIndexed(todo.size(), jobs, [&](std::size_t i) {
        std::string line =
            collectRun(todo[i]->config, findApp(todo[i]->app)).toJson();
        digests[i] = {recordDigest(line), resultsDigest(line)};
    });
    for (std::size_t i = 0; i < todo.size(); ++i)
        report.offline[todo[i]->id] = digests[i];
}

/**
 * sweep-broadcast's input pool: TokenB on the paper's machine (4x4
 * mesh, 4 VMs x 4 vCPUs, 256 KB L2, warmup on), each item a
 * canneal + ferret pair sharing one seed derived from --seed.
 */
constexpr std::size_t kSweepPoolItems = 8;

std::vector<PoolRun>
sweepPool(std::uint64_t seed, bool perf)
{
    SweepMatrix matrix;
    matrix.apps = {"canneal", "ferret"};
    matrix.policies = {PolicyKind::TokenB};
    matrix.base.accessesPerVcpu = 1000;
    matrix.base.warmupAccessesPerVcpu = 250;
    matrix.base.perf = perf;
    std::vector<PoolRun> pool;
    for (std::size_t k = 0; k < kSweepPoolItems; ++k) {
        matrix.seeds = {seed * 1000 + k};
        std::size_t r = 0;
        for (const SweepPoint &point : matrix.expand())
            pool.push_back(PoolRun{std::to_string(k) + "." +
                                       std::to_string(r++),
                                   matrix.configFor(point), point.app});
    }
    return pool;
}

void
runSweepBroadcast(const Options &opt, Report &report)
{
    // Set-up: resolve profiles, expand the pool, and one warm-up run
    // (first-touch of the allocator and the code) — repeated, the
    // median is reported.
    std::vector<PoolRun> pool;
    for (int rep = 0; rep < 9; ++rep) {
        Clock::time_point start = Clock::now();
        pool = sweepPool(opt.seed, opt.trace);
        for (const PoolRun &run : pool)
            findApp(run.app);
        std::string warm =
            collectRun(pool[0].config, findApp(pool[0].app)).toJson();
        report.setupSeconds.push_back(secondsSince(start));
    }

    if (opt.trace) {
        // The service does no work here: its metrics read 0.
        measureSystemLayer(pool, opt, opt.seconds, 0, report);
    } else {
        // The window: offline jobs, each one pool item (a
        // canneal + ferret pair) through the public SimSystem ->
        // run() -> collectResults() path, serially.
        Clock::time_point start = Clock::now();
        for (std::size_t op = 0; secondsSince(start) < opt.seconds;
             ++op) {
            Clock::time_point job_start = Clock::now();
            std::size_t item = op % kSweepPoolItems;
            for (std::size_t r = 0; r < 2; ++r) {
                const PoolRun &run = pool[2 * item + r];
                const AppProfile &app = findApp(run.app);
                SimSystem system(run.config, app);
                system.run();
                std::string line =
                    collectResults(system, run.app).toJson();
                observe(report, opt, op, run.id, std::move(line));
                ++report.records;
            }
            report.jobMs.push_back(secondsSince(job_start) * 1e3);
            ++report.attempted;
        }
        report.windowSeconds = secondsSince(start);
    }
    // Peak memory of set-up plus measurement, before verification.
    report.values["peak_rss_mb"] = peakRssMb();
    computeOffline(pool, opt, std::thread::hardware_concurrency(),
                   report);
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace
{

void
writeReport(const Options &opt, const Report &report)
{
    std::string describe = gitDescribe();
    JsonWriter json;
    json.beginObject();
    json.key("workload").value(opt.workload);
    json.key("seed").value(opt.seed);
    json.key("trace").value(opt.trace);
    json.key("provenance").beginObject();
    json.key("git").value(describe);
    json.key("dirty").value(describe.find("-dirty") != std::string::npos);
    json.key("compiler").value(compilerId());
    json.key("build_type").value(buildType());
    json.key("nproc").value(
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    json.endObject();
    json.key("setup_s").beginArray();
    for (double s : report.setupSeconds)
        json.value(s);
    json.endArray();
    json.key("window_s").value(report.windowSeconds);
    json.key("records").value(report.records);
    json.key("attempted").value(report.attempted);
    json.key("failed_ops").beginArray();
    for (std::size_t op : report.failedOps)
        json.value(static_cast<std::uint64_t>(op));
    json.endArray();
    json.key("notes").beginArray();
    for (const std::string &note : report.notes)
        json.value(note);
    json.endArray();
    json.key("job_ms").beginArray();
    for (double ms : report.jobMs)
        json.value(ms);
    json.endArray();
    json.key("observed").beginArray();
    for (const Observed &o : report.observed) {
        json.beginArray();
        json.value(static_cast<std::uint64_t>(o.op));
        json.value(o.id).value(o.record).value(o.results);
        json.endArray();
    }
    json.endArray();
    json.key("offline").beginObject();
    for (const auto &[id, digests] : report.offline) {
        json.key(id).beginArray();
        json.value(digests.first).value(digests.second);
        json.endArray();
    }
    json.endObject();
    json.key("values").beginObject();
    for (const auto &[name, value] : report.values)
        json.key(name).value(value);
    json.endObject();
    json.key("samples").beginObject();
    for (const auto &[name, values] : report.samples) {
        json.key(name).beginArray();
        for (double v : values)
            json.value(v);
        json.endArray();
    }
    json.endObject();
    json.key("ledger").beginObject();
    json.key("wall_ns").value(report.ledgerWallNs);
    json.key("terms").beginArray();
    for (const LedgerTerm &term : report.ledger) {
        json.beginArray();
        json.value(term.metric).value(term.count).value(term.ns);
        json.endArray();
    }
    json.endArray();
    json.endObject();
    json.key("spans").value(
        static_cast<std::uint64_t>(report.spans.size()));
    json.endObject();
    std::cout << json.str() << "\n";
}

/** Spans as JSONL: name, start/end (us), parent, run hash / id. */
void
writeSpans(const Options &opt, const Report &report)
{
    std::ofstream out(opt.workDir + "/spans-" + opt.workload + ".jsonl",
                      std::ios::trunc);
    for (const Span &span : report.spans) {
        JsonWriter json;
        json.beginObject();
        json.key("name").value(span.name);
        json.key("start_us").value(span.startUs);
        json.key("end_us").value(span.endUs);
        json.key("parent").value(span.parent);
        json.key("ref").value(span.ref);
        json.endObject();
        out << json.str() << "\n";
    }
}

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "perfbench_driver: " << msg << "\n";
    std::exit(2);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            die(flag + " requires a value");
        std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            opt.seconds = std::stod(value);
        } else if (flag == "--trace") {
            opt.trace = value != "0";
        } else if (flag == "--work-dir") {
            opt.workDir = value;
        } else if (flag == "--known") {
            std::ifstream in(value);
            for (std::string id; in >> id;)
                opt.knownIds.insert(id);
        } else if (flag == "--corrupt") {
            opt.corrupt = std::stol(value);
        } else if (flag == "--expect") {
            opt.expect = std::stol(value);
        } else {
            die("unknown flag '" + flag + "'");
        }
    }

    // Debug and RelWithDebInfo builds run at a different speed; a
    // number from one must never be compared with a Release number.
    if (std::string(buildType()) != "Release")
        die(std::string("refusing to measure a '") + buildType() +
            "' build; configure with -DCMAKE_BUILD_TYPE=Release");

    quietLogging(true);
    Report report;
    if (opt.expect >= 0) {
        std::vector<PoolRun> runs =
            opt.workload == "sweep-broadcast"
                ? sweepPool(opt.seed, false)
                : servePool(opt.seed, static_cast<std::size_t>(opt.expect));
        computeOffline(runs, opt, std::thread::hardware_concurrency(),
                       report);
        writeReport(opt, report);
        return 0;
    }
    if (opt.workload == "sweep-broadcast")
        runSweepBroadcast(opt, report);
    else if (opt.workload == "serve-cold")
        runServeCold(opt, report);
    else
        die("unknown workload '" + opt.workload + "'");
    if (opt.trace)
        writeSpans(opt, report);
    writeReport(opt, report);
    return 0;
}
