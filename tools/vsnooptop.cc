/**
 * @file
 * vsnooptop — live terminal dashboard for a running simulation.
 *
 * Polls the /progress and /runs endpoints that vsnoopsim and
 * vsnoopsweep expose under --stats-addr and renders an ANSI
 * dashboard: sweep totals, per-run progress bars, filter-rate and
 * network-traffic sparklines, and watchdog state.
 *
 *   vsnoopsweep --apps coherence --stats-addr 127.0.0.1:9090 ... &
 *   vsnooptop --addr 127.0.0.1:9090
 *
 * Pointed at a vsnoopserve endpoint (which has no /progress), it
 * falls back to the job API and renders the job queue instead: one
 * row per job with state, run progress, and cache counts.  A server
 * is never "done", so that mode only exits when the endpoint goes
 * away.
 *
 * The dashboard is a pure observer: it shares nothing with the
 * simulator but the HTTP socket.  It exits 0 when the watched
 * process finishes (every run done, or the endpoint goes away after
 * at least one successful poll) and 1 when the first poll fails.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sim/cli.hh"
#include "sim/json.hh"
#include "sim/stats_server.hh"

using namespace vsnoop;
using cli::die;

namespace
{

void
usage()
{
    std::cout <<
        "vsnooptop — terminal dashboard for a live vsnoop run\n"
        "\n"
        "usage: vsnooptop --addr HOST:PORT [flags]\n"
        "\n"
        "Connects to the --stats-addr endpoint of a running\n"
        "vsnoopsim or vsnoopsweep and redraws a live dashboard:\n"
        "sweep progress, per-run progress bars, filter-rate and\n"
        "traffic sparklines, and no-progress watchdog state.\n"
        "Pointed at a vsnoopserve address it renders the job queue\n"
        "instead: one row per job with state, run progress, and\n"
        "cache counts.\n"
        "\n"
        "flags:\n"
        "  --addr HOST:PORT      endpoint to poll (required; the\n"
        "                        address the tool printed at start)\n"
        "  --interval MS         poll period in milliseconds\n"
        "                        (default 1000)\n"
        "  --once                print one frame without clearing\n"
        "                        the screen and exit (for scripts\n"
        "                        and CI)\n"
        "  --help                this text\n"
        "\n"
        "exit status: 0 once the watched run finishes (or the\n"
        "endpoint disappears after a successful poll), 1 when the\n"
        "first poll fails.\n"
        "\n"
        "Flags accept both \"--flag value\" and \"--flag=value\".\n";
}

/** @{ ANSI fragments (kept inline so --once output stays plain). */
const char *const kBold = "\x1b[1m";
const char *const kDim = "\x1b[2m";
const char *const kGreen = "\x1b[32m";
const char *const kYellow = "\x1b[33m";
const char *const kRed = "\x1b[31m";
const char *const kReset = "\x1b[0m";
/** @} */

/** A fixed-width progress bar, '#' for done and '.' for remaining. */
std::string
bar(double ratio, int width)
{
    if (ratio < 0.0)
        ratio = 0.0;
    if (ratio > 1.0)
        ratio = 1.0;
    int full = static_cast<int>(ratio * width + 0.5);
    std::string out = "[";
    for (int i = 0; i < width; ++i)
        out += i < full ? '#' : '.';
    out += ']';
    return out;
}

/** Render a history as a Unicode sparkline, scaled to its max. */
std::string
sparkline(const std::deque<double> &history)
{
    static const char *const kLevels[] = {
        "▁", "▂", "▃", "▄",
        "▅", "▆", "▇", "█",
    };
    double max = 0.0;
    for (double v : history)
        max = v > max ? v : max;
    std::string out;
    for (double v : history) {
        int level = max > 0.0
                        ? static_cast<int>(v / max * 7.0 + 0.5)
                        : 0;
        out += kLevels[level < 0 ? 0 : (level > 7 ? 7 : level)];
    }
    return out;
}

std::string
formatSeconds(double secs)
{
    char buf[48];
    if (secs >= 3600.0)
        std::snprintf(buf, sizeof buf, "%.0fh%02.0fm",
                      secs / 3600.0,
                      static_cast<double>(
                          static_cast<int>(secs / 60.0) % 60));
    else if (secs >= 60.0)
        std::snprintf(buf, sizeof buf, "%.0fm%02.0fs",
                      secs / 60.0,
                      static_cast<double>(
                          static_cast<int>(secs) % 60));
    else
        std::snprintf(buf, sizeof buf, "%.1fs", secs);
    return buf;
}

std::string
formatCount(double value)
{
    char buf[48];
    if (value >= 1e9)
        std::snprintf(buf, sizeof buf, "%.2fG", value / 1e9);
    else if (value >= 1e6)
        std::snprintf(buf, sizeof buf, "%.2fM", value / 1e6);
    else if (value >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1fk", value / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
}

/** History depth of the dashboard sparklines. */
constexpr std::size_t kSparkWidth = 40;

struct DashboardState
{
    std::deque<double> filterRate;
    std::deque<double> byteHopRate;
    std::deque<double> eventRate;
    double lastByteHops = -1.0;
    std::uint64_t lastSampleMs = 0;
    /** Last /metrics scrape for the simulator-throughput line. */
    double lastEvents = -1.0;
    double lastTicks = -1.0;
    std::uint64_t lastMetricsMs = 0;

    void push(std::deque<double> &hist, double v)
    {
        hist.push_back(v);
        while (hist.size() > kSparkWidth)
            hist.pop_front();
    }
};

/**
 * Value of an unlabeled series in a Prometheus text exposition, or
 * nullopt when the series is absent (an older endpoint).
 */
std::optional<double>
scrapeSeries(const std::string &body, const std::string &name)
{
    std::size_t pos = 0;
    while (pos < body.size()) {
        std::size_t eol = body.find('\n', pos);
        if (eol == std::string::npos)
            eol = body.size();
        if (body.compare(pos, name.size(), name) == 0 &&
            pos + name.size() < eol &&
            body[pos + name.size()] == ' ')
            return std::strtod(body.c_str() + pos + name.size() + 1,
                               nullptr);
        pos = eol + 1;
    }
    return std::nullopt;
}

/** Rows shown in the job-queue frame before older jobs are elided. */
constexpr std::size_t kMaxJobRows = 20;

/** Warn/error rows of the log tail appended below the dashboard. */
constexpr std::size_t kLogTailRows = 8;

/**
 * A "recent warnings" panel built from the endpoint's GET /logs
 * ring (structured JSONL): the newest kLogTailRows warn/error
 * records.  Empty when the endpoint has no /logs (older build) or
 * nothing has gone wrong.
 */
std::string
renderLogTail(const std::string &addr)
{
    std::string error;
    std::optional<std::string> body =
        httpGet(addr, "/logs?level=warn&n=64", &error);
    if (!body || body->empty())
        return "";
    // Filter client-side too: the sweep endpoints of older builds
    // ignore the query and return the whole ring.
    std::deque<std::string> rows;
    std::size_t pos = 0;
    while (pos < body->size()) {
        std::size_t eol = body->find('\n', pos);
        if (eol == std::string::npos)
            eol = body->size();
        std::string line = body->substr(pos, eol - pos);
        pos = eol + 1;
        std::optional<JsonValue> rec = parseJson(line);
        if (!rec || !rec->isObject())
            continue;
        std::string level = rec->stringAt("level");
        if (level != "warn" && level != "error")
            continue;
        char row[256];
        std::snprintf(row, sizeof row, "%s%-5s%s #%-6.0f %s\n",
                      level == "error" ? kRed : kYellow,
                      level.c_str(), kReset, rec->numberAt("seq"),
                      rec->stringAt("msg").c_str());
        rows.push_back(row);
        while (rows.size() > kLogTailRows)
            rows.pop_front();
    }
    if (rows.empty())
        return "";
    std::string panel = "\n";
    panel += kBold;
    panel += "recent warnings";
    panel += kReset;
    panel += '\n';
    for (const std::string &row : rows)
        panel += row;
    return panel;
}

/**
 * The vsnoopserve fallback: render the job queue when the endpoint
 * serves /jobs instead of /progress.  Returns nullopt when /jobs is
 * also missing or unparseable.
 */
std::optional<std::string>
renderJobsFrame(const std::string &addr)
{
    std::string error;
    std::optional<std::string> jobs_body =
        httpGet(addr, "/jobs", &error);
    if (!jobs_body)
        return std::nullopt;
    std::optional<JsonValue> doc = parseJson(*jobs_body);
    if (!doc || !doc->isObject())
        return std::nullopt;
    const JsonValue *jobs = doc->find("jobs");
    if (!jobs || !jobs->isArray())
        return std::nullopt;

    std::size_t queued = 0, running = 0, done = 0, failed = 0,
                cancelled = 0;
    for (const JsonValue &job : jobs->items()) {
        std::string job_state = job.stringAt("state");
        if (job_state == "queued")
            ++queued;
        else if (job_state == "running")
            ++running;
        else if (job_state == "done")
            ++done;
        else if (job_state == "failed")
            ++failed;
        else if (job_state == "cancelled")
            ++cancelled;
    }

    std::string frame;
    frame += kBold;
    frame += "vsnooptop";
    frame += kReset;
    frame += "  ";
    frame += addr;
    frame += "  (vsnoopserve job queue)\n\n";

    char line[256];
    std::snprintf(line, sizeof line,
                  "jobs    %zu total: %zu queued, %zu running, "
                  "%zu done, %zu failed, %zu cancelled\n\n",
                  jobs->items().size(), queued, running, done,
                  failed, cancelled);
    frame += line;

    // Newest jobs are the interesting ones; elide the old tail.
    std::size_t total = jobs->items().size();
    std::size_t first = total > kMaxJobRows ? total - kMaxJobRows : 0;
    if (first > 0) {
        std::snprintf(line, sizeof line, "%s... %zu older job(s)%s\n",
                      kDim, first, kReset);
        frame += line;
    }
    for (std::size_t i = first; i < total; ++i) {
        const JsonValue &job = jobs->items()[i];
        std::string job_state = job.stringAt("state");
        double runs_total = job.numberAt("runs_total");
        double runs_done = job.numberAt("runs_completed");
        double cached = job.numberAt("runs_from_cache");
        const char *color = kDim;
        if (job_state == "running")
            color = kYellow;
        else if (job_state == "done")
            color = kGreen;
        else if (job_state == "failed" || job_state == "cancelled")
            color = kRed;
        std::string label = job.stringAt("label");
        std::snprintf(
            line, sizeof line,
            "%s#%-5.0f %-9s %s %4.0f/%-4.0f runs, %.0f cached%s"
            "  %s\n",
            color, job.numberAt("job"), job_state.c_str(),
            bar(runs_total > 0 ? runs_done / runs_total : 0.0, 20)
                .c_str(),
            runs_done, runs_total, cached, kReset, label.c_str());
        frame += line;
        std::string job_error = job.stringAt("error");
        if (!job_error.empty()) {
            std::snprintf(line, sizeof line, "      %s%s%s\n", kRed,
                          job_error.c_str(), kReset);
            frame += line;
        }
    }
    return frame;
}

/** One rendered frame, or nullopt when a fetch/parse failed. */
std::optional<std::string>
renderFrame(const std::string &addr, DashboardState &state,
            std::uint64_t nowMs, bool *all_done)
{
    std::string error;
    std::optional<std::string> progress_body =
        httpGet(addr, "/progress", &error);
    if (!progress_body)
        return renderJobsFrame(addr);
    std::optional<std::string> runs_body =
        httpGet(addr, "/runs", &error);
    if (!runs_body)
        return std::nullopt;
    std::optional<JsonValue> progress = parseJson(*progress_body);
    std::optional<JsonValue> runs_doc = parseJson(*runs_body);
    if (!progress || !runs_doc || !progress->isObject() ||
        !runs_doc->isObject())
        return std::nullopt;

    double runs_total = progress->numberAt("runs_total");
    double runs_done = progress->numberAt("runs_done");
    double runs_running = progress->numberAt("runs_running");
    bool interrupted = false;
    if (const JsonValue *flag = progress->find("interrupted"))
        interrupted = flag->kind() == JsonValue::Kind::Bool &&
                      flag->boolean();
    *all_done = runs_total > 0 && runs_done >= runs_total;

    // Aggregate sparkline feeds: instantaneous filter rate and the
    // byte-hop delta per wall second since the previous poll.
    state.push(state.filterRate, progress->numberAt("filter_rate"));
    double byte_hops = progress->numberAt("traffic_byte_hops");
    if (state.lastByteHops >= 0.0 && nowMs > state.lastSampleMs) {
        double per_sec =
            (byte_hops - state.lastByteHops) /
            (static_cast<double>(nowMs - state.lastSampleMs) / 1000.0);
        state.push(state.byteHopRate, per_sec < 0.0 ? 0.0 : per_sec);
    }
    state.lastByteHops = byte_hops;
    state.lastSampleMs = nowMs;

    std::string frame;
    frame += kBold;
    frame += "vsnooptop";
    frame += kReset;
    frame += "  ";
    frame += addr;
    frame += "  ";
    frame += formatSeconds(progress->numberAt("elapsed_seconds"));
    frame += " elapsed";
    if (interrupted) {
        frame += "  ";
        frame += kRed;
        frame += "INTERRUPTED";
        frame += kReset;
    }
    frame += "\n\n";

    char line[256];
    std::snprintf(line, sizeof line,
                  "runs    %s %.0f/%.0f done, %.0f running",
                  bar(runs_total > 0 ? runs_done / runs_total : 0.0,
                      30)
                      .c_str(),
                  runs_done, runs_total, runs_running);
    frame += line;
    double rate = progress->numberAt("runs_per_second");
    double eta = progress->numberAt("eta_seconds");
    if (rate > 0.0) {
        std::snprintf(line, sizeof line, ", %.2f runs/s, ETA %s",
                      rate, formatSeconds(eta).c_str());
        frame += line;
    }
    frame += '\n';
    std::snprintf(line, sizeof line,
                  "access  %s / %s accesses issued\n",
                  formatCount(progress->numberAt("accesses_issued"))
                      .c_str(),
                  formatCount(progress->numberAt("accesses_target"))
                      .c_str());
    frame += line;
    frame += '\n';

    std::snprintf(line, sizeof line, "filter  %5.1f%%  %s\n",
                  100.0 * progress->numberAt("filter_rate"),
                  sparkline(state.filterRate).c_str());
    frame += line;
    std::snprintf(line, sizeof line, "traffic %sB/s  %s\n",
                  state.byteHopRate.empty()
                      ? "   ?"
                      : formatCount(state.byteHopRate.back()).c_str(),
                  sparkline(state.byteHopRate).c_str());
    frame += line;

    // Simulator throughput from successive /metrics scrapes: the
    // wall-clock deltas of vsnoop_sweep_events_total and
    // vsnoop_sweep_sim_ticks_total.  Skipped silently on endpoints
    // without the series.
    std::optional<std::string> metrics_body =
        httpGet(addr, "/metrics", &error);
    if (metrics_body) {
        std::optional<double> events =
            scrapeSeries(*metrics_body, "vsnoop_sweep_events_total");
        std::optional<double> ticks = scrapeSeries(
            *metrics_body, "vsnoop_sweep_sim_ticks_total");
        if (events && ticks) {
            if (state.lastEvents >= 0.0 &&
                nowMs > state.lastMetricsMs) {
                double secs = static_cast<double>(
                                  nowMs - state.lastMetricsMs) /
                              1000.0;
                double ev_rate = (*events - state.lastEvents) / secs;
                double cyc_rate = (*ticks - state.lastTicks) / secs;
                state.push(state.eventRate,
                           ev_rate < 0.0 ? 0.0 : ev_rate);
                std::snprintf(
                    line, sizeof line,
                    "sim     %s ev/s, %s cyc/s  %s\n",
                    formatCount(ev_rate < 0.0 ? 0.0 : ev_rate)
                        .c_str(),
                    formatCount(cyc_rate < 0.0 ? 0.0 : cyc_rate)
                        .c_str(),
                    sparkline(state.eventRate).c_str());
                frame += line;
            }
            state.lastEvents = *events;
            state.lastTicks = *ticks;
            state.lastMetricsMs = nowMs;
        }
    }
    frame += '\n';

    // Watchdog summary straight from the endpoint's stalled list.
    std::size_t stalled_count = 0;
    if (const JsonValue *watchdog = progress->find("watchdog")) {
        if (const JsonValue *stalled = watchdog->find("stalled"))
            if (stalled->isArray())
                stalled_count = stalled->items().size();
    }
    if (stalled_count > 0) {
        frame += kRed;
        std::snprintf(line, sizeof line,
                      "watchdog: %zu run(s) making no progress\n",
                      stalled_count);
        frame += line;
        frame += kReset;
    }

    if (const JsonValue *run_list = runs_doc->find("runs")) {
        if (run_list->isArray()) {
            for (const JsonValue &run : run_list->items()) {
                std::string run_state = run.stringAt("state");
                bool stalled = false;
                if (const JsonValue *flag = run.find("stalled"))
                    stalled =
                        flag->kind() == JsonValue::Kind::Bool &&
                        flag->boolean();
                const char *color = kDim;
                if (stalled)
                    color = kRed;
                else if (run_state == "running")
                    color = kYellow;
                else if (run_state == "done")
                    color = kGreen;
                std::snprintf(
                    line, sizeof line,
                    "%s%-44s %s %5.1f%% %-7s%s fr %4.1f%%\n", color,
                    run.stringAt("label").c_str(),
                    bar(run.numberAt("progress"), 20).c_str(),
                    100.0 * run.numberAt("progress"),
                    stalled ? "STALLED" : run_state.c_str(), kReset,
                    100.0 * run.numberAt("filter_rate"));
                frame += line;
            }
        }
    }
    return frame;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string addr;
    std::uint64_t interval_ms = 1000;
    bool once = false;

    cli::Args args("vsnooptop", argc, argv);
    while (args.next()) {
        const std::string &flag = args.flag();
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--addr") {
            addr = args.value();
        } else if (flag == "--interval") {
            interval_ms = args.uintValue();
            if (interval_ms == 0)
                die("--interval must be at least 1 ms");
        } else if (flag == "--once") {
            once = true;
        } else {
            die("unknown flag '" + flag + "' (try --help)");
        }
    }
    if (addr.empty())
        die("--addr HOST:PORT is required (try --help)");

    DashboardState state;
    bool connected = false;
    for (;;) {
        std::uint64_t now_ms = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
        bool all_done = false;
        std::optional<std::string> frame =
            renderFrame(addr, state, now_ms, &all_done);
        if (!frame) {
            if (!connected) {
                std::cerr << "vsnooptop: cannot fetch http://" << addr
                          << "/progress or /jobs\n";
                return 1;
            }
            // The watched process exited between polls: a normal
            // end of session, not an error.
            std::cout << "\nvsnooptop: " << addr
                      << " went away; exiting\n";
            return 0;
        }
        connected = true;
        *frame += renderLogTail(addr);
        if (once) {
            std::cout << *frame;
            return 0;
        }
        // Home + clear-to-end keeps redraws flicker-free.
        std::cout << "\x1b[H\x1b[J" << *frame << std::flush;
        if (all_done) {
            std::cout << "\nvsnooptop: all runs done\n";
            return 0;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
}
