#include "system/heartbeat.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/slog.hh"
#include "sim/stats_server.hh"
#include "system/run_result.hh"

namespace vsnoop
{

std::uint64_t
steadyNowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const char *
runStateName(RunState state)
{
    switch (state) {
      case RunState::Pending: return "pending";
      case RunState::Running: return "running";
      case RunState::Done: return "done";
    }
    vsnoop_panic("unknown RunState ", static_cast<int>(state));
}

void
RunProgress::start(std::uint64_t nowMs)
{
    startedMs_.store(nowMs, std::memory_order_relaxed);
    lastUpdateMs_.store(nowMs, std::memory_order_relaxed);
    state_.store(static_cast<std::uint8_t>(RunState::Running),
                 std::memory_order_relaxed);
}

void
RunProgress::update(const ProgressSample &sample, std::uint64_t nowMs)
{
    tick_.store(sample.tick, std::memory_order_relaxed);
    issued_.store(sample.accessesIssued, std::memory_order_relaxed);
    target_.store(sample.accessesTarget, std::memory_order_relaxed);
    transactions_.store(sample.transactions, std::memory_order_relaxed);
    snoopLookups_.store(sample.snoopLookups, std::memory_order_relaxed);
    filtered_.store(sample.filteredRequests, std::memory_order_relaxed);
    broadcast_.store(sample.broadcastRequests,
                     std::memory_order_relaxed);
    byteHops_.store(sample.trafficByteHops, std::memory_order_relaxed);
    events_.store(sample.eventsProcessed, std::memory_order_relaxed);
    lastUpdateMs_.store(nowMs, std::memory_order_relaxed);
}

void
RunProgress::finish(std::uint64_t nowMs)
{
    finishedMs_.store(nowMs, std::memory_order_relaxed);
    lastUpdateMs_.store(nowMs, std::memory_order_relaxed);
    state_.store(static_cast<std::uint8_t>(RunState::Done),
                 std::memory_order_relaxed);
}

RunState
RunProgress::state() const
{
    return static_cast<RunState>(
        state_.load(std::memory_order_relaxed));
}

double
RunProgress::progressRatio() const
{
    std::uint64_t target = accessesTarget();
    if (target == 0)
        return state() == RunState::Done ? 1.0 : 0.0;
    double ratio = static_cast<double>(accessesIssued()) /
                   static_cast<double>(target);
    return ratio > 1.0 ? 1.0 : ratio;
}

double
RunProgress::filterRate() const
{
    std::uint64_t filtered = filteredRequests();
    std::uint64_t total = filtered + broadcastRequests();
    return total == 0 ? 0.0
                      : static_cast<double>(filtered) /
                            static_cast<double>(total);
}

bool
RunProgress::stalled(std::uint64_t nowMs, std::uint64_t stallMs) const
{
    if (stallMs == 0 || state() != RunState::Running)
        return false;
    std::uint64_t last = lastUpdateMs();
    return nowMs > last && nowMs - last > stallMs;
}

void
RunProgress::presetTarget(std::uint64_t target)
{
    target_.store(target, std::memory_order_relaxed);
}

SweepHeartbeat::SweepHeartbeat(const SweepMatrix &matrix)
{
    std::vector<SweepPoint> points = matrix.expand();
    runs_ = std::vector<RunProgress>(points.size());
    info_.reserve(points.size());
    std::uint64_t target =
        static_cast<std::uint64_t>(matrix.base.numVms) *
        matrix.base.vcpusPerVm *
        (matrix.base.warmupAccessesPerVcpu +
         matrix.base.accessesPerVcpu);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        RunInfo info;
        info.app = p.app;
        info.policy = enumToken(p.policy);
        info.relocation = enumToken(p.relocation);
        info.roPolicy = enumToken(p.roPolicy);
        info.seed = p.seed;
        info.label = info.app + "/" + info.policy + "/" +
                     info.relocation + "/" + info.roPolicy + "/s" +
                     std::to_string(p.seed);
        info_.push_back(std::move(info));
        runs_[i].presetTarget(target);
    }
}

void
SweepHeartbeat::markLaunched(std::uint64_t nowMs)
{
    launchedMs_.store(nowMs, std::memory_order_relaxed);
}

void
SweepHeartbeat::markInterrupted()
{
    interrupted_.store(true, std::memory_order_relaxed);
}

std::size_t
SweepHeartbeat::runsDone() const
{
    std::size_t done = 0;
    for (const RunProgress &run : runs_)
        done += run.state() == RunState::Done;
    return done;
}

std::size_t
SweepHeartbeat::runsRunning() const
{
    std::size_t running = 0;
    for (const RunProgress &run : runs_)
        running += run.state() == RunState::Running;
    return running;
}

double
SweepHeartbeat::elapsedSeconds(std::uint64_t nowMs) const
{
    std::uint64_t launched = launchedMs();
    return launched > 0 && nowMs > launched
               ? static_cast<double>(nowMs - launched) / 1000.0
               : 0.0;
}

double
SweepHeartbeat::runsPerSecond(std::uint64_t nowMs) const
{
    double elapsed = elapsedSeconds(nowMs);
    return elapsed > 0.0 ? static_cast<double>(runsDone()) / elapsed
                         : 0.0;
}

double
SweepHeartbeat::etaSeconds(std::uint64_t nowMs) const
{
    double rate = runsPerSecond(nowMs);
    if (rate <= 0.0)
        return 0.0;
    // Credit partial progress of the in-flight runs so the ETA
    // converges instead of jumping at run boundaries.
    double remaining = 0.0;
    for (const RunProgress &run : runs_) {
        if (run.state() == RunState::Pending)
            remaining += 1.0;
        else if (run.state() == RunState::Running)
            remaining += 1.0 - run.progressRatio();
    }
    return remaining / rate;
}

std::vector<std::size_t>
SweepHeartbeat::stalledRuns(std::uint64_t nowMs,
                            std::uint64_t stallMs) const
{
    std::vector<std::size_t> stalled;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        if (runs_[i].stalled(nowMs, stallMs))
            stalled.push_back(i);
    }
    return stalled;
}

namespace
{

/** One RunProgress counter as a series value. */
template <std::uint64_t (RunProgress::*Field)() const>
double
countOf(const RunProgress &run)
{
    return static_cast<double>((run.*Field)());
}

/** One per-run series family: its kind, name, help and reader. */
struct RunSeries
{
    MetricKind kind;
    const char *name;
    const char *help;
    double (*read)(const RunProgress &);
};

constexpr RunSeries kRunSeries[] = {
    {MetricKind::Gauge, "vsnoop_run_state",
     "Run lifecycle: 0 pending, 1 running, 2 done.",
     [](const RunProgress &r) {
         return static_cast<double>(static_cast<std::uint8_t>(r.state()));
     }},
    {MetricKind::Gauge, "vsnoop_run_progress_ratio",
     "Completed fraction of the run's access quota.",
     [](const RunProgress &r) { return r.progressRatio(); }},
    {MetricKind::Counter, "vsnoop_run_accesses_total",
     "Accesses completed by the run's vCPUs.",
     countOf<&RunProgress::accessesIssued>},
    {MetricKind::Counter, "vsnoop_run_transactions_total",
     "Coherence transactions issued by the run.",
     countOf<&RunProgress::transactions>},
    {MetricKind::Counter, "vsnoop_run_snoop_lookups_total",
     "Snoop tag lookups induced by the run.",
     countOf<&RunProgress::snoopLookups>},
    {MetricKind::Gauge, "vsnoop_run_filter_rate",
     "Fraction of snoop requests the vCPU map filtered.",
     [](const RunProgress &r) { return r.filterRate(); }},
    {MetricKind::Counter, "vsnoop_run_traffic_byte_hops_total",
     "Network traffic in byte-hops.",
     countOf<&RunProgress::trafficByteHops>},
    {MetricKind::Gauge, "vsnoop_run_sim_tick", "Current simulated tick.",
     countOf<&RunProgress::tick>},
    {MetricKind::Counter, "vsnoop_run_events_total",
     "Simulator events processed by the run.",
     countOf<&RunProgress::eventsProcessed>},
};

} // namespace

void
SweepHeartbeat::registerMetrics(MetricsRegistry &registry,
                                std::uint64_t stallMs) const
{
    registry.addGauge("vsnoop_sweep_runs_total", "Runs in the sweep matrix.",
                      [this] { return static_cast<double>(runs_.size()); });
    registry.addGauge("vsnoop_sweep_runs_completed", "Runs finished so far.",
                      [this] { return static_cast<double>(runsDone()); });
    registry.addGauge("vsnoop_sweep_runs_running", "Runs currently executing.",
                      [this] { return static_cast<double>(runsRunning()); });
    registry.addGauge("vsnoop_sweep_runs_per_second",
                      "Completed-run throughput since launch.",
                      [this] { return runsPerSecond(steadyNowMs()); });
    registry.addGauge("vsnoop_sweep_eta_seconds",
                      "Estimated seconds until the sweep completes.",
                      [this] { return etaSeconds(steadyNowMs()); });
    registry.addGauge("vsnoop_sweep_elapsed_seconds",
                      "Wall seconds since the sweep launched.",
                      [this] { return elapsedSeconds(steadyNowMs()); });
    registry.addGauge("vsnoop_sweep_stalled_runs",
                      "Runs flagged by the no-forward-progress watchdog.",
                      [this, stallMs] {
                          return static_cast<double>(
                              stalledRuns(steadyNowMs(), stallMs).size());
                      });
    registry.addGauge("vsnoop_sweep_interrupted",
                      "1 after SIGINT/SIGTERM stopped dispatch, else 0.",
                      [this] { return interrupted() ? 1.0 : 0.0; });
    auto sumOf = [this](std::uint64_t (RunProgress::*field)() const) {
        return [this, field] {
            std::uint64_t total = 0;
            for (const RunProgress &run : runs_)
                total += (run.*field)();
            return static_cast<double>(total);
        };
    };
    registry.addCounter("vsnoop_sweep_events_total",
                        "Simulator events processed across all runs.",
                        sumOf(&RunProgress::eventsProcessed));
    registry.addCounter("vsnoop_sweep_sim_ticks_total",
                        "Simulated ticks advanced across all runs.",
                        sumOf(&RunProgress::tick));

    // Register family-by-family (not run-by-run): series of one
    // family must be contiguous for the exposition format.
    for (const RunSeries &series : kRunSeries) {
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            const RunInfo &info = info_[i];
            registry.add(series.kind, series.name, series.help,
                         [&run = runs_[i], read = series.read] {
                             return read(run);
                         },
                         {{"run", std::to_string(i)},
                          {"app", info.app},
                          {"policy", info.policy},
                          {"relocation", info.relocation},
                          {"ro_policy", info.roPolicy},
                          {"seed", std::to_string(info.seed)}});
        }
    }
}

std::string
SweepHeartbeat::progressJson(std::uint64_t nowMs,
                             std::uint64_t stallMs) const
{
    std::uint64_t issued = 0;
    std::uint64_t target = 0;
    std::uint64_t filtered = 0;
    std::uint64_t broadcast = 0;
    std::uint64_t byte_hops = 0;
    for (const RunProgress &run : runs_) {
        issued += run.accessesIssued();
        target += run.accessesTarget();
        filtered += run.filteredRequests();
        broadcast += run.broadcastRequests();
        byte_hops += run.trafficByteHops();
    }
    JsonWriter json;
    json.beginObject();
    json.key("runs_total").value(static_cast<std::uint64_t>(
        runs_.size()));
    json.key("runs_done").value(static_cast<std::uint64_t>(
        runsDone()));
    json.key("runs_running").value(static_cast<std::uint64_t>(
        runsRunning()));
    json.key("runs_pending").value(static_cast<std::uint64_t>(
        runs_.size() - runsDone() - runsRunning()));
    json.key("interrupted").value(interrupted());
    json.key("elapsed_seconds").value(elapsedSeconds(nowMs));
    json.key("runs_per_second").value(runsPerSecond(nowMs));
    json.key("eta_seconds").value(etaSeconds(nowMs));
    json.key("accesses_issued").value(issued);
    json.key("accesses_target").value(target);
    std::uint64_t requests = filtered + broadcast;
    json.key("filter_rate")
        .value(requests == 0 ? 0.0
                             : static_cast<double>(filtered) /
                                   static_cast<double>(requests));
    json.key("traffic_byte_hops").value(byte_hops);
    json.key("watchdog").beginObject();
    json.key("stall_timeout_ms").value(stallMs);
    json.key("stalled").beginArray();
    for (std::size_t i : stalledRuns(nowMs, stallMs)) {
        json.beginObject();
        json.key("run").value(static_cast<std::uint64_t>(i));
        json.key("label").value(info_[i].label);
        json.key("seconds_since_update")
            .value(static_cast<double>(nowMs -
                                       runs_[i].lastUpdateMs()) /
                   1000.0);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.endObject();
    return json.str();
}

std::string
SweepHeartbeat::runsJson(std::uint64_t nowMs,
                         std::uint64_t stallMs) const
{
    JsonWriter json;
    json.beginObject();
    json.key("runs").beginArray();
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        const RunProgress &run = runs_[i];
        const RunInfo &info = info_[i];
        json.beginObject();
        json.key("run").value(static_cast<std::uint64_t>(i));
        json.key("label").value(info.label);
        json.key("app").value(info.app);
        json.key("policy").value(info.policy);
        json.key("relocation").value(info.relocation);
        json.key("ro_policy").value(info.roPolicy);
        json.key("seed").value(info.seed);
        json.key("state").value(runStateName(run.state()));
        json.key("stalled").value(run.stalled(nowMs, stallMs));
        json.key("accesses_issued").value(run.accessesIssued());
        json.key("accesses_target").value(run.accessesTarget());
        json.key("progress").value(run.progressRatio());
        json.key("tick").value(run.tick());
        json.key("transactions").value(run.transactions());
        json.key("snoop_lookups").value(run.snoopLookups());
        json.key("filter_rate").value(run.filterRate());
        json.key("traffic_byte_hops").value(run.trafficByteHops());
        std::uint64_t started = run.startedMs();
        std::uint64_t until = run.state() == RunState::Done
                                  ? run.finishedMs()
                                  : nowMs;
        json.key("elapsed_seconds")
            .value(started > 0 && until > started
                       ? static_cast<double>(until - started) / 1000.0
                       : 0.0);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

std::string
SweepHeartbeat::heartbeatLine(std::uint64_t nowMs) const
{
    char buf[64];
    std::string line = "heartbeat: ";
    line += std::to_string(runsDone());
    line += '/';
    line += std::to_string(runs_.size());
    line += " done, ";
    line += std::to_string(runsRunning());
    line += " running, ";
    std::snprintf(buf, sizeof buf, "%.2f runs/s",
                  runsPerSecond(nowMs));
    line += buf;
    double eta = etaSeconds(nowMs);
    if (eta > 0.0) {
        std::snprintf(buf, sizeof buf, ", ETA %.1f s", eta);
        line += buf;
    }
    return line;
}

void
registerLogRoute(StatsServer &server)
{
    server.routePrefix("GET", "/logs", [](const HttpRequest &request) {
        HttpResponse resp;
        if (request.path != "/logs") {
            resp.status = 404;
            resp.body = "not found\n";
            return resp;
        }
        LogLevel min_level = LogLevel::Debug;
        std::size_t max_count = std::size_t(-1);
        // Query is "k=v&k=v"; unknown keys are ignored, a bad
        // level or count is a client error.
        const std::string &q = request.query;
        for (std::size_t pos = 0; pos < q.size();) {
            std::size_t amp = q.find('&', pos);
            if (amp == std::string::npos)
                amp = q.size();
            std::string pair = q.substr(pos, amp - pos);
            pos = amp + 1;
            std::size_t eq = pair.find('=');
            if (eq == std::string::npos)
                continue;
            std::string key = pair.substr(0, eq);
            std::string value = pair.substr(eq + 1);
            if (key == "level") {
                std::optional<LogLevel> parsed = parseLogLevel(value);
                if (!parsed) {
                    resp.status = 400;
                    resp.body = "unknown level '" + value +
                                "' (debug|info|warn|error)\n";
                    return resp;
                }
                min_level = *parsed;
            } else if (key == "n") {
                char *end = nullptr;
                std::uint64_t n = std::strtoull(value.c_str(), &end, 10);
                if (end == value.c_str() || *end != '\0' || n == 0) {
                    resp.status = 400;
                    resp.body = "n expects a positive integer\n";
                    return resp;
                }
                max_count = static_cast<std::size_t>(n);
            }
        }
        resp.contentType = "application/x-ndjson";
        resp.body = slog().renderJsonl(min_level, max_count);
        return resp;
    });
}

void
registerTelemetryRoutes(StatsServer &server,
                        const MetricsRegistry &registry,
                        const SweepHeartbeat &heartbeat,
                        std::uint64_t stallMs)
{
    server.route("/metrics", [&registry] {
        HttpResponse resp;
        resp.contentType = kPrometheusContentType;
        resp.body = registry.renderPrometheus();
        return resp;
    });
    server.route("/progress", [&heartbeat, stallMs] {
        HttpResponse resp;
        resp.contentType = "application/json";
        resp.body =
            heartbeat.progressJson(steadyNowMs(), stallMs) + "\n";
        return resp;
    });
    server.route("/runs", [&heartbeat, stallMs] {
        HttpResponse resp;
        resp.contentType = "application/json";
        resp.body = heartbeat.runsJson(steadyNowMs(), stallMs) + "\n";
        return resp;
    });
    registerLogRoute(server);
    server.route("/", [] {
        HttpResponse resp;
        resp.body = "vsnoop live telemetry\n"
                    "  /metrics  Prometheus text exposition\n"
                    "  /progress sweep-level progress JSON\n"
                    "  /runs     per-run progress JSON\n"
                    "  /logs     recent log records (JSONL)\n";
        return resp;
    });
}

} // namespace vsnoop
