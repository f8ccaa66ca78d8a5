/**
 * @file
 * Tests for the tracing & time-series subsystem: the TraceSink ring
 * buffer, lifecycle records emitted by a real simulation, the
 * interval sampler, the Chrome trace exporter, and — the
 * load-bearing property — byte-identical trace and time-series
 * output for the same seed whether a run executes alone or as one
 * of a parallel sweep job.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sweep_reference.hh"
#include "system/sweep.hh"
#include "trace/chrome_trace.hh"
#include "trace/timeseries.hh"
#include "trace/trace.hh"

namespace vsnoop::test
{

namespace
{

TraceRecord
recordAt(Tick tick)
{
    TraceRecord r;
    r.tick = tick;
    r.kind = TraceEventKind::RequestIssue;
    return r;
}

/** A small traced configuration exercising migration + filtering. */
SystemConfig
tracedConfig()
{
    SystemConfig cfg;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.numVms = 2;
    cfg.vcpusPerVm = 2;
    cfg.l2.sizeBytes = 32 * 1024;
    cfg.accessesPerVcpu = 800;
    cfg.warmupAccessesPerVcpu = 200;
    cfg.migrationPeriod = 20000;
    cfg.captureTrace = true;
    cfg.timeseriesInterval = 10000;
    return cfg;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

} // namespace

TEST(TraceSink, RetainsEverythingBelowCapacity)
{
    TraceSink sink(8);
    for (Tick t = 0; t < 5; ++t)
        sink.record(recordAt(t));
    EXPECT_EQ(sink.size(), 5u);
    EXPECT_EQ(sink.recorded(), 5u);
    EXPECT_EQ(sink.dropped(), 0u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(sink.at(i).tick, static_cast<Tick>(i));
}

TEST(TraceSink, RingOverwritesOldestAndStaysChronological)
{
    TraceSink sink(4);
    for (Tick t = 0; t < 10; ++t)
        sink.record(recordAt(t));
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.recorded(), 10u);
    EXPECT_EQ(sink.dropped(), 6u);
    // Oldest-first iteration over the retained tail: 6,7,8,9.
    std::vector<Tick> ticks;
    sink.forEach([&](const TraceRecord &r) { ticks.push_back(r.tick); });
    EXPECT_EQ(ticks, (std::vector<Tick>{6, 7, 8, 9}));
}

TEST(TraceSink, ClearKeepsCapacity)
{
    TraceSink sink(4);
    for (Tick t = 0; t < 6; ++t)
        sink.record(recordAt(t));
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.capacity(), 4u);
    sink.record(recordAt(42));
    EXPECT_EQ(sink.at(0).tick, 42u);
}

TEST(TraceNames, CoverEveryEnumerator)
{
    for (std::size_t k = 0; k < kNumTraceEventKinds; ++k)
        EXPECT_STRNE(traceEventKindName(static_cast<TraceEventKind>(k)),
                     "");
    for (std::size_t r = 0; r < kNumFilterReasons; ++r)
        EXPECT_STRNE(filterReasonName(static_cast<FilterReason>(r)), "");
    for (std::size_t d = 0; d < kNumDataSources; ++d)
        EXPECT_STRNE(dataSourceName(static_cast<DataSource>(d)), "");
    for (std::size_t c = 0; c < kNumMsgClasses; ++c)
        EXPECT_STRNE(msgClassName(static_cast<MsgClass>(c)), "");
}

TEST(IntervalSampler, DeltasAndFinalPartialSample)
{
    EventQueue eq;
    std::uint64_t counter = 0;
    IntervalSampler sampler(eq, 100, [&](TimeSeriesSample &s) {
        s.transactions = counter;
    });
    sampler.start();
    // Bump the counter by 10 at ticks 40,90,...,240 — off the
    // sample ticks, so tie-break order cannot blur the deltas.
    for (int step = 0; step < 5; ++step)
        eq.scheduleFnIn(40 + 50 * step, [&counter] { counter += 10; });
    eq.runUntil(250);
    sampler.stop();
    const TimeSeries &series = sampler.series();
    ASSERT_TRUE(series.enabled());
    EXPECT_EQ(series.interval, 100u);
    // Samples at 100, 200 plus the final partial one at 250.
    ASSERT_EQ(series.samples.size(), 3u);
    EXPECT_EQ(series.samples[0].tick, 100u);
    EXPECT_EQ(series.samples[0].transactions, 20u);
    EXPECT_EQ(series.samples[1].tick, 200u);
    EXPECT_EQ(series.samples[1].transactions, 20u);
    EXPECT_EQ(series.samples[2].tick, 250u);
    EXPECT_EQ(series.samples[2].transactions, 10u);
}

TEST(IntervalSampler, ResetSeriesRebaselines)
{
    EventQueue eq;
    std::uint64_t counter = 0;
    IntervalSampler sampler(eq, 100, [&](TimeSeriesSample &s) {
        s.transactions = counter;
    });
    sampler.start();
    counter = 1000;
    eq.runUntil(150);
    sampler.resetSeries(); // warmup boundary: discard, re-baseline
    counter = 1007;
    eq.runUntil(250);
    sampler.stop();
    // The pre-reset sample at tick 100 is discarded; what remains
    // is the already-armed sample at 200 and the final one at 250.
    const TimeSeries &series = sampler.series();
    ASSERT_EQ(series.samples.size(), 2u);
    // Only the post-reset delta is visible, not the 1000 jump.
    EXPECT_EQ(series.samples[0].transactions, 7u);
    EXPECT_EQ(series.samples[1].transactions, 0u);
}

TEST(TracedRun, LifecycleRecordsAreConsistent)
{
    SystemConfig cfg = tracedConfig();
    SimSystem system(cfg, findApp("ferret"));
    system.run();
    const TraceSink *sink = system.trace();
    ASSERT_NE(sink, nullptr);
    ASSERT_GT(sink->size(), 0u);

    std::uint64_t issues = 0, decisions = 0, completions = 0;
    Tick last_issue = 0;
    sink->forEach([&](const TraceRecord &r) {
        switch (r.kind) {
          case TraceEventKind::RequestIssue:
            // Issue records carry the current tick, so they are
            // non-decreasing.  (Completion records are stamped with
            // their future completion tick and may interleave.)
            EXPECT_GE(r.tick, last_issue);
            last_issue = r.tick;
            issues++;
            break;
          case TraceEventKind::FilterDecision:
            decisions++;
            // The vsnoop policy always attributes its decision.
            EXPECT_NE(r.reason, FilterReason::Baseline);
            // A broadcast decision covers every other core.
            if (r.broadcast) {
                EXPECT_EQ(CoreSet::fromMask(r.targets).count() + 1,
                          cfg.numCores());
            }
            break;
          case TraceEventKind::Completion:
            completions++;
            EXPECT_GT(r.value, 0u) << "zero-latency completion";
            break;
          default:
            break;
        }
    });
    // Nothing was dropped at this size, so the lifecycle is whole:
    // every transaction has one issue, >= 1 decision, one completion.
    EXPECT_EQ(sink->dropped(), 0u);
    EXPECT_EQ(issues, completions);
    EXPECT_GE(decisions, issues);
}

TEST(TracedRun, TimeSeriesCoversMeasurementPhase)
{
    SystemConfig cfg = tracedConfig();
    SimSystem system(cfg, findApp("ferret"));
    system.run();
    SystemResults r = system.results();
    ASSERT_TRUE(r.series.enabled());
    ASSERT_GT(r.series.samples.size(), 1u);
    std::uint64_t txn_sum = 0;
    for (const TimeSeriesSample &s : r.series.samples) {
        txn_sum += s.transactions;
        ASSERT_EQ(s.residencePerCore.size(), cfg.numCores());
    }
    // Interval deltas sum back to the end-of-run aggregate.
    EXPECT_EQ(txn_sum, r.transactions);
}

TEST(TracedRun, DisabledTracingLeavesNoSink)
{
    SystemConfig cfg = tracedConfig();
    cfg.captureTrace = false;
    cfg.timeseriesInterval = 0;
    SimSystem system(cfg, findApp("ferret"));
    system.run();
    EXPECT_EQ(system.trace(), nullptr);
    EXPECT_FALSE(system.results().series.enabled());
}

TEST(ChromeTrace, ExportsWellFormedEventArray)
{
    SystemConfig cfg = tracedConfig();
    SimSystem system(cfg, findApp("ferret"));
    system.run();
    SystemResults r = system.results();

    std::ostringstream os;
    ChromeTraceMeta meta;
    meta.numCores = cfg.numCores();
    meta.numVms = cfg.numVms;
    writeChromeTrace(os, *system.trace(), &r.series, meta);
    std::string trace = os.str();

    // Structural sanity: the JsonWriter guarantees validity; check
    // the Chrome-trace schema essentials are present.
    EXPECT_EQ(trace.front(), '{');
    EXPECT_EQ(trace.back(), '}');
    EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(trace.find("\"records_dropped\""), std::string::npos);
    // Filter decisions survive into slice args.
    EXPECT_NE(trace.find("\"decision\""), std::string::npos);
    EXPECT_NE(trace.find("\"reason\""), std::string::npos);
}

TEST(ChromeTrace, ClosesAndCountsUnmatchedSpans)
{
    // Transactions whose Completion never arrived (in flight at run
    // end, or rotated out of the ring) must still be emitted —
    // capped at the last recorded tick and marked unclosed — and
    // counted in otherData.
    TraceSink sink(16);
    TraceRecord issue = recordAt(100);
    issue.core = 3;
    issue.line = 0x40;
    sink.record(issue);

    TraceRecord done = recordAt(250);
    done.core = 1;
    done.line = 0x80;
    sink.record(done);
    TraceRecord completion;
    completion.kind = TraceEventKind::Completion;
    completion.tick = 400;
    completion.core = 1;
    completion.line = 0x80;
    sink.record(completion);

    std::ostringstream os;
    ChromeTraceMeta meta;
    meta.numCores = 4;
    meta.numVms = 2;
    writeChromeTrace(os, sink, nullptr, meta);
    std::string trace = os.str();

    EXPECT_NE(trace.find("\"unclosed\":true"), std::string::npos);
    EXPECT_NE(trace.find("\"unclosed_transactions\":1"),
              std::string::npos);
    // The unclosed span is capped at the last recorded tick:
    // 400 - 100 = 300.
    EXPECT_NE(trace.find("\"dur\":300"), std::string::npos);
}

TEST(ChromeTrace, NoUnmatchedSpansCountsZero)
{
    TraceSink sink(16);
    TraceRecord issue = recordAt(10);
    issue.core = 0;
    issue.line = 0x40;
    sink.record(issue);
    TraceRecord completion;
    completion.kind = TraceEventKind::Completion;
    completion.tick = 60;
    completion.core = 0;
    completion.line = 0x40;
    sink.record(completion);

    std::ostringstream os;
    ChromeTraceMeta meta;
    meta.numCores = 1;
    meta.numVms = 1;
    writeChromeTrace(os, sink, nullptr, meta);
    EXPECT_NE(os.str().find("\"unclosed_transactions\":0"),
              std::string::npos);
    EXPECT_EQ(os.str().find("\"unclosed\":true"), std::string::npos);
}

namespace
{

/** Sweep matrix with tracing + time series on every run. */
SweepMatrix
tracedMatrix(const std::string &trace_dir)
{
    SweepMatrix m;
    m.apps = {"ferret", "blackscholes"};
    m.policies = {PolicyKind::TokenB, PolicyKind::VirtualSnoop};
    m.seeds = {1, 2};
    m.base = tracedConfig();
    m.traceDir = trace_dir;
    return m;
}

} // namespace

TEST(TraceDeterminism, SeriesAndTraceBytesIdenticalAcrossJobs)
{
    std::string dir1 = testing::TempDir() + "vsnoop_traces_j1";
    std::string dir4 = testing::TempDir() + "vsnoop_traces_j4";
    for (const std::string &d : {dir1, dir4}) {
        std::string cmd = "mkdir -p " + d;
        ASSERT_EQ(std::system(cmd.c_str()), 0);
    }

    // The serial collectRun() loop is the reference; the engine
    // runs the same matrix as one job on four workers.
    SweepMatrix m1 = tracedMatrix(dir1);
    SweepMatrix m4 = tracedMatrix(dir4);
    auto serial = serialRunLines(m1);
    auto parallel = queueRunLines(m4, 4);
    ASSERT_EQ(serial.size(), 8u);
    ASSERT_EQ(parallel.size(), serial.size());

    // JSON-lines output (including the embedded time series) is
    // byte-identical to the reference...
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]) << "run " << i;
        EXPECT_NE(serial[i].find("\"timeseries\""), std::string::npos);
    }

    // ...and so is every per-run Chrome trace file.
    for (const SweepPoint &p : m1.expand()) {
        std::string name = SweepMatrix::traceFileName(p);
        std::string t1 = slurp(dir1 + "/" + name);
        std::string t4 = slurp(dir4 + "/" + name);
        ASSERT_FALSE(t1.empty()) << name;
        EXPECT_EQ(t1, t4) << name;
    }
}

TEST(TraceNames, FilterReasonNamesRoundTripExhaustively)
{
    // Every FilterReason value must produce a distinct, non-empty
    // name, and the name must map back to exactly the value that
    // produced it.  JSON consumers (run records, the report tool,
    // the pagemon by_reason breakdown) key on these strings, so a
    // renamed or aliased reason is a silent data-corruption bug.
    std::map<std::string, FilterReason> by_name;
    for (std::size_t i = 0; i < kNumFilterReasons; ++i) {
        auto reason = static_cast<FilterReason>(i);
        const char *name = filterReasonName(reason);
        ASSERT_NE(name, nullptr);
        ASSERT_STRNE(name, "");
        auto [it, inserted] = by_name.emplace(name, reason);
        EXPECT_TRUE(inserted)
            << "duplicate reason name '" << name << "'";
    }
    EXPECT_EQ(by_name.size(), kNumFilterReasons);
    for (const auto &[name, reason] : by_name)
        EXPECT_STREQ(filterReasonName(reason), name.c_str());
}

TEST(TraceNames, TraceEventKindNamesAreExhaustiveAndDistinct)
{
    std::map<std::string, TraceEventKind> by_name;
    for (std::size_t i = 0; i < kNumTraceEventKinds; ++i) {
        auto kind = static_cast<TraceEventKind>(i);
        const char *name = traceEventKindName(kind);
        ASSERT_NE(name, nullptr);
        ASSERT_STRNE(name, "");
        auto [it, inserted] = by_name.emplace(name, kind);
        EXPECT_TRUE(inserted)
            << "duplicate trace-kind name '" << name << "'";
    }
    EXPECT_EQ(by_name.size(), kNumTraceEventKinds);
    // The page-lifecycle block must stay contiguous: the Chrome
    // exporter and the host-track gate test kind ranges.
    EXPECT_EQ(static_cast<std::size_t>(TraceEventKind::PageRemap) -
                  static_cast<std::size_t>(TraceEventKind::PageMap),
              4u);
}

} // namespace vsnoop::test
