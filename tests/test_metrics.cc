/**
 * @file
 * MetricsRegistry tests: registration rules, when value sources are
 * read, the Prometheus text exposition output, and seqlock snapshot
 * consistency under a concurrent reader.
 */

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace vsnoop
{
namespace
{

TEST(MetricsRegistry, ValuesRoundTripThroughStaging)
{
    MetricsRegistry registry;
    MetricsRegistry::Id a =
        registry.addCounter("a_total", "A.", [] { return 41.0; });
    MetricsRegistry::Id b =
        registry.addGauge("b", "B.", [] { return -2.5; });
    registry.freeze();

    // Source values are invisible to snapshots until publish().
    MetricsRegistry::Snapshot before = registry.snapshot();
    EXPECT_EQ(before.sequence, 0u);
    EXPECT_EQ(before.values[a], 0.0);

    registry.publish();
    MetricsRegistry::Snapshot after = registry.snapshot();
    EXPECT_EQ(after.sequence, 2u);
    EXPECT_EQ(after.values[a], 41.0);
    EXPECT_EQ(after.values[b], -2.5);
    EXPECT_EQ(registry.publishes(), 1u);
}

TEST(MetricsRegistry, SourcesAreReadAtPublishOnly)
{
    int scalarReads = 0;
    int histogramReads = 0;
    MetricsRegistry registry;
    registry.addCounter("vsnoop_reads_total", "Reads.", [&scalarReads] {
        return static_cast<double>(++scalarReads);
    });
    registry.addHistogram("vsnoop_read_hist", "Reads.",
                          [&histogramReads] {
                              ++histogramReads;
                              return LatencyHistogram();
                          });
    EXPECT_EQ(scalarReads, 0);
    registry.freeze();
    registry.snapshot();
    registry.renderPrometheus();
    EXPECT_EQ(scalarReads, 0);
    EXPECT_EQ(histogramReads, 0);

    registry.publish();
    EXPECT_EQ(scalarReads, 1);
    EXPECT_EQ(histogramReads, 1);
    registry.snapshot();
    EXPECT_NE(registry.renderPrometheus().find("vsnoop_reads_total 1\n"),
              std::string::npos);
    EXPECT_EQ(scalarReads, 1);

    registry.publish();
    EXPECT_EQ(scalarReads, 2);
    EXPECT_EQ(histogramReads, 2);
}

TEST(MetricsRegistry, PrometheusExpositionGolden)
{
    MetricsRegistry registry;
    registry.addCounter("vsnoop_requests_total", "Requests seen.",
                        [] { return 7.0; });
    registry.addCounter("vsnoop_by_code_total", "Requests by code.",
                        [] { return 6.0; }, {{"code", "200"}});
    registry.addCounter("vsnoop_by_code_total", "Requests by code.",
                        [] { return 1.0; }, {{"code", "404"}});
    registry.addGauge("vsnoop_temperature",
                      "A gauge with an escaped label.",
                      [] { return 0.5; }, {{"path", "a\\b\"c\nd"}});
    registry.freeze();
    registry.publish();

    EXPECT_EQ(registry.renderPrometheus(),
              "# HELP vsnoop_requests_total Requests seen.\n"
              "# TYPE vsnoop_requests_total counter\n"
              "vsnoop_requests_total 7\n"
              "# HELP vsnoop_by_code_total Requests by code.\n"
              "# TYPE vsnoop_by_code_total counter\n"
              "vsnoop_by_code_total{code=\"200\"} 6\n"
              "vsnoop_by_code_total{code=\"404\"} 1\n"
              "# HELP vsnoop_temperature A gauge with an escaped "
              "label.\n"
              "# TYPE vsnoop_temperature gauge\n"
              "vsnoop_temperature{path=\"a\\\\b\\\"c\\nd\"} 0.5\n");
}

TEST(MetricsRegistry, ExpositionBeforeFirstPublishIsAllZero)
{
    MetricsRegistry registry;
    registry.addGauge("vsnoop_zero", "Never published.",
                      [] { return 5.0; });
    registry.freeze();
    EXPECT_EQ(registry.renderPrometheus(),
              "# HELP vsnoop_zero Never published.\n"
              "# TYPE vsnoop_zero gauge\n"
              "vsnoop_zero 0\n");
}

TEST(MetricsRegistry, SpecialValuesUsePrometheusSpellings)
{
    using limits = std::numeric_limits<double>;
    MetricsRegistry registry;
    registry.addGauge("vsnoop_inf", "Inf.",
                      [] { return limits::infinity(); });
    registry.addGauge("vsnoop_ninf", "NInf.",
                      [] { return -limits::infinity(); });
    registry.addGauge("vsnoop_nan", "NaN.",
                      [] { return limits::quiet_NaN(); });
    registry.freeze();
    registry.publish();

    std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("vsnoop_inf +Inf\n"), std::string::npos);
    EXPECT_NE(text.find("vsnoop_ninf -Inf\n"), std::string::npos);
    EXPECT_NE(text.find("vsnoop_nan NaN\n"), std::string::npos);
}

/**
 * Seqlock consistency: the publisher keeps the invariant b == 2*a
 * in every published generation; a concurrent reader must never
 * observe a snapshot that mixes generations.
 */
TEST(MetricsRegistry, SnapshotsAreConsistentUnderConcurrentReader)
{
    // Sources run on the publisher (this thread), so a plain
    // variable is enough.
    int generations = 0;
    MetricsRegistry registry;
    MetricsRegistry::Id a = registry.addGauge(
        "a", "Half.",
        [&generations] { return static_cast<double>(generations); });
    MetricsRegistry::Id b = registry.addGauge(
        "b", "Double.",
        [&generations] { return 2.0 * static_cast<double>(generations); });
    registry.freeze();

    constexpr int kMinGenerations = 20000;
    constexpr std::uint64_t kMinReads = 2000;
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> torn{0};
    std::atomic<std::uint64_t> reads{0};

    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            MetricsRegistry::Snapshot snap = registry.snapshot();
            if (snap.values[b] != 2.0 * snap.values[a])
                torn.fetch_add(1);
            reads.fetch_add(1, std::memory_order_relaxed);
        }
    });
    // Publish until the reader has overlapped with enough
    // generations to make a torn read likely if seqlocking were
    // broken; the floor alone could finish before the reader runs.
    while (generations < kMinGenerations ||
           reads.load(std::memory_order_relaxed) < kMinReads) {
        ++generations;
        registry.publish();
    }
    done.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GE(reads.load(), kMinReads);
    EXPECT_EQ(registry.publishes(),
              static_cast<std::uint64_t>(generations));

    MetricsRegistry::Snapshot final_snap = registry.snapshot();
    EXPECT_EQ(final_snap.values[a], generations);
    EXPECT_EQ(final_snap.values[b], 2.0 * generations);
    EXPECT_EQ(final_snap.sequence,
              2u * static_cast<std::uint64_t>(generations));
}

TEST(TraceSinkMetrics, ExportsRecordedDroppedAndRetained)
{
    TraceSink sink(2);
    MetricsRegistry registry;
    sink.registerMetrics(registry, "vsnoop_sim_");
    registry.freeze();

    TraceRecord r;
    for (int i = 0; i < 3; ++i)
        sink.record(r);
    registry.publish();

    std::string text = registry.renderPrometheus();
    EXPECT_NE(
        text.find("vsnoop_sim_trace_records_recorded_total 3\n"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_sim_trace_records_dropped_total 1\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_sim_trace_records_retained 2\n"),
              std::string::npos)
        << text;
}

/**
 * Split @p text into the cumulative _bucket counts of @p name, in
 * exposition order, plus its _sum and _count lines.
 */
void
parseHistogram(const std::string &text, const std::string &name,
               std::vector<double> *bucketCounts, double *sum,
               double *count)
{
    bucketCounts->clear();
    *sum = -1.0;
    *count = -1.0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.rfind(name + "_bucket{", 0) == 0) {
            std::size_t space = line.rfind(' ');
            ASSERT_NE(space, std::string::npos);
            bucketCounts->push_back(
                std::stod(line.substr(space + 1)));
        } else if (line.rfind(name + "_sum ", 0) == 0) {
            *sum = std::stod(line.substr(name.size() + 5));
        } else if (line.rfind(name + "_count ", 0) == 0) {
            *count = std::stod(line.substr(name.size() + 7));
        }
    }
}

TEST(MetricsRegistry, HistogramExpositionIsCumulativeAndConsistent)
{
    LatencyHistogram hist;
    MetricsRegistry registry;
    MetricsRegistry::Id id =
        registry.addHistogram("vsnoop_test_latency_us", "Test latencies.",
                              [&hist] { return hist; });
    registry.freeze();
    EXPECT_EQ(registry.slotCount(id),
              LatencyHistogram::kNumBuckets + 2);

    hist.sample(0.0);
    hist.sample(1.0);
    hist.sample(100.0);
    hist.sample(1e18); // lands in the clamping top bucket
    registry.publish();

    std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("# TYPE vsnoop_test_latency_us histogram"),
              std::string::npos)
        << text;

    std::vector<double> buckets;
    double sum = 0.0, count = 0.0;
    parseHistogram(text, "vsnoop_test_latency_us", &buckets, &sum,
                   &count);
    // Finite buckets plus the +Inf bucket.
    ASSERT_EQ(buckets.size(), LatencyHistogram::kNumBuckets);
    // Cumulative counts never decrease, and +Inf equals _count.
    for (std::size_t i = 1; i < buckets.size(); ++i)
        EXPECT_GE(buckets[i], buckets[i - 1]) << i;
    EXPECT_EQ(buckets.back(), 4.0);
    EXPECT_EQ(count, 4.0);
    EXPECT_EQ(sum, hist.sum());
    // The clamped sample is only in +Inf, not any finite bucket.
    EXPECT_EQ(buckets[buckets.size() - 2], 3.0);
}

TEST(MetricsRegistry, HistogramSnapshotsAreConsistentUnderWriter)
{
    // One thread samples and publishes (the single-publisher
    // contract); a reader renders concurrently and checks every
    // snapshot for internal consistency: monotone buckets, +Inf ==
    // _count, and _sum exactly the sum of a prefix of the sampled
    // values (every published snapshot is some consistent prefix).
    LatencyHistogram hist;
    MetricsRegistry registry;
    registry.addHistogram("vsnoop_test_hist", "Concurrency probe.",
                          [&hist] { return hist; });
    registry.freeze();

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> torn{0};
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            std::string text = registry.renderPrometheus();
            std::vector<double> buckets;
            double sum = 0.0, count = 0.0;
            parseHistogram(text, "vsnoop_test_hist", &buckets, &sum,
                           &count);
            if (buckets.empty())
                continue;
            for (std::size_t i = 1; i < buckets.size(); ++i)
                if (buckets[i] < buckets[i - 1])
                    ++torn;
            if (buckets.back() != count)
                ++torn;
            // Every sample below is 3.0, so _sum must be 3*_count.
            if (sum != 3.0 * count)
                ++torn;
        }
    });

    for (int i = 0; i < 2000; ++i) {
        hist.sample(3.0);
        registry.publish();
    }
    done.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(torn.load(), 0u);
    std::string text = registry.renderPrometheus();
    std::vector<double> buckets;
    double sum = 0.0, count = 0.0;
    parseHistogram(text, "vsnoop_test_hist", &buckets, &sum, &count);
    EXPECT_EQ(count, 2000.0);
    EXPECT_EQ(sum, 6000.0);
}

TEST(MetricsRegistry, HistogramsCoexistWithScalarSeries)
{
    // Histograms occupy a slot range; scalar series registered
    // around one must keep reading their own values.
    LatencyHistogram hist;
    hist.sample(5.0);
    MetricsRegistry registry;
    registry.addCounter("vsnoop_test_before_total", "Before.",
                        [] { return 7.0; });
    MetricsRegistry::Id hist_id = registry.addHistogram(
        "vsnoop_test_mid", "Middle.", [&hist] { return hist; });
    MetricsRegistry::Id after = registry.addGauge(
        "vsnoop_test_after", "After.", [] { return 9.0; });
    registry.freeze();

    EXPECT_EQ(registry.slotBase(after),
              registry.slotBase(hist_id) +
                  LatencyHistogram::kNumBuckets + 2);
    registry.publish();

    std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("vsnoop_test_before_total 7\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_test_after 9\n"), std::string::npos)
        << text;
    EXPECT_NE(text.find("vsnoop_test_mid_count 1\n"),
              std::string::npos)
        << text;
}

TEST(MetricsRegistry, BuildInfoGaugeCarriesProvenanceLabels)
{
    MetricsRegistry registry;
    registerBuildInfo(registry);
    registry.freeze();
    registry.publish();

    std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("vsnoop_build_info{"), std::string::npos)
        << text;
    EXPECT_NE(text.find("version="), std::string::npos) << text;
    EXPECT_NE(text.find("compiler="), std::string::npos) << text;
    EXPECT_NE(text.find("} 1\n"), std::string::npos) << text;
}

} // namespace
} // namespace vsnoop
