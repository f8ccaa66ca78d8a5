/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/json.hh"
#include "sim/stats.hh"

namespace vsnoop::test
{

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 16u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Distribution, MomentsAreCorrect)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
}

TEST(Distribution, ResetClears)
{
    Distribution d;
    d.sample(5.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    d.sample(1.0);
    EXPECT_DOUBLE_EQ(d.mean(), 1.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 1.0);
}

TEST(Distribution, MeanSurvivesLargeOffset)
{
    // Samples with a large common offset, like tick timestamps late
    // in a long run: the running mean keeps full precision.
    Distribution d;
    const double offset = 1e12;
    for (double v : {offset + 1.0, offset + 2.0, offset + 3.0})
        d.sample(v);
    EXPECT_NEAR(d.mean(), offset + 2.0, 1e-3);
    EXPECT_DOUBLE_EQ(d.min(), offset + 1.0);
    EXPECT_DOUBLE_EQ(d.max(), offset + 3.0);
}

TEST(Distribution, MeanIsTheRunningUpdate)
{
    // The mean is the running update mean += (v - mean) / n, not
    // sum / n; run records print it to the last digit.  These
    // samples tell the two apart in the last bits.
    Distribution d;
    double running = 0.0;
    double sum = 0.0;
    for (int i = 1; i <= 1000; ++i) {
        double v = 100.0 + static_cast<double>((i * 37) % 101);
        d.sample(v);
        running += (v - running) / static_cast<double>(i);
        sum += v;
    }
    EXPECT_EQ(d.mean(), running);
    EXPECT_NE(running, sum / 1000.0);
}

TEST(StatSet, DuplicateNamesAssert)
{
    StatSet set;
    Counter a, b;
    Distribution d;
    set.add("snoops", a);
    EXPECT_DEATH(set.add("snoops", b), "duplicate stat name");
    // A distribution may not shadow a counter either.
    EXPECT_DEATH(set.add("snoops", d), "duplicate stat name");
    set.add("latency", d);
    EXPECT_DEATH(set.add("latency", a), "duplicate stat name");
}

TEST(LatencyHistogram, BucketBoundariesAreLog2)
{
    // Bucket 0 holds only zero; bucket i >= 1 holds the values with
    // exactly i significant bits: [2^(i-1), 2^i - 1].
    EXPECT_EQ(LatencyHistogram::bucketFor(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketFor(1), 1u);
    EXPECT_EQ(LatencyHistogram::bucketFor(2), 2u);
    EXPECT_EQ(LatencyHistogram::bucketFor(3), 2u);
    EXPECT_EQ(LatencyHistogram::bucketFor(4), 3u);
    EXPECT_EQ(LatencyHistogram::bucketFor(7), 3u);
    EXPECT_EQ(LatencyHistogram::bucketFor(8), 4u);
    EXPECT_EQ(LatencyHistogram::bucketFor(1023), 10u);
    EXPECT_EQ(LatencyHistogram::bucketFor(1024), 11u);
    for (std::size_t i = 1; i < LatencyHistogram::kNumBuckets - 1; ++i) {
        std::uint64_t lo = LatencyHistogram::bucketLowerEdge(i);
        std::uint64_t hi = LatencyHistogram::bucketUpperEdge(i);
        EXPECT_EQ(LatencyHistogram::bucketFor(lo), i);
        EXPECT_EQ(LatencyHistogram::bucketFor(hi), i);
        EXPECT_EQ(hi + 1, LatencyHistogram::bucketLowerEdge(i + 1));
    }
    // Values past the last finite boundary clamp into the overflow
    // bucket rather than indexing out of range.
    EXPECT_EQ(LatencyHistogram::bucketFor(std::uint64_t{1} << 45),
              LatencyHistogram::kNumBuckets - 1);
}

TEST(LatencyHistogram, MomentsTrackSamples)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    h.sample(10);
    h.sample(30);
    h.sample(20);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 60u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 30u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
}

TEST(LatencyHistogram, QuantilesAnswerFromBucketEdges)
{
    LatencyHistogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(5); // bucket 3: [4, 7]
    for (int i = 0; i < 10; ++i)
        h.sample(1000); // bucket 10: [512, 1023]
    // The median rank lands in bucket 3; the histogram answers with
    // that bucket's inclusive upper edge.
    EXPECT_EQ(h.quantile(0.5), 7u);
    // Rank 109 of 110 lands in the top populated bucket, whose edge
    // (1023) is clamped to the observed maximum.
    EXPECT_EQ(h.quantile(0.99), 1000u);
    EXPECT_EQ(h.quantile(1.0), 1000u);
}

TEST(LatencyHistogram, QuantileOfUniformValueIsExact)
{
    // Every sample identical: edge clamping must recover the exact
    // value at every quantile, not the bucket boundary.
    LatencyHistogram h;
    for (int i = 0; i < 7; ++i)
        h.sample(227);
    EXPECT_EQ(h.quantile(0.5), 227u);
    EXPECT_EQ(h.quantile(0.99), 227u);
    EXPECT_EQ(h.quantile(0.0), 227u);
}

TEST(LatencyHistogram, OverflowBucketClampsToObservedRange)
{
    LatencyHistogram h;
    h.sample(std::uint64_t{1} << 45);
    EXPECT_EQ(h.bucketHits(LatencyHistogram::kNumBuckets - 1), 1u);
    EXPECT_EQ(h.quantile(0.5), std::uint64_t{1} << 45);
}

namespace
{

std::string
jsonOf(const LatencyHistogram &h)
{
    JsonWriter json;
    h.writeJson(json);
    return json.str();
}

} // namespace

TEST(LatencyHistogram, MergedCellsWriteTheJsonOfTheUnion)
{
    // The coherence system samples one cell per completion and
    // builds its all / by-reason / first-try / retried views by
    // merging cells; the views must be byte-identical to
    // histograms that sampled the union directly.  Cell 1 stays
    // empty: merging it must not pull min() away from the union's.
    const std::vector<std::vector<std::uint64_t>> cells = {
        {5, 300, 7, 12}, {}, {40, 1u << 20, 0, 3}, {227}};
    LatencyHistogram merged;
    LatencyHistogram direct;
    for (const auto &samples : cells) {
        LatencyHistogram cell;
        for (std::uint64_t v : samples) {
            cell.sample(v);
            direct.sample(v);
        }
        merged.merge(cell);
    }
    EXPECT_EQ(jsonOf(merged), jsonOf(direct));

    LatencyHistogram nonzero;
    nonzero.merge(LatencyHistogram{});
    for (std::uint64_t v : {9u, 4u})
        nonzero.sample(v);
    nonzero.merge(LatencyHistogram{});
    EXPECT_EQ(nonzero.min(), 4u);

    LatencyHistogram empty;
    empty.merge(LatencyHistogram{});
    EXPECT_EQ(empty.min(), 0u);
    EXPECT_EQ(jsonOf(empty), jsonOf(LatencyHistogram{}));
}

TEST(LatencyHistogram, RepeatedSampleWritesTheJsonOfSingleSamples)
{
    // The mesh tallies repeated values (leg lengths, idle hops) and
    // records each value once with its count.  Zero times records
    // nothing, so min() stays untouched.
    LatencyHistogram counted;
    LatencyHistogram single;
    const std::pair<std::uint64_t, std::uint64_t> rows[] = {
        {3, 4}, {0, 7}, {1u << 20, 1}, {12, 0}, {2, 3}};
    for (auto [value, times] : rows) {
        counted.sample(value, times);
        for (std::uint64_t i = 0; i < times; ++i)
            single.sample(value);
    }
    EXPECT_EQ(jsonOf(counted), jsonOf(single));

    LatencyHistogram none;
    none.sample(5, 0);
    EXPECT_EQ(jsonOf(none), jsonOf(LatencyHistogram{}));
}

TEST(NearestRank, Table)
{
    // Rank max(1, ceil(q * n)) of the sorted samples; the input
    // order does not matter.
    const std::vector<std::uint64_t> odd = {70, 10, 50, 30, 90};
    const std::vector<std::uint64_t> ties = {8, 3, 8, 8, 1, 3};
    struct Row
    {
        const std::vector<std::uint64_t> *samples;
        double q;
        std::uint64_t expect;
    };
    const std::vector<std::uint64_t> none;
    const std::vector<std::uint64_t> one = {42};
    const Row rows[] = {
        {&odd, 0.0, 10},  {&odd, 0.2, 10},  {&odd, 0.21, 30},
        {&odd, 0.5, 50},  {&odd, 0.9, 90},  {&odd, 1.0, 90},
        {&ties, 0.0, 1},  {&ties, 0.2, 3},  {&ties, 0.5, 3},
        {&ties, 0.51, 8}, {&ties, 1.0, 8},  {&one, 0.0, 42},
        {&one, 0.5, 42},  {&one, 1.0, 42},  {&none, 0.0, 0},
        {&none, 0.5, 0},  {&none, 1.0, 0},
    };
    for (const Row &row : rows) {
        EXPECT_EQ(nearestRank(*row.samples, row.q), row.expect)
            << "q " << row.q << " over " << row.samples->size()
            << " samples";
    }
}

TEST(NearestRank, AgreesWithTheHistogramRankRule)
{
    // LatencyHistogram::quantile() picks the same rank and answers
    // with that sample's bucket edge, so with one sample per bucket
    // its answer lands in the exact sample's bucket at every q.
    std::vector<std::uint64_t> samples = {1, 2, 4, 8, 16, 32, 64, 128};
    LatencyHistogram h;
    for (std::uint64_t v : samples)
        h.sample(v);
    for (double q : {0.0, 0.125, 0.3, 0.5, 0.77, 0.99, 1.0}) {
        std::uint64_t exact = nearestRank(samples, q);
        EXPECT_EQ(LatencyHistogram::bucketFor(h.quantile(q)),
                  LatencyHistogram::bucketFor(exact))
            << "q " << q;
    }
}

TEST(NearestRank, RejectsOutOfRange)
{
    EXPECT_DEATH(nearestRank({1, 2}, -0.1), "outside");
    EXPECT_DEATH(nearestRank({1, 2}, 1.5), "outside");
}

} // namespace vsnoop::test
