/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <cmath>

#include <gtest/gtest.h>

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
    EXPECT_NEAR(d.stddev(), 2.0, 1e-9);
}

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
    EXPECT_EQ(d.stddev(), 0.0);
}

TEST(Distribution, ResetClears)
{
    Distribution d;
    d.sample(5.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.variance(), 0.0);
    d.sample(1.0);
    EXPECT_DOUBLE_EQ(d.mean(), 1.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 1.0);
}

TEST(Distribution, VarianceSurvivesLargeOffset)
{
    // The sum-of-squares formula catastrophically cancels here:
    // sumSq ~ 1e24 while the true variance is 2/3, far below the
    // resolution of doubles near 1e24.  Welford's update keeps
    // full precision.  Samples like these are exactly what a
    // latency distribution sees late in a long run, when tick
    // timestamps are large.
    Distribution d;
    const double offset = 1e12;
    for (double v : {offset + 1.0, offset + 2.0, offset + 3.0})
        d.sample(v);
    EXPECT_NEAR(d.mean(), offset + 2.0, 1e-3);
    EXPECT_NEAR(d.variance(), 2.0 / 3.0, 1e-6);
    EXPECT_NEAR(d.stddev(), std::sqrt(2.0 / 3.0), 1e-6);
    EXPECT_DOUBLE_EQ(d.min(), offset + 1.0);
    EXPECT_DOUBLE_EQ(d.max(), offset + 3.0);
}

TEST(Distribution, VarianceMatchesTwoPassOnManySamples)
{
    Distribution d;
    double sum = 0.0;
    for (int i = 0; i < 1000; ++i) {
        double v = 5e9 + static_cast<double>(i % 7);
        d.sample(v);
        sum += v;
    }
    double mean = sum / 1000.0;
    double m2 = 0.0;
    for (int i = 0; i < 1000; ++i) {
        double v = 5e9 + static_cast<double>(i % 7);
        m2 += (v - mean) * (v - mean);
    }
    EXPECT_NEAR(d.variance(), m2 / 1000.0, 1e-6);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(1.0, 10);
    h.sample(0.5);
    h.sample(1.5);
    h.sample(1.6);
    h.sample(25.0); // overflow
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucketHits(0), 1u);
    EXPECT_EQ(h.bucketHits(1), 2u);
    EXPECT_EQ(h.overflowHits(), 1u);
}

TEST(Histogram, NegativeSamplesAreAnAccountingBug)
{
    // Sampled quantities (ticks, counts) are non-negative by
    // construction; silently clamping a negative sample into
    // bucket 0 would hide the upstream error.
    Histogram h(1.0, 4);
    EXPECT_DEATH(h.sample(-3.0), "negative histogram sample");
}

TEST(Histogram, CdfIsMonotone)
{
    Histogram h(1.0, 10);
    for (double v : {0.5, 1.5, 2.5, 3.5, 8.5})
        h.sample(v);
    double prev = 0.0;
    for (double x = 1.0; x <= 10.0; x += 1.0) {
        double c = h.cdfAt(x);
        EXPECT_GE(c, prev);
        prev = c;
    }
    EXPECT_DOUBLE_EQ(h.cdfAt(10.0), 1.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(2.0), 0.4);
}

TEST(Histogram, QuantileFindsBucketEdge)
{
    Histogram h(2.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(static_cast<double>(i)); // buckets 0..4
    EXPECT_DOUBLE_EQ(h.quantile(0.2), 2.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(Histogram, QuantileZeroIsSmallestPopulatedEdge)
{
    // quantile(0) used to satisfy "acc >= ceil(0) = 0" at bucket 0
    // even when that bucket was empty, reporting the first bucket
    // edge instead of the minimum's bucket.
    Histogram h(1.0, 10);
    h.sample(5.5);
    h.sample(7.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 6.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
}

TEST(Histogram, QuantileInOverflowIsDistinguishable)
{
    // A quantile that lies in the overflow bucket reports
    // +infinity; a legitimate top-edge result stays finite, so the
    // two cases cannot be confused.
    Histogram h(1.0, 2);
    h.sample(1.5); // top regular bucket
    h.sample(100.0); // overflow
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
    EXPECT_TRUE(std::isinf(h.quantile(1.0)));
}

TEST(Histogram, QuantileRejectsOutOfRange)
{
    Histogram h(1.0, 2);
    h.sample(0.5);
    EXPECT_DEATH(h.quantile(-0.1), "outside");
    EXPECT_DEATH(h.quantile(1.5), "outside");
}

TEST(Histogram, CdfPointsSkipLeadingEmpties)
{
    Histogram h(1.0, 10);
    h.sample(5.5);
    h.sample(6.5);
    auto points = h.cdfPoints();
    ASSERT_FALSE(points.empty());
    EXPECT_DOUBLE_EQ(points.front().first, 6.0);
    EXPECT_DOUBLE_EQ(points.front().second, 0.5);
    EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(Histogram, EmptyCdf)
{
    Histogram h(1.0, 4);
    EXPECT_EQ(h.cdfAt(2.0), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_TRUE(h.cdfPoints().empty());
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

} // namespace vsnoop::test
