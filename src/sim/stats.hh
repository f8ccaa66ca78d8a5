/**
 * @file
 * Lightweight statistics primitives.
 *
 * Components declare Counter / Distribution / Histogram members and
 * optionally register them with a StatSet for live telemetry.  The
 * classes are deliberately simple: plain accumulation, no
 * thread-safety, and cheap increments on hot paths.  Every stat is
 * owned by the components of one SimSystem; under the sweep
 * runner's "one SimSystem per thread" contract (see
 * system/sim_system.hh) no stat is ever touched from two threads.
 */

#ifndef VSNOOP_SIM_STATS_HH_
#define VSNOOP_SIM_STATS_HH_

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace vsnoop
{

class JsonWriter;

/**
 * A monotonically increasing event count.
 */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    Counter &operator++() { value_++; return *this; }
    Counter &operator+=(std::uint64_t by) { value_ += by; return *this; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Mean / min / max / count over a stream of samples.
 *
 * Second moments use Welford's online algorithm: the naive
 * sum-of-squares formula catastrophically cancels for
 * large-magnitude samples (e.g. tick timestamps late in a long
 * run), producing variances off by orders of magnitude or clamped
 * negative results.
 */
class Distribution
{
  public:
    void sample(double value);
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    /** Population variance. */
    double variance() const;
    double stddev() const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    /** Welford running mean and sum of squared deviations. */
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-width bucketed histogram over [0, bucketWidth * bucketCount);
 * samples beyond the top land in an overflow bucket.  Supports
 * quantile queries and cumulative-distribution dumps (used for the
 * paper's Figure 9 core-removal-period CDF).
 */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket, > 0.
     * @param bucket_count Number of regular buckets, > 0.
     */
    Histogram(double bucket_width, std::size_t bucket_count);

    /**
     * Record one sample.  Sampled quantities (ticks, counts) are
     * non-negative by construction; a negative sample indicates an
     * upstream accounting bug and is asserted on rather than
     * silently clamped into bucket 0.
     */
    void sample(double value);
    void reset();

    std::uint64_t count() const { return count_; }
    double bucketWidth() const { return bucketWidth_; }
    std::size_t bucketCount() const { return buckets_.size(); }
    std::uint64_t bucketHits(std::size_t i) const { return buckets_.at(i); }
    std::uint64_t overflowHits() const { return overflow_; }

    /**
     * Fraction of samples <= value (linear interpolation inside the
     * containing bucket is not applied; the CDF is a step function
     * at bucket upper edges).
     */
    double cdfAt(double value) const;

    /**
     * Smallest bucket upper edge whose CDF reaches q in [0,1].
     *
     * quantile(0) returns the upper edge of the smallest populated
     * bucket (the minimum's bucket), not the first bucket edge.
     * When the requested quantile lies in the overflow bucket the
     * result is +infinity, so it cannot be confused with a
     * legitimate top-edge answer.
     */
    double quantile(double q) const;

    /**
     * Dump the CDF as (upper_edge, cumulative_fraction) points,
     * skipping empty leading buckets.
     */
    std::vector<std::pair<double, double>> cdfPoints() const;

  private:
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * Log2-bucketed latency histogram for integer tick durations.
 *
 * Bucket 0 holds the value 0; bucket i >= 1 covers [2^(i-1), 2^i).
 * Values past the last bucket clamp into it (max() still reports
 * the true maximum).  Compared to the fixed-width Histogram this
 * covers the full dynamic range of transaction latencies — from a
 * one-cycle L2 hit path to a persistent-request stall thousands of
 * cycles long — with a handful of buckets and no configuration.
 *
 * Quantiles are deterministic: quantile(q) walks the cumulative
 * counts and returns the containing bucket's inclusive upper edge,
 * clamped into [min(), max()] so a degenerate distribution (all
 * samples equal) reports the exact value.
 */
class LatencyHistogram
{
  public:
    /** Bucket count; the top bucket covers [2^38, inf). */
    static constexpr std::size_t kNumBuckets = 40;

    void sample(std::uint64_t value);
    void reset();

    /** Fold another histogram in, as if its samples were recorded
     *  here (buckets and moments add, min/max combine). */
    void merge(const LatencyHistogram &other);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

    std::uint64_t bucketHits(std::size_t i) const { return buckets_[i]; }
    /** Bucket index a value lands in (with top-bucket clamping). */
    static std::size_t bucketFor(std::uint64_t value);
    /** Inclusive lower edge of bucket i. */
    static std::uint64_t bucketLowerEdge(std::size_t i);
    /** Inclusive upper edge of bucket i (nominal for the top bucket). */
    static std::uint64_t bucketUpperEdge(std::size_t i);

    /** See class comment; q in [0,1].  0 with no samples. */
    std::uint64_t quantile(double q) const;

    /**
     * Emit {count,sum,min,max,mean,p50,p90,p99,buckets:[...]} with
     * the bucket array trimmed after the last non-empty bucket.
     */
    void writeJson(JsonWriter &json) const;

  private:
    std::array<std::uint64_t, kNumBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

class MetricsRegistry;

/**
 * A named set of counters and distributions exported as
 * live-telemetry series (sim/metrics.hh).  Components register
 * references; the StatSet never owns the stats.  Names are unique
 * across both kinds — registering the same name twice (even once
 * as a counter and once as a distribution) is asserted on.
 */
class StatSet
{
  public:
    void add(const std::string &name, const Counter &counter);
    void add(const std::string &name, const Distribution &dist);

    /**
     * Register one series per stat, each kind sorted by name:
     * counters as Prometheus counters `<prefix><name>_total`, then
     * distributions as `<prefix><name>_{count,mean,min,max}` gauges,
     * with stat-name characters outside the Prometheus grammar
     * mapped to '_'.  The sources read the same thread-confined
     * stats the owning SimSystem mutates, so only that system's
     * thread may publish the registry, and the stats must outlive
     * its last publish().
     */
    void registerMetrics(MetricsRegistry &registry,
                         const std::string &prefix) const;

  private:
    std::map<std::string, const Counter *> counters_;
    std::map<std::string, const Distribution *> dists_;
};

} // namespace vsnoop

#endif // VSNOOP_SIM_STATS_HH_
