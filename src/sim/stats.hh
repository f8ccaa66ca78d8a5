/**
 * @file
 * Lightweight statistics primitives.
 *
 * Components declare Counter / Distribution / LatencyHistogram
 * members and optionally register counters and distributions with
 * a StatSet for live telemetry.  LatencyHistogram is the one
 * histogram type; a statistic with only a handful of samples keeps
 * them in a vector and takes quantiles with nearestRank().  The
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
 * Count / mean / min / max over a stream of samples.
 *
 * The mean is a running (Welford) update rather than sum / count;
 * run records and the live gauges print it to the last digit, so
 * the update expression is part of the output contract.
 */
class Distribution
{
  public:
    void sample(double value);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Log2-bucketed latency histogram for integer tick durations.
 *
 * Bucket 0 holds the value 0; bucket i >= 1 covers [2^(i-1), 2^i).
 * Values past the last bucket clamp into it (max() still reports
 * the true maximum).  This covers the full dynamic range of
 * transaction latencies — from a one-cycle L2 hit path to a
 * persistent-request stall thousands of cycles long — with a
 * handful of buckets and no configuration.
 *
 * Quantiles are deterministic: quantile(q) finds the bucket that
 * holds the nearest-rank sample (see nearestRank()) and returns its
 * inclusive upper edge, clamped into [min(), max()] so a degenerate
 * distribution (all samples equal) reports the exact value.
 */
class LatencyHistogram
{
  public:
    /** Bucket count; the top bucket covers [2^38, inf). */
    static constexpr std::size_t kNumBuckets = 40;

    void sample(std::uint64_t value);
    /** Record @p times samples of @p value at once. */
    void sample(std::uint64_t value, std::uint64_t times);
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

/**
 * Exact nearest-rank quantile of a sample set: the smallest sample
 * at rank max(1, ceil(q * n)) of the n samples in ascending order,
 * or 0 with no samples.  q in [0,1].  Used where a statistic keeps
 * every sample because there are only a handful (the Figure 9
 * removal periods).
 */
std::uint64_t nearestRank(std::vector<std::uint64_t> samples, double q);

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
