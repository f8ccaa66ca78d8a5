#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace vsnoop
{

void
Distribution::sample(double value)
{
    count_++;
    double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void
Distribution::reset()
{
    *this = Distribution();
}

void
StatSet::add(const std::string &name, const Counter &counter)
{
    vsnoop_assert(counters_.count(name) == 0 && dists_.count(name) == 0,
                  "duplicate stat name '", name, "'");
    counters_[name] = &counter;
}

void
StatSet::add(const std::string &name, const Distribution &dist)
{
    vsnoop_assert(counters_.count(name) == 0 && dists_.count(name) == 0,
                  "duplicate stat name '", name, "'");
    dists_[name] = &dist;
}

namespace
{

/**
 * The 1-based nearest rank for quantile q of n samples: the
 * smallest rank whose cumulative fraction reaches q, at least 1 so
 * that q == 0 answers with the minimum.
 */
std::uint64_t
rankOf(double q, std::uint64_t n)
{
    vsnoop_assert(q >= 0.0 && q <= 1.0, "quantile ", q, " outside [0,1]");
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    return std::max<std::uint64_t>(rank, 1);
}

} // namespace

void
LatencyHistogram::sample(std::uint64_t value)
{
    buckets_[bucketFor(value)]++;
    count_++;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void
LatencyHistogram::sample(std::uint64_t value, std::uint64_t times)
{
    if (times == 0)
        return;
    buckets_[bucketFor(value)] += times;
    count_ += times;
    sum_ += value * times;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void
LatencyHistogram::reset()
{
    *this = LatencyHistogram();
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.count_ == 0)
        return;
    for (std::size_t i = 0; i < kNumBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
LatencyHistogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

std::size_t
LatencyHistogram::bucketFor(std::uint64_t value)
{
    // bit_width(v) == 1 + floor(log2(v)) for v > 0, so bucket i >= 1
    // collects exactly the values with i significant bits.
    if (value == 0)
        return 0;
    return std::min<std::size_t>(std::bit_width(value), kNumBuckets - 1);
}

std::uint64_t
LatencyHistogram::bucketLowerEdge(std::size_t i)
{
    vsnoop_assert(i < kNumBuckets, "bucket ", i, " out of range");
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

std::uint64_t
LatencyHistogram::bucketUpperEdge(std::size_t i)
{
    vsnoop_assert(i < kNumBuckets, "bucket ", i, " out of range");
    return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
}

std::uint64_t
LatencyHistogram::quantile(double q) const
{
    std::uint64_t need = rankOf(q, count_);
    if (count_ == 0)
        return 0;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= need)
            return std::clamp(bucketUpperEdge(i), min(), max_);
    }
    return max_;
}

std::uint64_t
nearestRank(std::vector<std::uint64_t> samples, double q)
{
    std::uint64_t rank = rankOf(q, samples.size());
    if (samples.empty())
        return 0;
    auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

void
LatencyHistogram::writeJson(JsonWriter &json) const
{
    std::size_t last = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        if (buckets_[i])
            last = i;
    }
    json.beginObject();
    json.key("count").value(count_);
    json.key("sum").value(sum_);
    json.key("min").value(min());
    json.key("max").value(max_);
    json.key("mean").value(mean());
    json.key("p50").value(quantile(0.5));
    json.key("p90").value(quantile(0.9));
    json.key("p99").value(quantile(0.99));
    json.key("buckets").beginArray();
    if (count_) {
        for (std::size_t i = 0; i <= last; ++i)
            json.value(buckets_[i]);
    }
    json.endArray();
    json.endObject();
}

namespace
{

/** Map a stat name onto the Prometheus metric-name grammar. */
std::string
sanitizeMetricName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

} // namespace

void
StatSet::registerMetrics(MetricsRegistry &registry,
                         const std::string &prefix) const
{
    for (const auto &[name, counter] : counters_) {
        registry.addCounter(
            prefix + sanitizeMetricName(name) + "_total",
            "Simulator counter " + name + ".", [c = counter] {
                return static_cast<double>(c->value());
            });
    }
    for (const auto &[name, dist] : dists_) {
        std::string base = prefix + sanitizeMetricName(name);
        registry.addGauge(base + "_count", "Sample count of " + name + ".",
                          [d = dist] {
                              return static_cast<double>(d->count());
                          });
        registry.addGauge(base + "_mean", "Mean of " + name + ".",
                          [d = dist] { return d->mean(); });
        registry.addGauge(base + "_min", "Minimum of " + name + ".",
                          [d = dist] { return d->min(); });
        registry.addGauge(base + "_max", "Maximum of " + name + ".",
                          [d = dist] { return d->max(); });
    }
}

} // namespace vsnoop
