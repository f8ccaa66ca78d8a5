#include "sim/metrics.hh"

#include <charconv>
#include <cmath>

#include "sim/logging.hh"
#include "sim/version.hh"

namespace vsnoop
{

const char *const kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

namespace
{

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name[0]))
        return false;
    for (char c : name) {
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    }
    return true;
}

bool
validLabelName(const std::string &name)
{
    // Like a metric name but without ':' (reserved for recording
    // rules on the Prometheus side).
    return validMetricName(name) &&
           name.find(':') == std::string::npos;
}

/** Escape a label value: backslash, double quote, newline. */
std::string
escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

/**
 * Shortest-round-trip value formatting, mirroring the JSON
 * writer's determinism contract: equal doubles always render the
 * same bytes.  Non-finite values use the exposition format's
 * spellings.
 */
std::string
formatValue(double value)
{
    if (std::isnan(value))
        return "NaN";
    if (std::isinf(value))
        return value > 0 ? "+Inf" : "-Inf";
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    vsnoop_assert(ec == std::errc(), "to_chars failed for a double");
    return std::string(buf, end);
}

const char *
kindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "untyped";
}

} // namespace

MetricsRegistry::Id
MetricsRegistry::add(MetricKind kind, std::string name, std::string help,
                     Source source, std::vector<MetricLabel> labels)
{
    vsnoop_assert(kind != MetricKind::Histogram,
                  "histogram '", name, "' needs addHistogram()");
    return addSeries({kind, std::move(name), std::move(help),
                      std::move(labels), 0, 1, std::move(source),
                      nullptr});
}

MetricsRegistry::Id
MetricsRegistry::addHistogram(std::string name, std::string help,
                              HistogramSource source,
                              std::vector<MetricLabel> labels)
{
    return addSeries({MetricKind::Histogram, std::move(name),
                      std::move(help), std::move(labels), 0,
                      LatencyHistogram::kNumBuckets + 2, nullptr,
                      std::move(source)});
}

MetricsRegistry::Id
MetricsRegistry::addSeries(SeriesMeta meta)
{
    const std::string &name = meta.name;
    vsnoop_assert(!frozen_,
                  "metrics registry is frozen; register every series "
                  "before freeze()");
    vsnoop_assert(validMetricName(name),
                  "invalid Prometheus metric name '", name, "'");
    vsnoop_assert(meta.source != nullptr || meta.histogram != nullptr,
                  "metric '", name, "' has no source");
    for (const MetricLabel &label : meta.labels)
        vsnoop_assert(validLabelName(label.first),
                      "invalid Prometheus label name '", label.first,
                      "' on metric '", name, "'");
    // Families must be contiguous so HELP/TYPE can head each block;
    // a same-name series later in the list with different metadata
    // would silently emit a second family.
    for (const SeriesMeta &m : meta_) {
        if (m.name != name)
            continue;
        vsnoop_assert(m.kind == meta.kind && m.help == meta.help,
                      "metric family '", name,
                      "' re-registered with different kind or help");
        vsnoop_assert(meta_.back().name == name,
                      "metric family '", name,
                      "' must be registered contiguously");
    }
    meta.slotBase = totalSlots_;
    totalSlots_ += meta.slots;
    meta_.push_back(std::move(meta));
    return meta_.size() - 1;
}

void
MetricsRegistry::freeze()
{
    vsnoop_assert(!frozen_, "metrics registry frozen twice");
    frozen_ = true;
    // vector<atomic<double>> cannot grow, so the published array is
    // sized exactly once here; C++20 value-initializes it to 0.
    staging_.assign(totalSlots_, 0.0);
    published_ = std::vector<std::atomic<double>>(totalSlots_);
}

void
MetricsRegistry::publish()
{
    vsnoop_assert(frozen_, "publish() before freeze()");
    // Sources run before the seqlock opens, so a slow source (a
    // histogram copy waiting on its owner's lock) never keeps
    // readers spinning.
    for (const SeriesMeta &m : meta_) {
        if (m.kind != MetricKind::Histogram) {
            staging_[m.slotBase] = m.source();
            continue;
        }
        LatencyHistogram hist = m.histogram();
        constexpr std::size_t buckets = LatencyHistogram::kNumBuckets;
        for (std::size_t i = 0; i < buckets; ++i)
            staging_[m.slotBase + i] =
                static_cast<double>(hist.bucketHits(i));
        staging_[m.slotBase + buckets] = static_cast<double>(hist.sum());
        staging_[m.slotBase + buckets + 1] =
            static_cast<double>(hist.count());
    }
    // Seqlock write side (Boehm, "Can seqlocks get along with
    // programming language memory models?"): odd sequence brackets
    // the copy; the release fence orders the sequence bump before
    // the value stores, and the release store publishes them.
    std::uint64_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < staging_.size(); ++i)
        published_[i].store(staging_[i], std::memory_order_relaxed);
    seq_.store(s + 2, std::memory_order_release);
}

std::uint64_t
MetricsRegistry::publishes() const
{
    return seq_.load(std::memory_order_acquire) / 2;
}

MetricsRegistry::Snapshot
MetricsRegistry::snapshot() const
{
    vsnoop_assert(frozen_, "snapshot() before freeze()");
    Snapshot snap;
    snap.values.resize(published_.size());
    for (;;) {
        std::uint64_t s1 = seq_.load(std::memory_order_acquire);
        if (s1 & 1)
            continue; // publish in flight; re-read the sequence
        for (std::size_t i = 0; i < published_.size(); ++i)
            snap.values[i] =
                published_[i].load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (seq_.load(std::memory_order_relaxed) == s1) {
            snap.sequence = s1;
            return snap;
        }
    }
}

std::string
MetricsRegistry::renderPrometheus(const Snapshot &snap) const
{
    vsnoop_assert(snap.values.size() == totalSlots_,
                  "snapshot size does not match the registry");
    std::string out;
    out.reserve(totalSlots_ * 32);

    // Append "{a="x",b="y"}" (or nothing), with an optional extra
    // label appended after the registered ones (the le bound).
    auto labelBlock = [&out](const std::vector<MetricLabel> &labels,
                             const char *extraKey,
                             const std::string &extraValue) {
        if (labels.empty() && extraKey == nullptr)
            return;
        out += '{';
        for (std::size_t l = 0; l < labels.size(); ++l) {
            if (l > 0)
                out += ',';
            out += labels[l].first;
            out += "=\"";
            out += escapeLabelValue(labels[l].second);
            out += '"';
        }
        if (extraKey != nullptr) {
            if (!labels.empty())
                out += ',';
            out += extraKey;
            out += "=\"";
            out += extraValue;
            out += '"';
        }
        out += '}';
    };

    const std::string *family = nullptr;
    for (std::size_t i = 0; i < meta_.size(); ++i) {
        const SeriesMeta &m = meta_[i];
        if (family == nullptr || *family != m.name) {
            family = &m.name;
            out += "# HELP ";
            out += m.name;
            out += ' ';
            out += m.help;
            out += "\n# TYPE ";
            out += m.name;
            out += ' ';
            out += kindName(m.kind);
            out += '\n';
        }
        if (m.kind != MetricKind::Histogram) {
            out += m.name;
            labelBlock(m.labels, nullptr, std::string());
            out += ' ';
            out += formatValue(snap.values[m.slotBase]);
            out += '\n';
            continue;
        }

        // Histogram: cumulative _bucket lines over the log2 edges,
        // then _sum and _count.  The top LatencyHistogram bucket
        // clamps, so its nominal edge is not a true upper bound —
        // it is folded into le="+Inf" (== _count) instead of
        // claiming a finite bound it does not honor.
        constexpr std::size_t buckets = LatencyHistogram::kNumBuckets;
        double sum = snap.values[m.slotBase + buckets];
        double count = snap.values[m.slotBase + buckets + 1];
        double cumulative = 0.0;
        for (std::size_t b = 0; b + 1 < buckets; ++b) {
            cumulative += snap.values[m.slotBase + b];
            out += m.name;
            out += "_bucket";
            labelBlock(m.labels, "le",
                       formatValue(static_cast<double>(
                           LatencyHistogram::bucketUpperEdge(b))));
            out += ' ';
            out += formatValue(cumulative);
            out += '\n';
        }
        out += m.name;
        out += "_bucket";
        labelBlock(m.labels, "le", "+Inf");
        out += ' ';
        out += formatValue(count);
        out += '\n';
        out += m.name;
        out += "_sum";
        labelBlock(m.labels, nullptr, std::string());
        out += ' ';
        out += formatValue(sum);
        out += '\n';
        out += m.name;
        out += "_count";
        labelBlock(m.labels, nullptr, std::string());
        out += ' ';
        out += formatValue(count);
        out += '\n';
    }
    return out;
}

void
registerBuildInfo(MetricsRegistry &registry)
{
    registry.addGauge(
        "vsnoop_build_info",
        "Build provenance; the value is always 1.", [] { return 1.0; },
        {{"version", toolVersion()},
         {"git", gitDescribe()},
         {"compiler", compilerId()},
         {"build_type", buildType()}});
}

} // namespace vsnoop
