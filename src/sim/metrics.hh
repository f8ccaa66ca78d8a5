/**
 * @file
 * Live-telemetry metrics registry.
 *
 * The simulator's statistics (sim/stats.hh) are thread-confined by
 * design: every Counter belongs to one SimSystem and is never read
 * from another thread.  Live monitoring needs the opposite — a
 * background HTTP server thread (sim/stats_server.hh) reading a
 * consistent view of values that simulation or sweep threads keep
 * updating.  MetricsRegistry bridges the two worlds without
 * perturbing the simulation:
 *
 *  - Registration happens up front, single-threaded: every series
 *    (name + label set) is added before freeze() together with the
 *    source that reads its value; after freeze() the series list is
 *    immutable, so readers never see the registry resize.
 *
 *  - Publication is a seqlock over an array of doubles: one
 *    designated publisher thread calls publish(), which calls every
 *    source, then brackets the copy into the published array with
 *    sequence-counter increments.  Readers copy the snapshot and
 *    retry if the sequence changed mid-copy, so every snapshot()
 *    result is one whole publish.  All shared accesses are atomic
 *    (TSan-clean) and neither side ever blocks the other: the
 *    writer never waits for readers, and a reader only re-copies
 *    while a publish is in flight.
 *
 *  - Sources run only on the publisher thread, so a source may read
 *    thread-confined state when its owner's thread is the publisher
 *    (vsnoopsim publishes from the simulating thread); otherwise it
 *    reads atomics or takes its owner's lock.  Series read one
 *    after another are not promised to be consistent with each
 *    other, but a histogram source returns one copy taken under its
 *    owner's lock, so each histogram is internally consistent: the
 *    finite buckets sum to at most the count and the +Inf bucket
 *    equals it exactly.
 *
 * The registry deliberately stores only doubles: every simulator
 * quantity (counts, ticks, ratios) fits exactly up to 2^53, and
 * trivially-copyable values are what make the seqlock sound.  A
 * histogram occupies LatencyHistogram::kNumBuckets + 2 consecutive
 * value slots ([buckets..][sum][count]).
 *
 * renderPrometheus() emits the Prometheus text exposition format
 * (version 0.0.4) for scraping via the embedded stats server's
 * /metrics endpoint; histograms render the conventional
 * `_bucket{le=...}` / `_sum` / `_count` triple with cumulative
 * log2 bucket edges.
 */

#ifndef VSNOOP_SIM_METRICS_HH_
#define VSNOOP_SIM_METRICS_HH_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace vsnoop
{

/** Prometheus metric kind (the TYPE line). */
enum class MetricKind : std::uint8_t
{
    Counter,
    Gauge,
    Histogram,
};

/** One name="value" pair attached to a series. */
using MetricLabel = std::pair<std::string, std::string>;

/**
 * A registry of named metric series with seqlock'd snapshot
 * publication.  See the file comment for the threading contract.
 */
class MetricsRegistry
{
  public:
    using Id = std::size_t;
    /** Reads one Counter/Gauge value (publisher thread only). */
    using Source = std::function<double()>;
    /** Reads one histogram: a copy taken under its owner's lock. */
    using HistogramSource = std::function<LatencyHistogram()>;

    /**
     * A consistent point-in-time copy of every value slot.
     * Counter/Gauge series own one slot at values[slotBase(id)];
     * a histogram owns slotCount(id) consecutive slots laid out
     * [buckets..][sum][count].  sequence increases by 2 per
     * publish() (seqlock convention: odd means a write was in
     * flight), so pollers can detect fresh data cheaply.
     */
    struct Snapshot
    {
        std::uint64_t sequence = 0;
        std::vector<double> values;
    };

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register one Counter or Gauge series and the source that
     * reads its value.  Must be called before freeze().  The name
     * must match the Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]*,
     * label names [a-zA-Z_][a-zA-Z0-9_]*; violations assert.
     * Series sharing a name (one family, many label sets) must be
     * registered contiguously with the same kind and help text.
     *
     * publish() calls @p source on the publisher thread, never
     * here and never in snapshot(): whatever the source reads must
     * outlive the last publish().
     */
    Id add(MetricKind kind, std::string name, std::string help,
           Source source, std::vector<MetricLabel> labels = {});

    /** Shorthands for the two scalar kinds; see add(). */
    Id addCounter(std::string name, std::string help, Source source,
                  std::vector<MetricLabel> labels = {})
    {
        return add(MetricKind::Counter, std::move(name),
                   std::move(help), std::move(source),
                   std::move(labels));
    }
    Id addGauge(std::string name, std::string help, Source source,
                std::vector<MetricLabel> labels = {})
    {
        return add(MetricKind::Gauge, std::move(name),
                   std::move(help), std::move(source),
                   std::move(labels));
    }

    /**
     * Register a histogram family member; same rules as add().
     * The name is the family base name; exposition appends
     * _bucket/_sum/_count.
     */
    Id addHistogram(std::string name, std::string help,
                    HistogramSource source,
                    std::vector<MetricLabel> labels = {});

    /** End registration; publish()/snapshot() become legal. */
    void freeze();

    /** First value slot of a series (== id while no histogram
     * precedes it, since Counter/Gauge series take one slot). */
    std::size_t slotBase(Id id) const { return meta_.at(id).slotBase; }
    /** Value slots a series occupies (1, or kNumBuckets + 2). */
    std::size_t slotCount(Id id) const { return meta_.at(id).slots; }

    /**
     * Call every source, then copy the values into the published
     * snapshot under the seqlock.  Exactly one thread may call
     * publish() at a time (the publisher role); it never blocks on
     * readers.
     */
    void publish();

    /** Number of publish() calls so far. */
    std::uint64_t publishes() const;

    /**
     * Read a consistent snapshot (retrying while a publish is in
     * flight).  Valid before the first publish(): all zeros at
     * sequence 0.
     */
    Snapshot snapshot() const;

    /**
     * Render a snapshot in the Prometheus text exposition format
     * (version 0.0.4): # HELP / # TYPE per family, one
     * name{labels} value line per series, newline-terminated.
     */
    std::string renderPrometheus(const Snapshot &snap) const;

    /** Convenience: snapshot() + renderPrometheus(). */
    std::string renderPrometheus() const { return renderPrometheus(snapshot()); }

  private:
    struct SeriesMeta
    {
        MetricKind kind;
        std::string name;
        std::string help;
        std::vector<MetricLabel> labels;
        /** First value slot; slots are assigned in add() order. */
        std::size_t slotBase = 0;
        /** Slots occupied: 1, or kNumBuckets + 2 for histograms. */
        std::size_t slots = 1;
        /** Exactly one is set, matching kind. */
        Source source;
        HistogramSource histogram;
    };

    Id addSeries(SeriesMeta meta);

    std::vector<SeriesMeta> meta_;
    std::size_t totalSlots_ = 0;
    bool frozen_ = false;
    /** Source values of the publish in progress (publisher only). */
    std::vector<double> staging_;
    /** Reader-facing seqlock'd copy, published by publish(). */
    std::vector<std::atomic<double>> published_;
    /** Seqlock sequence: odd while a publish is copying. */
    std::atomic<std::uint64_t> seq_{0};
};

/** A source reading @p counter, which must outlive the last
 *  publish(). */
inline MetricsRegistry::Source
atomicSource(const std::atomic<std::uint64_t> &counter)
{
    return [&counter] { return static_cast<double>(counter.load()); };
}

/** The /metrics Content-Type for the text exposition format. */
extern const char *const kPrometheusContentType;

/**
 * Register the conventional build-provenance gauge: a
 * `vsnoop_build_info` series whose value is always 1 with
 * version/git/compiler/build_type labels from sim/version.hh.
 * Call before freeze().
 */
void registerBuildInfo(MetricsRegistry &registry);

} // namespace vsnoop

#endif // VSNOOP_SIM_METRICS_HH_
