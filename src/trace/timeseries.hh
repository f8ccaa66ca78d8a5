/**
 * @file
 * Interval time series: periodic snapshots of key simulation rates.
 *
 * The paper's own analysis (Section V, Figures 7-9) is temporal —
 * migration transients, residence-counter drain curves — but the
 * simulator only reported end-of-run aggregates.  The
 * IntervalSampler snapshots a set of cumulative counters every N
 * ticks and stores the per-interval deltas (plus the absolute
 * per-core residence counts) in a TimeSeries, which serializes into
 * the RunResult JSON-lines schema so sweep output carries a time
 * series per run.
 *
 * Determinism: sampling rides the simulation event queue, so sample
 * ticks and values are part of the deterministic event order —
 * byte-identical for identical configurations and seeds regardless
 * of how many sweep workers run concurrently.
 */

#ifndef VSNOOP_TRACE_TIMESERIES_HH_
#define VSNOOP_TRACE_TIMESERIES_HH_

#include <cstdint>
#include <vector>

#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace vsnoop
{

class JsonWriter;

/** Machine name of a MsgClass ("request", "data", ...). */
const char *msgClassName(MsgClass cls);

/**
 * One sample.  Counter fields hold the delta over the preceding
 * interval; residencePerCore holds the absolute counts at the
 * sample tick (sum over VMs of each core's residence counters).
 */
struct TimeSeriesSample
{
    /** Tick the sample was taken at (end of its interval). */
    Tick tick = 0;
    std::uint64_t transactions = 0;
    std::uint64_t snoopLookups = 0;
    std::uint64_t snoopsDelivered = 0;
    /** Requests multicast within a vCPU map (VirtualSnoop only). */
    std::uint64_t filteredRequests = 0;
    /** Requests broadcast (VirtualSnoop only). */
    std::uint64_t broadcastRequests = 0;
    std::uint64_t retries = 0;
    std::uint64_t persistentRequests = 0;
    /** Network byte-hops per message class (Table IV metric). */
    std::uint64_t byteHops[kNumMsgClasses] = {};
    /** VM-private lines resident per core, summed over VMs. */
    std::vector<std::uint64_t> residencePerCore;
};

/**
 * A run's collected samples.
 */
struct TimeSeries
{
    /** Sampling interval in ticks; 0 means sampling was off. */
    Tick interval = 0;
    std::vector<TimeSeriesSample> samples;

    bool enabled() const { return interval > 0; }

    /** Append as {"interval":N,"samples":[...]} (deterministic). */
    void writeJson(JsonWriter &json) const;
};

/**
 * Drives periodic sampling on a simulation's event queue.
 *
 * The owner provides a snapshot callback that fills a sample with
 * *cumulative* counter values; the sampler differences consecutive
 * snapshots into per-interval deltas (residencePerCore is kept
 * absolute).  resetSeries() re-baselines at the warmup boundary so
 * the series covers exactly the measurement phase.
 */
class IntervalSampler
{
  public:
    using SnapshotFn = SmallFn<void(TimeSeriesSample &)>;

    /**
     * @param eq Event queue to schedule sampling on.
     * @param interval Ticks between samples (>= 1).
     * @param fn Fills cumulative counter values.
     */
    IntervalSampler(EventQueue &eq, Tick interval, SnapshotFn fn);

    /** Schedule the first sample (one interval from now). */
    void start();

    /**
     * Stop sampling and take one final partial-interval sample if
     * simulated time advanced past the last one (so end-of-run
     * state — e.g. a drained residence counter — is captured).
     */
    void stop();

    /** Drop collected samples and re-baseline (warmup boundary). */
    void resetSeries();

    const TimeSeries &series() const { return series_; }

  private:
    void scheduleNext();
    void takeSample();

    EventQueue &eq_;
    Tick interval_;
    SnapshotFn fn_;
    TimeSeries series_;
    /** Previous cumulative snapshot (delta baseline). */
    TimeSeriesSample lastRaw_;
    Tick lastSampleTick_ = 0;
    bool running_ = false;
};

} // namespace vsnoop

#endif // VSNOOP_TRACE_TIMESERIES_HH_
