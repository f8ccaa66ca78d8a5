/**
 * @file
 * Simulator-internals performance monitor (perfmon).
 *
 * The hot-path machinery — the calendar event queue, the FlatMap
 * protocol tables, the pooled one-shot events, the mesh send loop —
 * is tuned blind without occupancy and health counters: a probe
 * chain that degrades, a wheel bucket that deepens, or a pool that
 * keeps refilling shows up only as a mysterious runs/s regression.
 * Perfmon gives those structures the same self-measurement
 * discipline the simulated protocol already has.
 *
 * The hooks follow the repository's branch-on-null contract
 * (trace/trace.hh, sim/profiler.hh): every instrumented component
 * holds a nullable pointer to its counter block and pays one
 * predictable branch per site when monitoring is off.  Counters are
 * plain (non-atomic) and thread-confined to the owning SimSystem,
 * like every other per-run statistic.
 *
 * Everything recorded here is a deterministic function of the
 * simulation (structure sizes, probe counts, backlog cycles — never
 * wall-clock time), so the `results.perf` JSON block is
 * byte-identical across --jobs values, and absent entirely when
 * monitoring is off.
 *
 * Each flat block declares its fields once as a row table
 * (sim/row_table.hh): the merge across runs, the JSON members and
 * the vsnoop_perf_* series that RunTotals (system/run_totals.hh)
 * exports on the sweep/serve /metrics endpoint all come from the
 * rows.
 */

#ifndef VSNOOP_SIM_PERFMON_HH_
#define VSNOOP_SIM_PERFMON_HH_

#include <cstdint>
#include <span>
#include <utility>

#include "sim/row_table.hh"

namespace vsnoop
{

/**
 * EventQueue health: wheel and overflow-heap pressure plus the
 * one-shot callback pool's churn.  Occupancy histograms are sampled
 * by the IntervalSampler (one sample per interval); the counters
 * accumulate per structural operation.
 */
struct EventQueuePerf
{
    /** schedule() calls (reschedules included). */
    std::uint64_t schedules = 0;
    /** deschedule() calls that removed a pending event. */
    std::uint64_t deschedules = 0;
    /** Entries appended to wheel buckets (overflow migrations
     *  included — they are wheel pressure too). */
    std::uint64_t wheelInserts = 0;
    /** Entries pushed onto the far-future overflow heap. */
    std::uint64_t overflowInserts = 0;
    /** High-water mark of entries resident in wheel buckets. */
    std::uint64_t maxWheelEntries = 0;
    /** High-water mark of the overflow heap. */
    std::uint64_t maxOverflowEntries = 0;
    /** Deepest same-tick FIFO bucket ever observed. */
    std::uint64_t maxBucketDepth = 0;
    /** OwnedEvent slots ever allocated (the pool never shrinks). */
    std::uint64_t poolHighWater = 0;
    /** scheduleFn() calls that grew the pool. */
    std::uint64_t poolRefills = 0;
    /** scheduleFn() calls served from the free list. */
    std::uint64_t poolReuses = 0;
    /** @{ Interval-sampled occupancy (entries at sample ticks). */
    LatencyHistogram wheelOccupancy;
    LatencyHistogram overflowOccupancy;
    /** @} */

    static std::span<const Row<EventQueuePerf>> rows();
};

/**
 * One named FlatMap's probe health.  Probe length counts slots
 * touched per lookup/insert probe (1 = direct hit on the home
 * slot), so a healthy table keeps the histogram mass in the first
 * couple of buckets; growing tails predict a rehash tuning.
 */
struct FlatTablePerf
{
    /** Slots touched per findSlot()/probeForInsert() probe. */
    LatencyHistogram probeLength;
    /** Capacity-doubling rehashes. */
    std::uint64_t growthRehashes = 0;
    /** Same-capacity re-packs triggered by tombstone load. */
    std::uint64_t tombstoneCleanups = 0;
    /** High-water mark of live entries. */
    std::uint64_t maxEntries = 0;
    /** Interval-sampled live-entry occupancy. */
    LatencyHistogram occupancy;
    /** @{ End-of-run snapshot (filled when results are taken). */
    std::uint64_t endSize = 0;
    std::uint64_t endCapacity = 0;
    /** @} */

    /** endSize / endCapacity (0 when the capacity is unknown). */
    double loadFactor() const;

    static std::span<const Row<FlatTablePerf>> rows();
};

/**
 * Mesh send-loop shape: how far each XY leg walks and how many
 * cycles each hop waits behind earlier traffic.  Backlog records
 * every hop (zero-wait hops land in bucket 0), so the histogram is
 * the true backlog distribution, not just the contended tail.
 */
struct MeshPerf
{
    /** Cycles waited behind a busy link, one sample per hop. */
    LatencyHistogram sendBacklog;
    /** Hops walked per XY leg, one sample per leg. */
    LatencyHistogram legLength;

    static std::span<const Row<MeshPerf>> rows();
};

/**
 * The full per-run counter block, owned by SimSystem and copied
 * into SystemResults at results() time.  `enabled` gates JSON
 * emission so runs without --perf stay byte-identical.
 */
struct PerfMon
{
    bool enabled = false;
    EventQueuePerf eventQueue;
    FlatTablePerf mshrs;
    FlatTablePerf inflight;
    FlatTablePerf memoryLedger;
    MeshPerf mesh;

    void merge(const PerfMon &other);

    /** The `results.perf` block (deterministic member order). */
    void writeJson(JsonWriter &json) const;
};

/** The FlatMaps under `results.perf.tables`: JSON key (also the
 *  series' table label) and member. */
inline constexpr std::pair<const char *, FlatTablePerf PerfMon::*>
    kPerfTables[] = {
        {"mshrs", &PerfMon::mshrs},
        {"inflight", &PerfMon::inflight},
        {"memory_ledger", &PerfMon::memoryLedger},
};

} // namespace vsnoop

#endif // VSNOOP_SIM_PERFMON_HH_
