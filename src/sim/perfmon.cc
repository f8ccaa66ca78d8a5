#include "sim/perfmon.hh"

namespace vsnoop
{

namespace
{

using enum RowRule;

constexpr Row<EventQueuePerf> kEventQueueRows[] = {
    {"schedules", Sum, &EventQueuePerf::schedules,
     "EventQueue schedule() calls across aggregated runs."},
    {"deschedules", Sum, &EventQueuePerf::deschedules,
     "EventQueue deschedule() calls that removed a pending event."},
    {"wheel_inserts", Sum, &EventQueuePerf::wheelInserts,
     "Entries appended to calendar-wheel buckets."},
    {"overflow_inserts", Sum, &EventQueuePerf::overflowInserts,
     "Entries pushed onto the far-future overflow heap."},
    {"max_wheel_entries", Max, &EventQueuePerf::maxWheelEntries,
     "High-water mark of entries resident in wheel buckets."},
    {"max_overflow_entries", Max, &EventQueuePerf::maxOverflowEntries,
     "High-water mark of the overflow heap."},
    {"max_bucket_depth", Max, &EventQueuePerf::maxBucketDepth,
     "Deepest same-tick FIFO bucket observed."},
    {"pool_high_water", Max, &EventQueuePerf::poolHighWater,
     "OwnedEvent pool slots allocated (the pool never shrinks)."},
    {"pool_refills", Sum, &EventQueuePerf::poolRefills,
     "One-shot event schedules that grew the pool."},
    {"pool_reuses", Sum, &EventQueuePerf::poolReuses,
     "One-shot event schedules served from the free list."},
    {"wheel_occupancy", Hist, &EventQueuePerf::wheelOccupancy,
     "Interval-sampled calendar-wheel occupancy (entries)."},
    {"overflow_occupancy", Hist, &EventQueuePerf::overflowOccupancy,
     "Interval-sampled overflow-heap occupancy (entries)."},
};

constexpr Row<FlatTablePerf> kFlatTableRows[] = {
    {"probe_length", Hist, &FlatTablePerf::probeLength,
     "FlatMap slots touched per probe (1 = home-slot hit)."},
    {"growth_rehashes", Sum, &FlatTablePerf::growthRehashes,
     "FlatMap capacity-doubling rehashes."},
    {"tombstone_cleanups", Sum, &FlatTablePerf::tombstoneCleanups,
     "FlatMap same-capacity tombstone-cleanup rehashes."},
    {"max_entries", Max, &FlatTablePerf::maxEntries,
     "High-water mark of FlatMap live entries."},
    {"occupancy", Hist, &FlatTablePerf::occupancy,
     "Interval-sampled FlatMap live-entry occupancy."},
    // Sizes add: the aggregate of several tables (or several runs'
    // copies of one table) reports combined footprint, and the load
    // factor stays a true entries/slots ratio.
    {"size", Sum, &FlatTablePerf::endSize, nullptr},
    {"capacity", Sum, &FlatTablePerf::endCapacity, nullptr},
    {"load_factor", Derived, &FlatTablePerf::loadFactor,
     "End-of-run FlatMap entries/slots ratio."},
};

constexpr Row<MeshPerf> kMeshRows[] = {
    {"send_backlog", Hist, &MeshPerf::sendBacklog,
     "Cycles each mesh hop waited behind a busy link."},
    {"leg_length", Hist, &MeshPerf::legLength,
     "Hops walked per XY mesh leg."},
};

} // namespace

std::span<const Row<EventQueuePerf>>
EventQueuePerf::rows()
{
    return kEventQueueRows;
}

double
FlatTablePerf::loadFactor() const
{
    if (endCapacity == 0)
        return 0.0;
    return static_cast<double>(endSize) / static_cast<double>(endCapacity);
}

std::span<const Row<FlatTablePerf>>
FlatTablePerf::rows()
{
    return kFlatTableRows;
}

std::span<const Row<MeshPerf>>
MeshPerf::rows()
{
    return kMeshRows;
}

void
PerfMon::merge(const PerfMon &other)
{
    enabled = enabled || other.enabled;
    mergeRows(eventQueue, other.eventQueue);
    for (const auto &[name, table] : kPerfTables)
        mergeRows(this->*table, other.*table);
    mergeRows(mesh, other.mesh);
}

void
PerfMon::writeJson(JsonWriter &json) const
{
    json.beginObject();
    json.key("event_queue");
    writeRows(json, eventQueue);
    json.key("tables").beginObject();
    for (const auto &[name, table] : kPerfTables) {
        json.key(name);
        writeRows(json, this->*table);
    }
    json.endObject();
    json.key("mesh");
    writeRows(json, mesh);
    json.endObject();
}

} // namespace vsnoop
