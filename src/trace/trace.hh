/**
 * @file
 * Transaction tracing: bounded-ring-buffer capture of the coherence
 * transaction lifecycle.
 *
 * Every number the evaluation reports (Figures 6-10, Tables IV-VI)
 * is an end-of-run aggregate; when a snoop-reduction figure
 * deviates from the paper the aggregates cannot say *which*
 * transactions broadcast instead of multicast, or *when* a vCPU
 * map shrank after a migration.  TraceSink records the per-event
 * story: request issue, the policy's filter decision (destination
 * set + reason), retries, token collection, completion, and vCPU
 * map changes — each as one compact fixed-size record.
 *
 * Cost model: producers hold a nullable TraceSink pointer and emit
 * records behind a branch-on-null, so a build with tracing off pays
 * one pointer test per hook and nothing else.  Storage is a bounded
 * ring: once `capacity` records are held the oldest are overwritten
 * (the tail of a run is usually the interesting part) and the drop
 * count is reported, so tracing never grows without bound.
 *
 * The records reference only header-only protocol types
 * (coherence/protocol.hh); this library links against vsnoop_sim
 * alone, which lets the coherence library depend on it without a
 * cycle.
 */

#ifndef VSNOOP_TRACE_TRACE_HH_
#define VSNOOP_TRACE_TRACE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/protocol.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace vsnoop
{

/** What a trace record describes. */
enum class TraceEventKind : std::uint8_t
{
    /** A demand miss entered the coherence layer (MSHR allocated). */
    RequestIssue,
    /**
     * The snoop-target policy chose a destination set for one
     * attempt: the target CoreSet, whether memory is snooped, and
     * the reason (see FilterReason).  Doubles as the fan-out
     * record: the target mask's popcount is the snoop fan-out.
     */
    FilterDecision,
    /** A transient attempt timed out and will retry wider. */
    Retry,
    /** Transient attempts exhausted; escalated to persistent mode. */
    PersistentEscalation,
    /** A token/data response was folded into the MSHR. */
    TokenCollect,
    /** The transaction globally performed. */
    Completion,
    /** A core was added to a VM's vCPU map. */
    MapAdd,
    /** A core was removed from a VM's vCPU map. */
    MapRemove,
    /**
     * @{ Page-lifecycle records (virt/page_event.hh, emitted by
     * trace/pagemon.hh).  `vm` is the owning VM, `line` the first
     * line of the host page, `value` the guest page number,
     * `targets` the previous host page (cow/remap), `pageType` the
     * sharing type after the event and `tokens` the type before it.
     */
    /** A page got its first host mapping. */
    PageMap,
    /** A mapping was removed. */
    PageUnmap,
    /** Only the sharing type changed (same host page). */
    PageTypeChange,
    /** A copy-on-write break gave the writer a private copy. */
    PageCow,
    /** The content scan merged the page onto a canonical copy. */
    PageRemap,
    /** @} */
};

/** Number of TraceEventKind values. */
constexpr std::size_t kNumTraceEventKinds = 13;

/** Short machine name ("issue", "filter", ...). */
const char *traceEventKindName(TraceEventKind kind);

/** Machine name of a FilterReason ("vm-private", "ro-shared", ...). */
const char *filterReasonName(FilterReason reason);

/** Machine name of a DataSource ("cache_intra_vm", ...). */
const char *dataSourceName(DataSource source);

/**
 * One trace record.  A single flat struct holds the union of all
 * event kinds' fields; unused fields keep their defaults.  At 64
 * bytes a 1M-record ring costs 64 MB, which is why the buffer is
 * bounded.
 */
struct TraceRecord
{
    /** Tick the event happened at. */
    Tick tick = 0;
    TraceEventKind kind = TraceEventKind::RequestIssue;
    /** GetS / GetX (transaction-lifecycle events). */
    SnoopKind snoopKind = SnoopKind::GetS;
    /** Policy reasoning behind a FilterDecision. */
    FilterReason reason = FilterReason::Baseline;
    PageType pageType = PageType::VmPrivate;
    /** Data origin (TokenCollect with data / Completion). */
    DataSource dataSource = DataSource::Memory;
    /** 1-based transient attempt number. */
    std::uint8_t attempt = 0;
    /** Destination set reached every other core (FilterDecision). */
    bool broadcast = false;
    /** Memory controller was snooped (FilterDecision). */
    bool memory = false;
    /** Transaction was in persistent mode. */
    bool persistent = false;
    /** Response carried the owner token (TokenCollect). */
    bool owner = false;
    /** Requesting (or map-affected) core. */
    CoreId core = kInvalidCore;
    /** Requesting (or map-affected) VM. */
    VmId vm = kInvalidVm;
    /** Cache-line number (HostAddr >> kLineShift); 0 for Map*. */
    std::uint64_t line = 0;
    /** Target CoreSet mask (FilterDecision). */
    std::uint64_t targets = 0;
    /** Tokens carried (TokenCollect) / held after folding. */
    std::uint32_t tokens = 0;
    /**
     * Kind-specific scalar: completion latency in ticks
     * (Completion), or the residence count at the map change
     * (MapAdd/MapRemove).
     */
    std::uint64_t value = 0;
};

/**
 * Bounded ring buffer of TraceRecords.
 *
 * Not thread-safe: a sink belongs to one SimSystem and follows the
 * one-system-per-thread contract (system/sim_system.hh).
 */
class TraceSink
{
  public:
    /** @param capacity Maximum records retained (>= 1). */
    explicit TraceSink(std::size_t capacity);

    /** Append a record, overwriting the oldest when full. */
    void record(const TraceRecord &r);

    /** Records currently retained. */
    std::size_t size() const { return buffer_.size(); }

    /** Records ever recorded (retained + dropped). */
    std::uint64_t recorded() const { return recorded_; }

    /** Records overwritten because the ring was full. */
    std::uint64_t dropped() const { return recorded_ - buffer_.size(); }

    std::size_t capacity() const { return capacity_; }

    /** The @p i-th retained record in chronological order. */
    const TraceRecord &at(std::size_t i) const;

    /** Invoke @p fn for each retained record, oldest first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < buffer_.size(); ++i)
            fn(at(i));
    }

    /** Drop every record (the ring keeps its capacity). */
    void clear();

    /**
     * Register live-telemetry series for this sink's recorded,
     * dropped and retained counts under @p prefix (e.g.
     * "vsnoop_sim_").  Call before registry.freeze().  The sources
     * follow the sink's own threading contract: only the owning
     * simulation thread may publish, and the sink must outlive the
     * last publish().
     */
    void registerMetrics(MetricsRegistry &registry,
                         const std::string &prefix) const;

  private:
    std::size_t capacity_;
    /** Insertion slot once the ring has wrapped. */
    std::size_t head_ = 0;
    std::uint64_t recorded_ = 0;
    std::vector<TraceRecord> buffer_;
};

} // namespace vsnoop

#endif // VSNOOP_TRACE_TRACE_HH_
