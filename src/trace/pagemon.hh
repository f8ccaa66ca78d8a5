/**
 * @file
 * Page-level snoop forensics (pagemon): per-host-page attribution
 * of coherence activity plus sharing-lifecycle tracking.
 *
 * The aggregate counters (CoherenceStats, the PR 5 interference
 * matrices) say *how many* snoops were filtered or crossed VMs;
 * they cannot say *which pages* caused them, nor how a page's
 * sharing classification evolved to get there — and the paper's
 * whole filtering argument (Sections IV and VI: VM-private vs
 * RW-shared vs RO-shared, COW breaks, content-scan remaps) is a
 * per-page story.  PageMon closes that gap:
 *
 *  - Per-page counters (snoop lookups charged, misses, cross-VM
 *    deliveries, per-FilterReason and per-requester-VM breakdowns,
 *    distinct-sharer census) live in a bounded heavy-hitter table:
 *    a Space-Saving-style top-K over a FlatMap.  When the table is
 *    full the minimum-lookup cell is evicted and *all* of its
 *    counts fold into a truncated remainder, so the mass identity
 *
 *        sum(tracked lookups) + truncatedLookups == lookups charged
 *
 *    holds exactly at every instant — which is what lets the top-K
 *    total reconcile with CoherenceStats::snoopLookups and the
 *    interference-matrix grand total (asserted in snapshot()).
 *    The classic Space-Saving count-inheritance variant
 *    over-estimates newcomers and would break that identity.
 *
 *  - Page-lifecycle events from the hypervisor
 *    (virt/page_event.hh) are counted and, when a TraceSink is
 *    attached, emitted as timestamped records (TraceEventKind::
 *    Page*) so a page's classification history replays in Perfetto.
 *
 *  - Watchpoints (--watch-page) promote every coherence transaction
 *    touching a matched host page to full lifecycle tracing:
 *    CoherenceSystem::traceFor() consults watches() and suppresses
 *    transaction records for unmatched lines while the watch set is
 *    non-empty.
 *
 * Charging follows the branch-on-null convention: CoherenceSystem
 * holds a nullable PageMon pointer, so runs without --pages stay
 * byte-identical.  Lookups arrive through lookup() from the two
 * sites that increment stats.snoopLookups and charge
 * CritPathAccountant: CoherenceSystem::chargeLookup() for the
 * requester's own tag check and CoherenceSystem::sendSnoops() for
 * each remote delivery (memory snoops excluded), so the page totals,
 * the counter and the interference matrix see the same lookups with
 * the same holder VM.  resetStats() runs
 * inside CoherenceSystem::resetStats() so warmup resets drop every
 * side of the reconciliation at once.  One PageMon per SimSystem
 * (one-system-per-thread contract).
 */

#ifndef VSNOOP_TRACE_PAGEMON_HH_
#define VSNOOP_TRACE_PAGEMON_HH_

#include <cstdint>
#include <span>
#include <vector>

#include "coherence/protocol.hh"
#include "sim/flat_table.hh"
#include "sim/row_table.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "virt/page_event.hh"

namespace vsnoop
{

class EventQueue;
class TraceSink;

/**
 * One tracked page's counters.  byVm has numVms + 1 rows (host
 * last), indexed by the *requesting* VM of each charged lookup.
 */
struct PageCell
{
    /** Host page number. */
    std::uint64_t pageNum = 0;
    /** Snoop lookups charged (the reconciliation/rank key). */
    std::uint64_t lookups = 0;
    /** Transactions that missed to this page (own tag checks). */
    std::uint64_t misses = 0;
    /** Remote deliveries landing outside the requester's VM. */
    std::uint64_t crossVm = 0;
    /** First-attempt policy decisions (VirtualSnoop only). */
    std::uint64_t filtered = 0;
    std::uint64_t broadcast = 0;
    /** Snoop attempts by FilterReason (every attempt). */
    std::uint64_t byReason[kNumFilterReasons] = {};
    /** Charged lookups by requesting VM; row vmRows-1 is the host. */
    std::vector<std::uint64_t> byVm;
    /** Bitmask of VMs seen mapping the page (lifecycle events). */
    std::uint32_t sharerMask = 0;
    /** Sharing type after the last lifecycle event seen. */
    PageType lastType = PageType::VmPrivate;
};

/**
 * End-of-run copy of the attribution, embedded in SystemResults.
 * `cells` is sorted (lookups descending, page number ascending) so
 * JSON emission is byte-identical across --jobs values.
 */
struct PagesSnapshot
{
    bool enabled = false;
    /** Configured heavy-hitter capacity. */
    std::uint32_t topK = 0;
    /** byVm rows per cell: numVms + 1 (host last). */
    std::uint32_t vmRows = 0;
    std::vector<PageCell> cells;
    /** Lookups folded into the remainder by evictions. */
    std::uint64_t truncatedLookups = 0;
    /** Evictions folded (a page re-entering counts again). */
    std::uint64_t truncatedPages = 0;
    /** All lookups charged: sum(cells) + truncatedLookups. */
    std::uint64_t totalLookups = 0;
    /** All remote deliveries outside the requester's VM, evicted
     *  cells' included (telemetry only; not in run JSON). */
    std::uint64_t crossVmLookups = 0;
    /** @{ Lifecycle transition counts (virt/page_event.hh kinds). */
    std::uint64_t mapEvents = 0;
    std::uint64_t unmapEvents = 0;
    std::uint64_t typeChanges = 0;
    std::uint64_t cowBreaks = 0;
    std::uint64_t remaps = 0;
    /** @} */
    /** Distinct mapped host pages by current type (filled by
     *  SimSystem::results() from the hypervisor's tables). */
    std::uint64_t censusByType[kNumPageTypes] = {};
};

/**
 * The live monitor, owned by SimSystem, attached to CoherenceSystem
 * and the Hypervisor behind branch-on-null pointers.
 */
class PageMon : public PageEventListener
{
  public:
    /**
     * @param num_vms Guest VMs; byVm rows get one extra host row.
     * @param top_k Heavy-hitter capacity (>= 1).
     */
    PageMon(std::uint32_t num_vms, std::uint32_t top_k);

    /** Tick source for lifecycle record timestamps (may be null:
     *  events then stamp tick 0, e.g. during system build). */
    void setClock(const EventQueue *eq) { clock_ = eq; }

    /** Lifecycle-record destination (nullable, branch-on-null). */
    void setTrace(TraceSink *sink) { trace_ = sink; }

    /**
     * One snoop lookup of @p line that @p requester induced on a core
     * running @p holder (CoherenceSystem::chargeLookup() and
     * sendSnoops()).  @p miss marks the requester's own tag check on
     * a miss; a lookup with holder != requester counts as cross-VM.
     */
    void lookup(HostAddr line, VmId requester, VmId holder, bool miss);

    /** One snoop attempt's filter reasoning (coherence/controller). */
    void filterReasonCharge(HostAddr line, FilterReason reason);

    /** VirtualSnoop first-attempt decision (core/vsnoop). */
    void policyDecision(HostAddr line, bool filtered);

    /** PageEventListener: count, census, trace record. */
    void onPageEvent(const PageEvent &event) override;

    /** @{ Watchpoints. */
    void addWatch(std::uint64_t host_page);
    /** True when the watch set is non-empty (trace filtering on). */
    bool watchActive() const { return !watchPages_.empty(); }
    /** True when @p addr falls on a watched page. */
    bool watches(HostAddr addr) const;
    /** @} */

    /** Zero all attribution (warmup boundary; called from
     *  CoherenceSystem::resetStats()).  The watch set stays. */
    void resetStats();

    /** Copy out the attribution, sorted for deterministic output.
     *  Asserts the mass identity (see file comment). */
    PagesSnapshot snapshot() const;

    std::uint32_t topK() const { return topK_; }
    std::uint32_t vmRows() const { return vmRows_; }

    /** @{ Registry-facing totals (SimSystem::registerStats). */
    /** Lookups charged to pages (== stats.snoopLookups). */
    Counter lookupsCharged;
    /** Remote deliveries outside the requester's VM. */
    Counter crossVmLookups;
    /** Lookups folded into the truncated remainder. */
    Counter truncatedLookups;
    /** Lifecycle events seen, by kind. */
    Counter eventsByKind[kNumPageEventKinds];
    /** @} */

  private:
    /** Cell for @p page, evicting the min cell when full. */
    PageCell &cellFor(std::uint64_t page);

    std::uint32_t vmRows_;
    std::uint32_t topK_;
    const EventQueue *clock_ = nullptr;
    TraceSink *trace_ = nullptr;
    FlatMap<PageCell> cells_;
    std::uint64_t truncatedPages_ = 0;
    std::vector<std::uint64_t> watchPages_;
};

/**
 * The pages aggregates live telemetry folds over finished runs
 * (vsnoop_pages_* series via RunTotals, system/run_totals.hh),
 * declared as a row table (sim/row_table.hh).
 */
struct PagesTotals
{
    /** Runs folded in (1 for one run's totals). */
    std::uint64_t runs = 0;
    std::uint64_t lookups = 0;
    std::uint64_t truncatedLookups = 0;
    std::uint64_t crossVmLookups = 0;
    std::uint64_t cowBreaks = 0;
    std::uint64_t remaps = 0;
    std::uint64_t typeChanges = 0;
    std::uint64_t mapEvents = 0;
    /** The hottest page's lookups (max over runs). */
    std::uint64_t hottestLookups = 0;

    PagesTotals() = default;
    /** One run's totals. */
    explicit PagesTotals(const PagesSnapshot &pages);

    static std::span<const Row<PagesTotals>> rows();
};

} // namespace vsnoop

#endif // VSNOOP_TRACE_PAGEMON_HH_
