#include "trace/pagemon.hh"

#include <algorithm>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace vsnoop
{

namespace
{

TraceEventKind
traceKindFor(PageEventKind kind)
{
    switch (kind) {
      case PageEventKind::Map: return TraceEventKind::PageMap;
      case PageEventKind::Unmap: return TraceEventKind::PageUnmap;
      case PageEventKind::TypeChange:
        return TraceEventKind::PageTypeChange;
      case PageEventKind::CowBreak: return TraceEventKind::PageCow;
      case PageEventKind::Remap: return TraceEventKind::PageRemap;
    }
    vsnoop_panic("unknown PageEventKind ", static_cast<int>(kind));
}

} // namespace

PageMon::PageMon(std::uint32_t num_vms, std::uint32_t top_k)
    : vmRows_(num_vms + 1), topK_(top_k)
{
    vsnoop_assert(topK_ >= 1, "pagemon top-K must be positive");
    // Steady state holds exactly topK_ cells; reserving double keeps
    // the probe chains short and avoids rehash churn at the cap.
    cells_.reserve(static_cast<std::size_t>(topK_) * 2);
}

PageCell &
PageMon::cellFor(std::uint64_t page)
{
    if (PageCell *cell = cells_.find(page))
        return *cell;
    if (cells_.size() >= topK_) {
        // Evict-to-remainder: fold the coldest cell's entire mass
        // into the truncated aggregate so the lookup-sum identity
        // survives the eviction exactly.  Deterministic tie-break:
        // fewest lookups, then the highest page number goes.
        bool have = false;
        std::uint64_t victim = 0;
        std::uint64_t victim_lookups = 0;
        cells_.forEach([&](std::uint64_t p, const PageCell &c) {
            if (!have || c.lookups < victim_lookups ||
                (c.lookups == victim_lookups && p > victim)) {
                have = true;
                victim = p;
                victim_lookups = c.lookups;
            }
        });
        truncatedLookups.inc(victim_lookups);
        truncatedPages_++;
        cells_.erase(victim);
    }
    PageCell &cell = cells_.getOrInsert(page);
    cell.pageNum = page;
    cell.byVm.assign(vmRows_, 0);
    return cell;
}

void
PageMon::lookup(HostAddr line, VmId requester, VmId holder, bool miss)
{
    PageCell &cell = cellFor(line.pageNum());
    cell.lookups++;
    if (miss)
        cell.misses++;
    cell.byVm[requester < vmRows_ - 1 ? requester : vmRows_ - 1]++;
    lookupsCharged.inc();
    if (holder != requester) {
        cell.crossVm++;
        crossVmLookups.inc();
    }
}

void
PageMon::filterReasonCharge(HostAddr line, FilterReason reason)
{
    cellFor(line.pageNum())
        .byReason[static_cast<std::size_t>(reason)]++;
}

void
PageMon::policyDecision(HostAddr line, bool filtered)
{
    PageCell &cell = cellFor(line.pageNum());
    if (filtered)
        cell.filtered++;
    else
        cell.broadcast++;
}

void
PageMon::onPageEvent(const PageEvent &event)
{
    eventsByKind[static_cast<std::size_t>(event.kind)].inc();
    // Census on tracked cells only: the event stream updates sharing
    // info for pages already hot enough to hold a cell, without
    // letting cold pages grow the bounded table.
    if (PageCell *cell = cells_.find(event.hostPage)) {
        if (event.vm != kInvalidVm && event.vm < 32)
            cell->sharerMask |= 1u << event.vm;
        cell->lastType = event.type;
    }
    if (trace_ != nullptr) {
        TraceRecord r;
        r.tick = clock_ != nullptr ? clock_->now() : 0;
        r.kind = traceKindFor(event.kind);
        r.vm = event.vm;
        r.line = event.hostPage << (kPageShift - kLineShift);
        r.value = event.guestPage;
        r.targets = event.prevHostPage;
        r.pageType = event.type;
        r.tokens = static_cast<std::uint32_t>(event.prevType);
        trace_->record(r);
    }
}

void
PageMon::addWatch(std::uint64_t host_page)
{
    if (std::find(watchPages_.begin(), watchPages_.end(), host_page) ==
        watchPages_.end()) {
        watchPages_.push_back(host_page);
    }
}

bool
PageMon::watches(HostAddr addr) const
{
    // Watch sets are a handful of pages; a linear scan beats any
    // hashed structure on the per-record path.
    std::uint64_t page = addr.pageNum();
    return std::find(watchPages_.begin(), watchPages_.end(), page) !=
           watchPages_.end();
}

void
PageMon::resetStats()
{
    cells_ = FlatMap<PageCell>{};
    cells_.reserve(static_cast<std::size_t>(topK_) * 2);
    truncatedPages_ = 0;
    lookupsCharged.reset();
    crossVmLookups.reset();
    truncatedLookups.reset();
    for (auto &counter : eventsByKind)
        counter.reset();
}

PagesSnapshot
PageMon::snapshot() const
{
    PagesSnapshot s;
    s.enabled = true;
    s.topK = topK_;
    s.vmRows = vmRows_;
    s.cells.reserve(cells_.size());
    cells_.forEach([&s](std::uint64_t, const PageCell &cell) {
        s.cells.push_back(cell);
    });
    // Hottest first; page number breaks ties so the order (and the
    // JSON bytes downstream) never depends on table iteration order.
    std::sort(s.cells.begin(), s.cells.end(),
              [](const PageCell &a, const PageCell &b) {
                  if (a.lookups != b.lookups)
                      return a.lookups > b.lookups;
                  return a.pageNum < b.pageNum;
              });
    s.truncatedLookups = truncatedLookups.value();
    s.truncatedPages = truncatedPages_;
    s.totalLookups = lookupsCharged.value();
    s.crossVmLookups = crossVmLookups.value();
    std::uint64_t tracked = 0;
    for (const PageCell &cell : s.cells)
        tracked += cell.lookups;
    vsnoop_assert(tracked + s.truncatedLookups == s.totalLookups,
                  "pagemon mass leak: tracked ", tracked,
                  " + truncated ", s.truncatedLookups, " != charged ",
                  s.totalLookups);
    s.mapEvents =
        eventsByKind[static_cast<std::size_t>(PageEventKind::Map)]
            .value();
    s.unmapEvents =
        eventsByKind[static_cast<std::size_t>(PageEventKind::Unmap)]
            .value();
    s.typeChanges =
        eventsByKind[static_cast<std::size_t>(PageEventKind::TypeChange)]
            .value();
    s.cowBreaks =
        eventsByKind[static_cast<std::size_t>(PageEventKind::CowBreak)]
            .value();
    s.remaps =
        eventsByKind[static_cast<std::size_t>(PageEventKind::Remap)]
            .value();
    return s;
}

namespace
{

using enum RowRule;

constexpr Row<PagesTotals> kPagesRows[] = {
    {"runs", Sum, &PagesTotals::runs,
     "Runs whose pagemon snapshot was aggregated."},
    {"lookups", Sum, &PagesTotals::lookups,
     "Snoop lookups charged to pages across finished runs."},
    {"truncated_lookups", Sum, &PagesTotals::truncatedLookups,
     "Lookups folded into the top-K truncated remainder."},
    {"cross_vm_lookups", Sum, &PagesTotals::crossVmLookups,
     "Snoop deliveries landing outside the requester's VM."},
    {"cow_breaks", Sum, &PagesTotals::cowBreaks,
     "Copy-on-write breaks observed by pagemon."},
    {"remaps", Sum, &PagesTotals::remaps,
     "Content-scan relocation remaps observed by pagemon."},
    {"type_changes", Sum, &PagesTotals::typeChanges,
     "Sharing-type transitions observed by pagemon."},
    {"map_events", Sum, &PagesTotals::mapEvents,
     "Page map events observed by pagemon."},
    {"hottest_lookups", Max, &PagesTotals::hottestLookups,
     "Max over runs of the hottest page's snoop lookups."},
};

} // namespace

PagesTotals::PagesTotals(const PagesSnapshot &pages)
    : runs(1), lookups(pages.totalLookups),
      truncatedLookups(pages.truncatedLookups),
      crossVmLookups(pages.crossVmLookups), cowBreaks(pages.cowBreaks),
      remaps(pages.remaps), typeChanges(pages.typeChanges),
      mapEvents(pages.mapEvents),
      hottestLookups(pages.cells.empty() ? 0 : pages.cells.front().lookups)
{
}

std::span<const Row<PagesTotals>>
PagesTotals::rows()
{
    return kPagesRows;
}

} // namespace vsnoop
