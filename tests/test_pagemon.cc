/**
 * @file
 * Page-level snoop forensics (trace/pagemon.hh): the evict-to-
 * remainder heavy-hitter's mass identity, snapshot determinism, the
 * end-to-end reconciliation of per-page lookup totals against the
 * coherence counter and the interference matrix (warmup reset
 * included), lifecycle counting, watch-page trace filtering, and the
 * JSON surface.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/json.hh"
#include "sim/metrics.hh"
#include "system/run_result.hh"
#include "system/run_totals.hh"
#include "system/sim_system.hh"
#include "trace/pagemon.hh"
#include "trace/trace.hh"

namespace vsnoop::test
{

namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.accessesPerVcpu = 3000;
    cfg.l2.sizeBytes = 32 * 1024; // keep runs quick
    // In dispatched events; a snoop that misses dispatches none.
    cfg.invariantCheckPeriod = 50000;
    return cfg;
}

AppProfile
quickApp()
{
    AppProfile p = findApp("ferret");
    p.privatePagesPerVcpu = 96;
    return p;
}

HostAddr
pageAddr(std::uint64_t page)
{
    return HostAddr(page << kPageShift);
}

/** Tracked + truncated lookups of a snapshot. */
std::uint64_t
snapshotMass(const PagesSnapshot &pg)
{
    std::uint64_t sum = pg.truncatedLookups;
    for (const PageCell &cell : pg.cells)
        sum += cell.lookups;
    return sum;
}

} // namespace

// ---------------------------------------------------------------------
// Heavy-hitter unit behaviour
// ---------------------------------------------------------------------

TEST(PageMon, ChargesAndSnapshotsSorted)
{
    PageMon pm(2, 8);
    pm.lookup(pageAddr(5), 0, 0, true);
    pm.lookup(pageAddr(5), 1, 1, true);
    pm.lookup(pageAddr(5), 0, 0, true);
    pm.lookup(pageAddr(9), 1, 1, true);

    PagesSnapshot pg = pm.snapshot();
    ASSERT_EQ(pg.cells.size(), 2u);
    // Sorted: lookups descending, page number ascending.
    EXPECT_EQ(pg.cells[0].pageNum, 5u);
    EXPECT_EQ(pg.cells[0].lookups, 3u);
    EXPECT_EQ(pg.cells[0].misses, 3u);
    EXPECT_EQ(pg.cells[1].pageNum, 9u);
    EXPECT_EQ(pg.cells[1].lookups, 1u);
    EXPECT_EQ(pg.totalLookups, 4u);
    EXPECT_EQ(pg.truncatedLookups, 0u);
    // byVm rows: per requesting VM, host row last.
    ASSERT_EQ(pg.vmRows, 3u);
    EXPECT_EQ(pg.cells[0].byVm[0], 2u);
    EXPECT_EQ(pg.cells[0].byVm[1], 1u);
    EXPECT_EQ(pg.cells[0].byVm[2], 0u);
}

TEST(PageMon, EvictionFoldsWholeCellIntoRemainder)
{
    PageMon pm(1, 2);
    pm.lookup(pageAddr(10), 0, 0, true);
    pm.lookup(pageAddr(10), 0, 0, true);
    pm.lookup(pageAddr(10), 0, 0, true);
    pm.lookup(pageAddr(20), 0, 0, true);
    pm.lookup(pageAddr(20), 0, 0, true);
    // Table full; page 30 evicts the minimum cell (20, 2 lookups)
    // and starts fresh — no count inheritance.
    pm.lookup(pageAddr(30), 0, 0, true);

    PagesSnapshot pg = pm.snapshot();
    ASSERT_EQ(pg.cells.size(), 2u);
    EXPECT_EQ(pg.cells[0].pageNum, 10u);
    EXPECT_EQ(pg.cells[0].lookups, 3u);
    EXPECT_EQ(pg.cells[1].pageNum, 30u);
    EXPECT_EQ(pg.cells[1].lookups, 1u);
    EXPECT_EQ(pg.truncatedLookups, 2u);
    EXPECT_EQ(pg.truncatedPages, 1u);
    // The identity the JSON reconciliation rests on.
    EXPECT_EQ(pg.totalLookups, 6u);
    EXPECT_EQ(snapshotMass(pg), pg.totalLookups);
}

TEST(PageMon, EvictionTieBreaksOnHighestPageNumber)
{
    PageMon pm(1, 2);
    pm.lookup(pageAddr(100), 0, 0, true);
    pm.lookup(pageAddr(200), 0, 0, true);
    // Both cells hold one lookup; the higher page number (200) is
    // evicted so the choice is deterministic.
    pm.lookup(pageAddr(300), 0, 0, true);

    PagesSnapshot pg = pm.snapshot();
    std::vector<std::uint64_t> pages;
    for (const PageCell &cell : pg.cells)
        pages.push_back(cell.pageNum);
    EXPECT_EQ(pages, (std::vector<std::uint64_t>{100, 300}));
    EXPECT_EQ(pg.truncatedLookups, 1u);
    EXPECT_EQ(snapshotMass(pg), pg.totalLookups);
}

TEST(PageMon, ResetStatsDropsAttributionButKeepsWatches)
{
    PageMon pm(1, 4);
    pm.addWatch(7);
    pm.lookup(pageAddr(7), 0, 0, true);
    pm.onPageEvent({PageEventKind::CowBreak, 0, 1, 2, 3,
                    PageType::VmPrivate, PageType::RoShared});
    pm.resetStats();

    PagesSnapshot pg = pm.snapshot();
    EXPECT_TRUE(pg.cells.empty());
    EXPECT_EQ(pg.totalLookups, 0u);
    EXPECT_EQ(pg.cowBreaks, 0u);
    EXPECT_TRUE(pm.watchActive());
    EXPECT_TRUE(pm.watches(pageAddr(7)));
    EXPECT_FALSE(pm.watches(pageAddr(8)));
}

TEST(PageMon, LifecycleEventsCountAndAnnotateTrackedCells)
{
    PageMon pm(2, 4);
    pm.lookup(pageAddr(50), 0, 0, true);
    pm.onPageEvent({PageEventKind::Map, 0, 5, 50, 0,
                    PageType::VmPrivate, PageType::VmPrivate});
    pm.onPageEvent({PageEventKind::TypeChange, 1, 5, 50, 50,
                    PageType::RoShared, PageType::VmPrivate});
    // Events for untracked pages count globally but allocate no cell.
    pm.onPageEvent({PageEventKind::Unmap, 0, 9, 99, 0,
                    PageType::VmPrivate, PageType::VmPrivate});

    PagesSnapshot pg = pm.snapshot();
    EXPECT_EQ(pg.mapEvents, 1u);
    EXPECT_EQ(pg.typeChanges, 1u);
    EXPECT_EQ(pg.unmapEvents, 1u);
    ASSERT_EQ(pg.cells.size(), 1u);
    EXPECT_EQ(pg.cells[0].sharerMask, 0b11u);
    EXPECT_EQ(pg.cells[0].lastType, PageType::RoShared);
}

// ---------------------------------------------------------------------
// End-to-end reconciliation
// ---------------------------------------------------------------------

TEST(PageMonSystem, TotalsReconcileWithSnoopLookupsUnderWarmup)
{
    // The load-bearing identity: charged at the one site that
    // increments stats.snoopLookups and reset with it at the warmup
    // boundary, so the page attribution, the coherence counter, and
    // the interference matrix agree exactly.
    SystemConfig cfg = smallConfig();
    cfg.policy = PolicyKind::VirtualSnoop;
    cfg.warmupAccessesPerVcpu = 500;
    cfg.migrationPeriod = 30000;
    cfg.pages = true;
    cfg.pagesTop = 32;
    SimSystem sys(cfg, quickApp());
    sys.run();
    SystemResults r = sys.results();

    ASSERT_TRUE(r.pages.enabled);
    EXPECT_EQ(r.pages.topK, 32u);
    EXPECT_GT(r.pages.totalLookups, 0u);
    EXPECT_EQ(snapshotMass(r.pages), r.pages.totalLookups);
    EXPECT_EQ(r.pages.totalLookups, r.snoopLookups);
    EXPECT_EQ(r.pages.totalLookups,
              r.interference.total(r.interference.snoopLookups));
    // Both read the snooped core's VM at the one charge site, so the
    // cross-VM lookups are exactly the matrix's off-diagonal.
    EXPECT_EQ(r.pages.crossVmLookups,
              r.interference.offDiagonal(r.interference.snoopLookups));

    // Per-cell breakdowns re-sum to the cell's lookups charge.
    for (const PageCell &cell : r.pages.cells) {
        std::uint64_t by_vm = 0;
        for (std::uint64_t v : cell.byVm)
            by_vm += v;
        EXPECT_EQ(by_vm, cell.lookups) << "page " << cell.pageNum;
    }

    // A bounded table on a working set larger than K must have
    // folded something, and the census sees the app's pages.
    EXPECT_LE(r.pages.cells.size(), 32u);
    std::uint64_t census = 0;
    for (std::size_t t = 0; t < kNumPageTypes; ++t)
        census += r.pages.censusByType[t];
    EXPECT_GT(census, 0u);
}

TEST(PageMonSystem, CrossVmTotalSurvivesTopKEviction)
{
    // With one tracked page nearly every cross-VM delivery lands in
    // a cell that is later evicted; the run totals must still count
    // all of them, like PageMon's own counter.
    SystemConfig cfg = smallConfig();
    cfg.policy = PolicyKind::VirtualSnoop;
    cfg.migrationPeriod = 30000;
    cfg.pages = true;
    cfg.pagesTop = 1;
    SimSystem sys(cfg, quickApp());
    sys.run();
    SystemResults r = sys.results();
    const std::uint64_t cross_vm = sys.pagemon()->crossVmLookups.value();
    std::uint64_t tracked = 0;
    for (const PageCell &cell : r.pages.cells)
        tracked += cell.crossVm;
    ASSERT_GT(r.pages.truncatedLookups, 0u);
    ASSERT_LT(tracked, cross_vm);
    EXPECT_EQ(r.pages.crossVmLookups, cross_vm);

    MetricsRegistry registry;
    RunTotals totals;
    totals.registerMetrics(registry, false, true);
    registry.freeze();
    totals.add(r);
    registry.publish();
    const std::string name = "vsnoop_pages_cross_vm_lookups_total ";
    std::string text = registry.renderPrometheus();
    std::size_t at = text.find("\n" + name);
    ASSERT_NE(at, std::string::npos) << text;
    EXPECT_EQ(std::stod(text.substr(at + 1 + name.size())),
              static_cast<double>(cross_vm));
}

TEST(PageMonSystem, DisabledMonitorLeavesResultsEmpty)
{
    SystemConfig cfg = smallConfig();
    SimSystem sys(cfg, quickApp());
    sys.run();
    SystemResults r = sys.results();
    EXPECT_FALSE(r.pages.enabled);
    EXPECT_TRUE(r.pages.cells.empty());
}

TEST(PageMonSystem, WatchPageFiltersTransactionTrace)
{
    // Two identical runs, one watching a single hot page: the
    // watched run's sink must contain only transaction records for
    // that page (plus lifecycle/map records, which are unfiltered).
    SystemConfig base = smallConfig();
    base.captureTrace = true;
    SimSystem plain(base, quickApp());
    plain.run();
    const TraceSink *all = plain.trace();
    ASSERT_NE(all, nullptr);
    ASSERT_GT(all->size(), 0u);

    // Pick the hottest page from a pages run so the watch matches
    // real traffic.
    SystemConfig probe_cfg = smallConfig();
    probe_cfg.pages = true;
    SimSystem probe(probe_cfg, quickApp());
    probe.run();
    ASSERT_FALSE(probe.results().pages.cells.empty());
    std::uint64_t hot = probe.results().pages.cells[0].pageNum;

    SystemConfig cfg = smallConfig();
    cfg.watchPages.push_back(hot);
    SimSystem sys(cfg, quickApp());
    sys.run();
    const TraceSink *sink = sys.trace();
    ASSERT_NE(sink, nullptr);

    std::size_t tx_records = 0;
    sink->forEach([&](const TraceRecord &rec) {
        switch (rec.kind) {
          case TraceEventKind::RequestIssue:
          case TraceEventKind::FilterDecision:
          case TraceEventKind::Retry:
          case TraceEventKind::PersistentEscalation:
          case TraceEventKind::TokenCollect:
          case TraceEventKind::Completion:
            tx_records++;
            EXPECT_EQ(rec.line >> (kPageShift - kLineShift), hot);
            break;
          default:
            break;
        }
    });
    // The watched page is hot, so transactions were recorded — but
    // far fewer than the unfiltered run retained.
    EXPECT_GT(tx_records, 0u);
    EXPECT_LT(tx_records, all->size());
}

// ---------------------------------------------------------------------
// JSON surface
// ---------------------------------------------------------------------

TEST(PageMonSystem, RunJsonCarriesPagesBlock)
{
    SystemConfig cfg = smallConfig();
    cfg.policy = PolicyKind::VirtualSnoop;
    cfg.pages = true;
    cfg.pagesTop = 16;
    RunResult run = collectRun(cfg, quickApp());

    std::optional<JsonValue> doc = parseJson(run.toJson());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *config = doc->find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_EQ(config->numberAt("pages_top"), 16.0);

    const JsonValue *results = doc->find("results");
    ASSERT_NE(results, nullptr);
    const JsonValue *pages = results->find("pages");
    ASSERT_NE(pages, nullptr);
    EXPECT_EQ(pages->numberAt("top_k"), 16.0);

    // The emitted top array reconciles with snoop_lookups.
    const JsonValue *top = pages->find("top");
    ASSERT_NE(top, nullptr);
    double sum = pages->numberAt("truncated_lookups");
    for (const JsonValue &cell : top->items())
        sum += cell.numberAt("lookups");
    EXPECT_EQ(sum, results->numberAt("snoop_lookups"));
    EXPECT_EQ(sum, pages->numberAt("total_lookups"));

    // Cells arrive sorted for byte-stable output.
    double prev = -1.0;
    bool first = true;
    for (const JsonValue &cell : top->items()) {
        double lookups = cell.numberAt("lookups");
        if (!first) {
            EXPECT_LE(lookups, prev);
        }
        prev = lookups;
        first = false;
    }
}

TEST(PageMonSystem, PagesOffJsonHasNoPagesKeys)
{
    SystemConfig cfg = smallConfig();
    RunResult run = collectRun(cfg, quickApp());
    std::string json = run.toJson();
    EXPECT_EQ(json.find("\"pages\""), std::string::npos);
    EXPECT_EQ(json.find("\"watch_pages\""), std::string::npos);
}

} // namespace vsnoop::test
