/**
 * @file
 * Critical-path attribution and inter-VM interference accounting
 * (trace/critpath.hh): accountant unit behaviour, the end-to-end
 * conservation invariant, matrix reconciliation against the
 * coherence counters, the isolation A/B the paper argues for, and
 * the JSON surface the report tooling consumes.
 */

#include <gtest/gtest.h>

#include "sim/json.hh"
#include "system/run_result.hh"
#include "system/sim_system.hh"
#include "trace/critpath.hh"

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

/** Queue-wait cycles the mesh links recorded, over all links. */
std::uint64_t
linkWaitSum(const SystemResults &r)
{
    std::uint64_t sum = 0;
    for (const LinkStat &link : r.links)
        sum += link.waitCycles;
    return sum;
}

/** Queue-wait cycles the accountant charged, over all classes. */
std::uint64_t
nocWaitSum(const SystemResults &r)
{
    std::uint64_t sum = 0;
    for (std::uint64_t wait : r.critpath.nocWaitCycles)
        sum += wait;
    return sum;
}

/** Sum one segment's total across all byReason cells. */
std::uint64_t
segmentSum(const CritPathSnapshot &cp, std::size_t seg)
{
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < kNumFilterReasons; ++r)
        sum += cp.byReason[seg][r].sum;
    return sum;
}

} // namespace

// ---------------------------------------------------------------------
// Accountant unit behaviour
// ---------------------------------------------------------------------

TEST(CritPathAccountant, MatrixIndexingAndHostRow)
{
    CritPathAccountant acct(4, 3);
    EXPECT_EQ(acct.dim(), 5u);

    acct.lookup(2, 2);          // own tag check: diagonal [2][2]
    acct.lookup(1, 3);          // [1][3]
    acct.lookup(1, kInvalidVm); // idle core -> host column [1][4]
    // Hypervisor requester -> host row.
    acct.lookup(kInvalidVm, 0); // [4][0]

    EXPECT_EQ(acct.lookupAt(2, 2), 1u);
    EXPECT_EQ(acct.lookupAt(1, 3), 1u);
    EXPECT_EQ(acct.lookupAt(1, 4), 1u);
    EXPECT_EQ(acct.lookupAt(4, 0), 1u);
    EXPECT_EQ(acct.lookupsTotal.value(), 4u);
    EXPECT_EQ(acct.lookupsOffDiag.value(), 3u);

    InterferenceSnapshot in = acct.interferenceSnapshot();
    EXPECT_EQ(in.dim, 5u);
    EXPECT_EQ(in.total(in.snoopLookups), 4u);
    EXPECT_EQ(in.offDiagonal(in.snoopLookups), 3u);
    EXPECT_DOUBLE_EQ(in.offDiagLookupShare(), 0.75);
    // Every lookup occupies the configured tag-port cycles.
    EXPECT_EQ(in.total(in.tagBusyCycles), 4u * 3u);
}

TEST(CritPathAccountant, MulticastLookupsEqualOneLookupPerTarget)
{
    // A multicast charges its targets in one call; the matrix, the
    // totals and the tag-busy cycles must equal one lookup() per
    // target, with the holder read from the core->VM table (every
    // core idle without one).
    const VmId core_vm[8] = {0, 0, 1, 1, 2, kInvalidVm, 3, 9};
    const CoreSet targets = CoreSet::fromMask(0b11011110);
    for (const VmId *table : {core_vm, static_cast<const VmId *>(nullptr)}) {
        CritPathAccountant bulk(4, 3), single(4, 3);
        bulk.lookups(1, targets, table);
        targets.forEach([&](CoreId core) {
            single.lookup(1, table != nullptr ? table[core] : kInvalidVm);
        });
        EXPECT_EQ(bulk.lookupsTotal.value(), single.lookupsTotal.value());
        EXPECT_EQ(bulk.lookupsOffDiag.value(),
                  single.lookupsOffDiag.value());
        InterferenceSnapshot a = bulk.interferenceSnapshot();
        InterferenceSnapshot b = single.interferenceSnapshot();
        EXPECT_EQ(a.snoopLookups, b.snoopLookups);
        EXPECT_EQ(a.tagBusyCycles, b.tagBusyCycles);
    }
}

TEST(CritPathAccountant, BytesDeliveredAndReset)
{
    CritPathAccountant acct(2, 3);
    acct.bytesDelivered(0, 0, 64); // intra-VM
    acct.bytesDelivered(0, 1, 64); // cross-VM
    EXPECT_EQ(acct.bytesTotal.value(), 128u);
    EXPECT_EQ(acct.bytesOffDiag.value(), 64u);

    std::uint64_t seg[kNumCritSegments] = {};
    seg[0] = 10;
    seg[6] = 5;
    acct.recordTransaction(seg, 15, FilterReason::Baseline, 0);
    EXPECT_EQ(acct.transactions.value(), 1u);

    acct.resetStats();
    EXPECT_EQ(acct.transactions.value(), 0u);
    EXPECT_EQ(acct.bytesTotal.value(), 0u);
    EXPECT_EQ(acct.lookupsTotal.value(), 0u);
    InterferenceSnapshot in = acct.interferenceSnapshot();
    EXPECT_EQ(in.total(in.snoopLookups), 0u);
    EXPECT_EQ(in.total(in.bytesDelivered), 0u);
    CritPathSnapshot cp = acct.critSnapshot();
    for (std::size_t s = 0; s < kNumCritSegments; ++s)
        EXPECT_EQ(cp.segments[s].count(), 0u);
}

TEST(CritPathAccountant, RecordTransactionSplitsByReasonAndVm)
{
    CritPathAccountant acct(2, 3);
    std::uint64_t seg[kNumCritSegments] = {};
    seg[static_cast<std::size_t>(CritSegment::ReqTraversal)] = 7;
    seg[static_cast<std::size_t>(CritSegment::DataReturn)] = 3;
    acct.recordTransaction(seg, 10, FilterReason::VmPrivate, 1);
    acct.recordTransaction(seg, 10, FilterReason::VmPrivate, kInvalidVm);

    CritPathSnapshot cp = acct.critSnapshot();
    std::size_t req =
        static_cast<std::size_t>(CritSegment::ReqTraversal);
    std::size_t reason =
        static_cast<std::size_t>(FilterReason::VmPrivate);
    EXPECT_EQ(cp.byReason[req][reason].count, 2u);
    EXPECT_EQ(cp.byReason[req][reason].sum, 14u);
    ASSERT_EQ(cp.vmRows, 3u);
    EXPECT_EQ(cp.vmCell(req, 1).sum, 7u);
    // The hypervisor transaction lands in the host row.
    EXPECT_EQ(cp.vmCell(req, 2).sum, 7u);
    EXPECT_EQ(cp.segments[req].count(), 2u);
    EXPECT_EQ(cp.segments[req].sum(), 14u);
}

// ---------------------------------------------------------------------
// End-to-end invariants
// ---------------------------------------------------------------------

TEST(CritPathSystem, SegmentsConserveLatencyUnderRelocation)
{
    // The hardest configuration for the decomposition: virtual
    // snooping with live vCPU relocation and warmup reset, so
    // retries, persistent escalations and map maintenance all
    // occur, and in-flight transactions cross the reset boundary.
    SystemConfig cfg = smallConfig();
    cfg.policy = PolicyKind::VirtualSnoop;
    cfg.migrationPeriod = 30000;
    cfg.warmupAccessesPerVcpu = 500;
    SimSystem sys(cfg, quickApp());
    sys.run();
    SystemResults r = sys.results();

    ASSERT_GT(r.latency.count(), 0u);

    // Every transaction contributes one sample to every segment
    // histogram (zeros included), and the segment sums telescope to
    // the end-to-end latency total — exact, not approximate.
    std::uint64_t seg_total = 0;
    for (std::size_t s = 0; s < kNumCritSegments; ++s) {
        EXPECT_EQ(r.critpath.segments[s].count(), r.latency.count())
            << critSegmentName(static_cast<CritSegment>(s));
        seg_total += r.critpath.segments[s].sum();
        // The per-reason split of each segment re-sums to the
        // segment histogram.
        EXPECT_EQ(segmentSum(r.critpath, s),
                  r.critpath.segments[s].sum())
            << critSegmentName(static_cast<CritSegment>(s));
    }
    EXPECT_EQ(seg_total, r.latency.sum());

    // Relocation forces retry/persistent activity; the decomposition
    // must attribute some of it.
    EXPECT_GT(r.retries, 0u);
    std::size_t retry =
        static_cast<std::size_t>(CritSegment::RetryBackoff);
    EXPECT_GT(r.critpath.segments[retry].sum(), 0u);
}

TEST(CritPathSystem, InterferenceMatrixMatchesSnoopLookups)
{
    SystemConfig cfg = smallConfig();
    cfg.policy = PolicyKind::VirtualSnoop;
    cfg.warmupAccessesPerVcpu = 500;
    SimSystem sys(cfg, quickApp());
    sys.run();
    SystemResults r = sys.results();

    const InterferenceSnapshot &in = r.interference;
    EXPECT_EQ(in.dim, cfg.numVms + 1);
    // Lookups are charged to the matrix at the same points the
    // coherence counter increments (and both reset at the warmup
    // boundary), so the totals agree exactly.
    EXPECT_EQ(in.total(in.snoopLookups), r.snoopLookups);
    // Row sums cover the total: every lookup has exactly one
    // requesting row.
    std::uint64_t row_sum = 0;
    for (std::uint32_t req = 0; req < in.dim; ++req)
        for (std::uint32_t tgt = 0; tgt < in.dim; ++tgt)
            row_sum += in.at(in.snoopLookups, req, tgt);
    EXPECT_EQ(row_sum, r.snoopLookups);
    EXPECT_EQ(in.total(in.tagBusyCycles),
              r.snoopLookups * cfg.protocol.tagLookupCycles);
    // Every send charges its queue wait to the accountant, and both
    // sides reset at the warmup boundary, so the totals agree.
    EXPECT_GT(nocWaitSum(r), 0u);
    EXPECT_EQ(linkWaitSum(r), nocWaitSum(r));
}

TEST(CritPathSystem, VirtualSnoopingCutsOffDiagonalShare)
{
    // The isolation claim, measured directly: under broadcast, a
    // pinned 4-VM/16-core system spends ~12/16 of its lookups on
    // foreign tags; virtual snooping confines lookups to the
    // requester's own VM except for content/hypervisor sharing.
    AppProfile app = quickApp();
    app.hypervisorFraction = 0.0;

    SystemConfig base_cfg = smallConfig();
    base_cfg.policy = PolicyKind::TokenB;
    SimSystem base(base_cfg, app);
    base.run();

    SystemConfig vs_cfg = smallConfig();
    vs_cfg.policy = PolicyKind::VirtualSnoop;
    SimSystem vs(vs_cfg, app);
    vs.run();

    SystemResults base_r = base.results();
    SystemResults vs_r = vs.results();
    double base_share = base_r.interference.offDiagLookupShare();
    double vs_share = vs_r.interference.offDiagLookupShare();
    EXPECT_NEAR(base_share, 0.75, 0.05);
    EXPECT_LT(vs_share, 0.5 * base_share);

    // Without warmup the links keep the build's traffic, but the
    // accountant resets at the end of the build.  TokenB sends
    // nothing while building, so the queue-wait totals agree; the
    // initial placement's vCPU-map syncs under VirtualSnoop wait on
    // links the accountant no longer counts.
    EXPECT_GT(nocWaitSum(base_r), 0u);
    EXPECT_EQ(linkWaitSum(base_r), nocWaitSum(base_r));
    EXPECT_GT(linkWaitSum(vs_r), nocWaitSum(vs_r));
}

// ---------------------------------------------------------------------
// JSON surface
// ---------------------------------------------------------------------

TEST(CritPathSystem, RunJsonCarriesCritpathAndInterference)
{
    SystemConfig cfg = smallConfig();
    cfg.policy = PolicyKind::VirtualSnoop;
    RunResult run = collectRun(cfg, quickApp());

    std::string error;
    auto parsed = parseJson(run.toJson(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const JsonValue *results = parsed->find("results");
    ASSERT_NE(results, nullptr);

    const JsonValue *critpath = results->find("critpath");
    ASSERT_NE(critpath, nullptr);
    const JsonValue *segments = critpath->find("segments");
    ASSERT_NE(segments, nullptr);
    EXPECT_EQ(segments->members().size(), kNumCritSegments);
    // Conservation must survive the serialization round trip.
    double seg_total = 0.0;
    for (const auto &member : segments->members()) {
        EXPECT_EQ(member.second.numberAt("count"),
                  static_cast<double>(run.results.latency.count()));
        seg_total += member.second.numberAt("sum");
    }
    const JsonValue *latency = results->find("latency");
    ASSERT_NE(latency, nullptr);
    const JsonValue *all = latency->find("all");
    ASSERT_NE(all, nullptr);
    EXPECT_EQ(seg_total, all->numberAt("sum"));

    const JsonValue *interference = results->find("interference");
    ASSERT_NE(interference, nullptr);
    const JsonValue *rows = interference->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_TRUE(rows->isArray());
    EXPECT_EQ(rows->items().size(), cfg.numVms + 1);
    EXPECT_EQ(rows->items().back().string(), "host");
    const JsonValue *matrix = interference->find("snoop_lookups");
    ASSERT_NE(matrix, nullptr);
    ASSERT_TRUE(matrix->isArray());
    ASSERT_EQ(matrix->items().size(), cfg.numVms + 1);
    double matrix_total = 0.0;
    for (const JsonValue &row : matrix->items()) {
        ASSERT_EQ(row.items().size(), cfg.numVms + 1);
        for (const JsonValue &cell : row.items())
            matrix_total += cell.number();
    }
    EXPECT_EQ(matrix_total,
              static_cast<double>(run.results.snoopLookups));
    double share = interference->numberAt("offdiag_snoop_share", -1.0);
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0);
}

} // namespace vsnoop::test
