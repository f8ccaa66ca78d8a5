/**
 * @file
 * Figure 9: cumulative distribution of the core-removal period
 * after a vCPU relocation under the counter mechanism (5 paper-ms
 * shuffle period).
 *
 * The removal period runs from the moment a vCPU leaves a core
 * (with data still cached there) to the eviction of the VM's last
 * private line from that cache.
 *
 * Paper shape: most removals complete within ~10 ms; radix and
 * ferret show occasional long tails; blackscholes' counters never
 * reach zero (its working set is too small for the new tenant to
 * evict), so it contributes no removals at all.
 */

#include "migration_bench.hh"

using namespace vsnoop;
using namespace vsnoop::bench;

int
main()
{
    quietLogging(true);
    banner("Figure 9", "CDF of core-removal period after relocation "
                       "(counter mechanism, 5 paper-ms shuffles)");

    const double quantiles[] = {0.25, 0.5, 0.75, 0.9, 0.99};
    TextTable table({"app", "removals", "p25 (ms)", "p50 (ms)",
                     "p75 (ms)", "p90 (ms)", "p99 (ms)"});
    for (const AppProfile &paper_app : coherenceApps()) {
        AppProfile app = scaleWorkingSet(sectionVApp(paper_app), 8);
        SystemConfig cfg = migBenchConfig(20000);
        cfg.policy = PolicyKind::VirtualSnoop;
        cfg.vsnoop.relocation = RelocationMode::Counter;
        // One shuffle relocates two vCPUs (Section V-C).
        cfg.migrationPeriod = 2 * migPaperMs(5.0);
        SimSystem sys(cfg, app);
        sys.run();
        const std::vector<Tick> &periods =
            sys.vsnoopPolicy()->removalPeriods;

        table.row().cell(paper_app.name).cell(periods.size());
        for (double q : quantiles) {
            if (periods.empty()) {
                table.cell("-");
            } else {
                table.cell(static_cast<double>(nearestRank(periods, q)) /
                               static_cast<double>(kMigTicksPerPaperMs),
                           2);
            }
        }
    }
    table.print();
    std::cout << "\nblackscholes' small working set keeps its counters "
                 "above zero, so no cores\nare ever removed (matches "
                 "Section V-C).\n";
    return 0;
}
