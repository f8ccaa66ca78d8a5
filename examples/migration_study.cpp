/**
 * @file
 * Relocation deep-dive: sweep the vCPU relocation period and watch
 * the three map-maintenance mechanisms (Section IV-B) defend the
 * snoop filter — including the Figure 9 removal-period
 * distribution for the counter mechanism.
 */

#include <iostream>

#include "sim/table.hh"
#include "system/sim_system.hh"

using namespace vsnoop;

namespace
{

struct Point
{
    double snoopsPerTxn = 0.0;
    std::uint64_t removals = 0;
    Tick removalP50 = 0;
    Tick removalP90 = 0;
};

Point
run(RelocationMode mode, Tick period, const AppProfile &app)
{
    SystemConfig cfg;
    cfg.policy = PolicyKind::VirtualSnoop;
    cfg.vsnoop.relocation = mode;
    cfg.migrationPeriod = period;
    cfg.l2.sizeBytes = 16 * 1024;
    cfg.accessesPerVcpu = 20000;
    cfg.warmupAccessesPerVcpu = 4000;

    SimSystem system(cfg, app);
    system.run();
    SystemResults r = system.results();
    Point p;
    p.snoopsPerTxn = static_cast<double>(r.snoopLookups) /
                     static_cast<double>(r.transactions);
    const std::vector<Tick> &periods =
        system.vsnoopPolicy()->removalPeriods;
    p.removals = periods.size();
    p.removalP50 = nearestRank(periods, 0.5);
    p.removalP90 = nearestRank(periods, 0.9);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app_name = argc > 1 ? argv[1] : "ferret";
    AppProfile app = findApp(app_name);

    std::cout << "Migration study: " << app.name
              << " on a 16 KB-L2 system (fast cache turnover), "
                 "sweeping the shuffle period.\n"
                 "Snoops per transaction: broadcast costs 16, the "
                 "pinned ideal costs 4.\n\n";

    TextTable table({"shuffle period (ticks)", "vsnoop-base",
                     "counter", "counter-threshold",
                     "counter removals", "removal p50 (ticks)",
                     "removal p90 (ticks)"});
    for (Tick period : {Tick{200000}, Tick{50000}, Tick{12000},
                        Tick{3000}}) {
        Point base = run(RelocationMode::Base, period, app);
        Point counter = run(RelocationMode::Counter, period, app);
        Point threshold =
            run(RelocationMode::CounterThreshold, period, app);
        table.row()
            .cell(std::to_string(period))
            .cell(base.snoopsPerTxn, 2)
            .cell(counter.snoopsPerTxn, 2)
            .cell(threshold.snoopsPerTxn, 2)
            .cell(counter.removals)
            .cell(counter.removalP50)
            .cell(counter.removalP90);
    }
    table.print();

    std::cout << "\nvsnoop-base saturates toward 16 as relocation "
                 "accelerates; the counter\nmechanisms keep pruning "
                 "the maps (Figures 7/8 of the paper).\n";
    return 0;
}
