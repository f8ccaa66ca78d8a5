/**
 * @file
 * Run totals: the perf and pages counter blocks of finished runs,
 * folded together for live telemetry.
 *
 * Worker threads add() each finished run's SystemResults (one merge
 * under the internal mutex, off the simulation hot path); the
 * registered sources read the totals under the same mutex on the
 * registry's publisher thread.  Both blocks are row tables
 * (sim/row_table.hh), so their series — vsnoop_perf_* and
 * vsnoop_pages_* — are derived from the rows.  JobQueue owns one;
 * vsnoopsweep and vsnoopserve publish it.
 */

#ifndef VSNOOP_SYSTEM_RUN_TOTALS_HH_
#define VSNOOP_SYSTEM_RUN_TOTALS_HH_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/metrics.hh"
#include "system/sim_system.hh"

namespace vsnoop
{

class RunTotals
{
  public:
    /**
     * Register vsnoop_perf_* series when @p perf and vsnoop_pages_*
     * series when @p pages.  Call once, before registry.freeze();
     * this object must outlive the registry's last publish().
     */
    void registerMetrics(MetricsRegistry &registry, bool perf,
                         bool pages) const;

    /** Fold in the enabled blocks of one finished run (any thread). */
    void add(const SystemResults &results);

  private:
    /** One series per telemetry row of Block for each (block,
     *  labels) pair, family-major so families stay contiguous. */
    template <class Block>
    void registerRows(
        MetricsRegistry &registry, const std::string &prefix,
        const std::vector<std::pair<const Block *,
                                    std::vector<MetricLabel>>> &blocks)
        const;

    mutable std::mutex mutex_;
    PerfMon perf_;
    std::uint64_t perfRuns_ = 0;
    PagesTotals pages_;
};

} // namespace vsnoop

#endif // VSNOOP_SYSTEM_RUN_TOTALS_HH_
