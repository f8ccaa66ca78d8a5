#include "system/run_totals.hh"

namespace vsnoop
{

template <class Block>
void
RunTotals::registerRows(
    MetricsRegistry &registry, const std::string &prefix,
    const std::vector<std::pair<const Block *, std::vector<MetricLabel>>>
        &blocks) const
{
    for (const Row<Block> &row : Block::rows()) {
        if (row.help == nullptr)
            continue;
        for (const auto &[block, labels] : blocks) {
            if (row.rule == RowRule::Hist) {
                registry.addHistogram(
                    prefix + row.key, row.help,
                    [this, block, &row] {
                        std::lock_guard<std::mutex> lock(mutex_);
                        return block->*row.hist;
                    },
                    labels);
                continue;
            }
            registry.add(row.rule == RowRule::Sum ? MetricKind::Counter
                                                  : MetricKind::Gauge,
                         row.seriesName(prefix), row.help,
                         [this, block, &row] {
                             std::lock_guard<std::mutex> lock(mutex_);
                             return row.value(*block);
                         },
                         labels);
        }
    }
}

void
RunTotals::registerMetrics(MetricsRegistry &registry, bool perf,
                           bool pages) const
{
    if (perf) {
        registry.addCounter(
            "vsnoop_perf_runs_total",
            "Runs whose internal perfmon counters were aggregated.",
            [this] {
                std::lock_guard<std::mutex> lock(mutex_);
                return static_cast<double>(perfRuns_);
            });
        registerRows<EventQueuePerf>(registry, "vsnoop_perf_event_queue_",
                                     {{&perf_.eventQueue, {}}});
        std::vector<std::pair<const FlatTablePerf *,
                              std::vector<MetricLabel>>> tables;
        for (const auto &[name, table] : kPerfTables)
            tables.push_back({&(perf_.*table), {{"table", name}}});
        registerRows(registry, "vsnoop_perf_table_", tables);
        registerRows<MeshPerf>(registry, "vsnoop_perf_mesh_",
                               {{&perf_.mesh, {}}});
    }
    if (pages)
        registerRows<PagesTotals>(registry, "vsnoop_pages_",
                                  {{&pages_, {}}});
}

void
RunTotals::add(const SystemResults &results)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (results.perf.enabled) {
        perf_.merge(results.perf);
        perfRuns_++;
    }
    if (results.pages.enabled)
        mergeRows(pages_, PagesTotals(results.pages));
}

} // namespace vsnoop
