/**
 * @file
 * Row tables: each field of a flat counter block declared once.
 *
 * A counter block (EventQueuePerf, FlatTablePerf, MeshPerf,
 * PagesTotals) lists its fields as rows — key, merge rule, help
 * text, member pointer — returned by its static rows().  Everything
 * else is derived from those rows: mergeRows() folds one run's
 * block into a total, writeRows() emits the block's JSON object in
 * row order, and RunTotals (system/run_totals.hh) registers one
 * live-telemetry series per row, named
 *
 *     prefix + group + key, plus "_total" for Sum rows
 *
 * with the kind picked by the rule: Sum rows are counters, Max and
 * Derived rows gauges, Hist rows histograms.  A row without help
 * text stays JSON-only.  The members the rows point at keep their
 * plain types, so the hot-path hooks that bump them are unchanged.
 */

#ifndef VSNOOP_SIM_ROW_TABLE_HH_
#define VSNOOP_SIM_ROW_TABLE_HH_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "sim/json.hh"
#include "sim/stats.hh"

namespace vsnoop
{

/** How a row merges across runs; it also picks the series kind. */
enum class RowRule : std::uint8_t
{
    /** Counts add; a counter series <key>_total. */
    Sum,
    /** High-water marks keep the larger; a gauge <key>. */
    Max,
    /** LatencyHistogram::merge; a histogram <key>. */
    Hist,
    /** Computed from other rows, never merged; a gauge <key>. */
    Derived,
};

/** One field of the counter block @p Block. */
template <class Block>
struct Row
{
    const char *key;
    RowRule rule;
    /** Series help text; nullptr keeps the row JSON-only. */
    const char *help;
    /** @{ Exactly one is set, matching rule (checked at compile
     *  time: a mismatched row does not build). */
    std::uint64_t Block::*count = nullptr;
    LatencyHistogram Block::*hist = nullptr;
    double (Block::*derived)() const = nullptr;
    /** @} */

    consteval Row(const char *k, RowRule r, std::uint64_t Block::*m,
                  const char *h)
        : key(k), rule(r), help(h), count(m)
    {
        if (r != RowRule::Sum && r != RowRule::Max)
            throw "a count row merges by Sum or Max";
    }
    consteval Row(const char *k, RowRule r, LatencyHistogram Block::*m,
                  const char *h)
        : key(k), rule(r), help(h), hist(m)
    {
        if (r != RowRule::Hist)
            throw "a histogram row merges by Hist";
    }
    consteval Row(const char *k, RowRule r, double (Block::*f)() const,
                  const char *h)
        : key(k), rule(r), help(h), derived(f)
    {
        if (r != RowRule::Derived)
            throw "a computed row is Derived";
    }

    /** The value of a Sum, Max or Derived row. */
    double value(const Block &block) const
    {
        return derived != nullptr ? (block.*derived)()
                                  : static_cast<double>(block.*count);
    }

    /** @p prefix + key, plus "_total" for Sum rows. */
    std::string seriesName(const std::string &prefix) const
    {
        return prefix + key + (rule == RowRule::Sum ? "_total" : "");
    }
};

/** Fold @p from into @p into, row by row. */
template <class Block>
void
mergeRows(Block &into, const Block &from)
{
    for (const Row<Block> &row : Block::rows()) {
        switch (row.rule) {
          case RowRule::Sum:
            into.*row.count += from.*row.count;
            break;
          case RowRule::Max:
            into.*row.count = std::max(into.*row.count, from.*row.count);
            break;
          case RowRule::Hist:
            (into.*row.hist).merge(from.*row.hist);
            break;
          case RowRule::Derived:
            break;
        }
    }
}

/** Emit @p block as one JSON object, members in row order. */
template <class Block>
void
writeRows(JsonWriter &json, const Block &block)
{
    json.beginObject();
    for (const Row<Block> &row : Block::rows()) {
        json.key(row.key);
        if (row.rule == RowRule::Hist)
            (block.*row.hist).writeJson(json);
        else if (row.rule == RowRule::Derived)
            json.value((block.*row.derived)());
        else
            json.value(block.*row.count);
    }
    json.endObject();
}

} // namespace vsnoop

#endif // VSNOOP_SIM_ROW_TABLE_HH_
