/**
 * @file
 * Shared pieces of the layered benchmark driver (see README.md).
 *
 * The driver measures one workload per process and writes one JSON
 * report of raw observations: every setup repetition, every job
 * latency, every record digest, per-layer timing samples and ledger
 * terms.  run.py turns that report into the benchmark's result line;
 * the arithmetic on it (exact percentiles, digest comparison, the
 * ledger residual) lives in stats.py, where it is unit-tested.
 */

#ifndef PERFBENCH_PERFBENCH_HH_
#define PERFBENCH_PERFBENCH_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "system/sweep.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Command-line options of one driver invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for stores and span files (must exist). */
    std::string workDir = ".";
    /** Record ids whose digests are committed (no offline rerun). */
    std::set<std::string> knownIds;
    /** Flip one byte of the N-th delivered record (-1: never). */
    long corrupt = -1;
    /** Print offline digests of the first N pool items, measure
     *  nothing (-1: measure). */
    long expect = -1;
};

/** One run of a workload's input pool. */
struct PoolRun
{
    /** "<pool item>.<run index>", stable for a given seed. */
    std::string id;
    vsnoop::SystemConfig config;
    std::string app;
};

/** One delivered run record, reduced to its identity and digests. */
struct Observed
{
    /** Operation (offline or served job) that delivered it. */
    std::size_t op = 0;
    std::string id;
    std::string record;
    std::string results;
};

/** One ledger term: @p count operations at @p ns each. */
struct LedgerTerm
{
    std::string metric;
    double count = 0.0;
    double ns = 0.0;
};

/** A benchmark-side span (traced runs write these as JSONL). */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    std::string parent;
    /** Run content hash or HTTP request id. */
    std::string ref;
};

/**
 * Everything a workload reports back to main(), which serializes it.
 * `values` are measured scalars; `samples` are raw observations that
 * stats.py reduces (median, or an exact p50/p90 for a metric whose
 * name carries that suffix).
 */
struct Report
{
    std::vector<double> setupSeconds;
    double windowSeconds = 0.0;
    std::uint64_t records = 0;
    std::uint64_t attempted = 0;
    /** Ops that failed before any digest check (HTTP, state, lines). */
    std::set<std::size_t> failedOps;
    std::vector<std::string> notes;
    std::vector<double> jobMs;
    std::vector<Observed> observed;
    /** id -> {record digest, results digest}, computed offline. */
    std::map<std::string, std::pair<std::string, std::string>> offline;
    std::map<std::string, double> values;
    std::map<std::string, std::vector<double>> samples;
    std::vector<LedgerTerm> ledger;
    double ledgerWallNs = 0.0;
    std::vector<Span> spans;
};

/** Digest of a record minus its build-provenance "meta" block. */
std::string recordDigest(const std::string &line);

/**
 * Digest of the record's "results" object minus its "perf" member:
 * what traced records (perf on adds keys) are compared on.
 */
std::string resultsDigest(const std::string &line);

/**
 * The digests of @p line, the @p index-th record delivered; --corrupt
 * flips one byte of that record first, to prove the check counts it.
 */
Observed observeRecord(const Options &opt, std::size_t index,
                       std::size_t op, const std::string &id,
                       std::string line);

/** observeRecord() the next record into report.observed. */
void observe(Report &report, const Options &opt, std::size_t op,
             const std::string &id, std::string line);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/** Microseconds on the steady clock (span timestamps). */
double nowUs();

/** @{ Workloads (driver.cc, serve.cc). */
void runSweepBroadcast(const Options &opt, Report &report);
void runServeCold(const Options &opt, Report &report);
/** @} */

/**
 * @{ The runs of a workload's first @p items pool items (jobs, for
 * serve-cold) — what the committed digests cover.
 */
std::vector<PoolRun> sweepPool(std::uint64_t seed, bool perf);
std::vector<PoolRun> servePool(std::uint64_t seed, std::size_t items);
/** @} */

/**
 * Offline reference digests for every run whose id is not committed,
 * computed on @p jobs threads through collectRun() (driver.cc).
 */
void computeOffline(const std::vector<PoolRun> &runs, const Options &opt,
                    unsigned jobs, Report &report);

/**
 * The traced system layer (calibrate.cc): run pool entries untraced
 * (timed) and traced (perf + HostProfiler + progress counts) for
 * about @p seconds, record system.* samples and counts, calibrate
 * every simulator layer on each app's first config, and emit the
 * ledger terms against the untraced run wall time.  Each record is
 * digest-checked as op @p firstOp onwards.
 */
void measureSystemLayer(const std::vector<PoolRun> &runs,
                        const Options &opt, double seconds,
                        std::size_t firstOp, Report &report);

/**
 * Service-layer per-call costs on the workload's own submission
 * bodies, run configs and records (calibrate.cc): wire parse, cache
 * key, store put, and store get of what was put.
 */
void calibrateService(const std::vector<std::string> &bodies,
                      const std::vector<PoolRun> &runs,
                      const std::vector<std::string> &records,
                      const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH_
