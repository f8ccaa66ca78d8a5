/**
 * @file
 * Pinned performance-baseline matrix: the canonical producer of
 * BENCH_baseline.json.
 *
 * Runs a fixed, seed-pinned cross of apps x policies on the
 * bench-standard configuration and emits one run record per line
 * (the same JSON schema as `vsnoopsweep --out`), so the committed
 * baseline and the CI regeneration are the same code path:
 *
 *   bench_baseline > BENCH_baseline.json          # refresh
 *   bench_baseline > fresh.jsonl                  # in CI, then
 *   vsnoopreport --diff BENCH_baseline.json fresh.jsonl
 *
 * Unlike the other benches, this one deliberately ignores
 * VSNOOP_BENCH_SCALE: the baseline is only comparable to itself if
 * every regeneration runs the identical matrix.
 */

#include <iostream>

#include "system/run_result.hh"
#include "system/sweep.hh"
#include "workload/app_profile.hh"

using namespace vsnoop;

int
main()
{
    SweepMatrix matrix;
    matrix.apps = {"ferret", "canneal", "fft"};
    matrix.policies = {PolicyKind::TokenB, PolicyKind::VirtualSnoop};
    matrix.seeds = {1};
    matrix.base.accessesPerVcpu = 4000;
    matrix.base.warmupAccessesPerVcpu = 1000;
    matrix.base.l2.sizeBytes = 128 * 1024;

    std::vector<SweepPoint> points = matrix.expand();
    std::vector<std::string> lines(points.size());
    runIndexed(points.size(), 0, [&](std::size_t i) {
        lines[i] = collectRun(matrix.configFor(points[i]),
                              findApp(points[i].app))
                       .toJson();
    });
    for (const std::string &line : lines)
        std::cout << line << "\n";
    return 0;
}
