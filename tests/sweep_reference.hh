/**
 * @file
 * The independent reference for run-engine tests: a serial
 * collectRun() loop over a sweep matrix.  vsnoopsweep and
 * vsnoopserve both execute on JobQueue, so comparing one of them
 * with the other would compare the engine with itself; each engine
 * test compares with this loop instead.
 */

#ifndef VSNOOP_TESTS_SWEEP_REFERENCE_HH_
#define VSNOOP_TESTS_SWEEP_REFERENCE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/job_queue.hh"
#include "system/run_result.hh"
#include "system/sweep.hh"
#include "workload/app_profile.hh"

namespace vsnoop::test
{

/** Each point of @p matrix run in turn on this thread, matrix order. */
inline std::vector<std::string>
serialRunLines(const SweepMatrix &matrix)
{
    std::vector<std::string> lines;
    for (const SweepPoint &point : matrix.expand())
        lines.push_back(
            collectRun(matrix.configFor(point), findApp(point.app))
                .toJson());
    return lines;
}

/** Every line job @p id streams, matrix order (blocks until done). */
inline std::vector<std::string>
jobLines(JobQueue &queue, std::uint64_t id)
{
    std::vector<std::string> lines;
    EXPECT_TRUE(queue.streamResults(id, [&](const std::string &line) {
        lines.push_back(line);
        return true;
    }));
    return lines;
}

/** @p matrix run as one job on a storeless queue, as vsnoopsweep
 *  runs it, with @p jobs runs in flight. */
inline std::vector<std::string>
queueRunLines(const SweepMatrix &matrix, unsigned jobs)
{
    JobQueue queue(nullptr, jobs);
    std::string error;
    std::uint64_t id = queue.submit(matrix, "", &error);
    EXPECT_NE(id, 0u) << error;
    return jobLines(queue, id);
}

} // namespace vsnoop::test

#endif // VSNOOP_TESTS_SWEEP_REFERENCE_HH_
