/**
 * @file
 * The in-order core driver: issues one vCPU's access stream into
 * the coherence system.
 *
 * Each vCPU is an event chain: generate an access, issue it from
 * whatever physical core the vCPU currently occupies, block until
 * the access completes (in-order, blocking cores as in Table II),
 * then continue after the generated think gap.  Migration changes
 * the issuing core between accesses, exactly like a vCPU being
 * rescheduled.
 */

#ifndef VSNOOP_SYSTEM_DRIVER_HH_
#define VSNOOP_SYSTEM_DRIVER_HH_

#include <functional>

#include "coherence/system.hh"
#include "sim/event_queue.hh"
#include "virt/vcpu_map.hh"
#include "workload/generator.hh"

namespace vsnoop
{

/**
 * Drives one vCPU's workload to a fixed access quota.
 */
class VcpuDriver : public Event
{
  public:
    /**
     * @param eq Event queue.
     * @param system Coherence system to issue into.
     * @param mapping vCPU placement (queried on every access).
     * @param vcpu This driver's vCPU id.
     * @param workload Access generator (moved in).
     * @param quota Number of accesses to perform.
     * @param warmup Accesses after which this driver zeroes its own
     *        statistics (so per-driver counters cover exactly the
     *        measurement phase).
     */
    VcpuDriver(EventQueue &eq, CoherenceSystem &system,
               VcpuMapping &mapping, VCpuId vcpu, VcpuWorkload workload,
               std::uint64_t quota, std::uint64_t warmup = 0);

    /** Schedule the first access. */
    void start();

    /** True once the quota has been reached. */
    bool done() const { return issued_ >= quota_; }

    /** Tick at which the quota was reached (kMaxTick if running). */
    Tick finishedAt() const { return finishedAt_; }

    /** Accesses completed so far. */
    std::uint64_t issued() const { return issued_; }

    VcpuWorkload &workload() { return workload_; }
    const VcpuWorkload &workload() const { return workload_; }

    void process() override;

    /** Zero the driver's and its workload's statistics. */
    void resetStats();

    /**
     * Attach a host self-profiler; workload generation is charged
     * to the Generate phase.  Null detaches (the default).
     */
    void setProfiler(HostProfiler *profiler) { profiler_ = profiler; }

    /** @{ Completion statistics. */
    /** L2 misses by generated access category (Fig 1, Table V). */
    Counter missesByCategory[kNumAccessCategories];
    Counter totalMisses;
    /** @} */

  private:
    EventQueue &eq_;
    CoherenceSystem &system_;
    VcpuMapping &mapping_;
    VCpuId vcpu_;
    VcpuWorkload workload_;
    std::uint64_t quota_;
    std::uint64_t warmup_;
    std::uint64_t issued_ = 0;
    Tick finishedAt_ = kMaxTick;
    HostProfiler *profiler_ = nullptr;
};

} // namespace vsnoop

#endif // VSNOOP_SYSTEM_DRIVER_HH_
