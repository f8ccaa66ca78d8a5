#include "system/driver.hh"

#include "sim/logging.hh"
#include "sim/profiler.hh"

namespace vsnoop
{

VcpuDriver::VcpuDriver(EventQueue &eq, CoherenceSystem &system,
                       VcpuMapping &mapping, VCpuId vcpu,
                       VcpuWorkload workload, std::uint64_t quota,
                       std::uint64_t warmup)
    : eq_(eq), system_(system), mapping_(mapping), vcpu_(vcpu),
      workload_(std::move(workload)), quota_(quota), warmup_(warmup)
{
    vsnoop_assert(warmup < quota || quota == 0,
                  "warmup must leave room for measurement");
}

void
VcpuDriver::resetStats()
{
    for (auto &counter : missesByCategory)
        counter.reset();
    totalMisses.reset();
    workload_.resetStats();
}

void
VcpuDriver::start()
{
    vsnoop_assert(quota_ > 0, "driver quota must be positive");
    eq_.scheduleIn(*this, 1);
}

void
VcpuDriver::process()
{
    if (done())
        return;
    CoreId core = mapping_.coreOf(vcpu_);
    if (core == kInvalidCore) {
        // Descheduled: poll again shortly.  (Coherence experiments
        // keep every vCPU placed; this path exists for scheduler
        // integrations where vCPUs can wait.)
        eq_.scheduleIn(*this, 1000);
        return;
    }
    VcpuWorkload::Step step = [this] {
        ProfileScope scope(profiler_, HostProfiler::Phase::Generate);
        return workload_.next();
    }();
    auto category = step.category;
    Tick gap = step.gap;
    system_.access(core, step.access,
                   [this, category, gap](
                       Tick done_at, DataSource source, bool was_miss) {
                       (void)source;
                       if (was_miss) {
                           totalMisses.inc();
                           missesByCategory[static_cast<std::size_t>(
                                                category)]
                               .inc();
                       }
                       issued_++;
                       if (warmup_ > 0 && issued_ == warmup_) {
                           // Own warmup boundary: this driver's
                           // statistics now cover exactly the
                           // measurement accesses.
                           resetStats();
                       }
                       if (done()) {
                           finishedAt_ = done_at;
                           return;
                       }
                       Tick next = done_at + gap;
                       if (next <= eq_.now())
                           next = eq_.now() + 1;
                       eq_.schedule(*this, next);
                   });
}

} // namespace vsnoop
