#include "trace/trace.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vsnoop
{

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::RequestIssue: return "issue";
      case TraceEventKind::FilterDecision: return "filter";
      case TraceEventKind::Retry: return "retry";
      case TraceEventKind::PersistentEscalation: return "persistent";
      case TraceEventKind::TokenCollect: return "tokens";
      case TraceEventKind::Completion: return "complete";
      case TraceEventKind::MapAdd: return "map-add";
      case TraceEventKind::MapRemove: return "map-remove";
      case TraceEventKind::PageMap: return "page-map";
      case TraceEventKind::PageUnmap: return "page-unmap";
      case TraceEventKind::PageTypeChange: return "page-type";
      case TraceEventKind::PageCow: return "page-cow";
      case TraceEventKind::PageRemap: return "page-remap";
    }
    vsnoop_panic("unknown TraceEventKind ", static_cast<int>(kind));
}

const char *
filterReasonName(FilterReason reason)
{
    switch (reason) {
      case FilterReason::Baseline: return "baseline";
      case FilterReason::HypervisorShared: return "hypervisor-shared";
      case FilterReason::VmPrivate: return "vm-private";
      case FilterReason::RoShared: return "ro-shared";
      case FilterReason::RetryFallback: return "retry-fallback";
      case FilterReason::Persistent: return "persistent";
    }
    vsnoop_panic("unknown FilterReason ", static_cast<int>(reason));
}

const char *
dataSourceName(DataSource source)
{
    switch (source) {
      case DataSource::CacheIntraVm: return "cache_intra_vm";
      case DataSource::CacheFriendVm: return "cache_friend_vm";
      case DataSource::CacheOtherVm: return "cache_other_vm";
      case DataSource::Memory: return "memory";
    }
    vsnoop_panic("unknown DataSource ", static_cast<int>(source));
}

TraceSink::TraceSink(std::size_t capacity) : capacity_(capacity)
{
    vsnoop_assert(capacity_ >= 1, "trace capacity must be positive");
    // Grow on demand up to capacity: short runs never pay for the
    // full ring.
    buffer_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void
TraceSink::record(const TraceRecord &r)
{
    recorded_++;
    if (buffer_.size() < capacity_) {
        buffer_.push_back(r);
        return;
    }
    buffer_[head_] = r;
    head_ = (head_ + 1) % capacity_;
}

const TraceRecord &
TraceSink::at(std::size_t i) const
{
    vsnoop_assert(i < buffer_.size(), "trace record index out of range");
    // Until the ring wraps, head_ == 0 and the mapping is identity.
    return buffer_[(head_ + i) % buffer_.size()];
}

void
TraceSink::clear()
{
    buffer_.clear();
    head_ = 0;
    recorded_ = 0;
}

void
TraceSink::registerMetrics(MetricsRegistry &registry,
                           const std::string &prefix) const
{
    registry.addCounter(
        prefix + "trace_records_recorded_total",
        "Trace records ever recorded (retained + dropped).",
        [this] { return static_cast<double>(recorded()); });
    registry.addCounter(
        prefix + "trace_records_dropped_total",
        "Trace records overwritten because the ring was full.",
        [this] { return static_cast<double>(dropped()); });
    registry.addGauge(prefix + "trace_records_retained",
                      "Trace records currently retained in the ring.",
                      [this] { return static_cast<double>(size()); });
}

} // namespace vsnoop
