#include "trace/critpath.hh"

#include "sim/logging.hh"

namespace vsnoop
{

const char *
critSegmentName(CritSegment segment)
{
    switch (segment) {
      case CritSegment::MshrWait: return "mshr_wait";
      case CritSegment::ReqTraversal: return "req_traversal";
      case CritSegment::SnoopLookup: return "snoop_lookup";
      case CritSegment::TokenCollect: return "token_collect";
      case CritSegment::RetryBackoff: return "retry_backoff";
      case CritSegment::PersistentEscalation:
        return "persistent_escalation";
      case CritSegment::DataReturn: return "data_return";
    }
    vsnoop_panic("unknown CritSegment ", static_cast<int>(segment));
}

std::string
vmRowLabel(std::uint32_t row, std::uint32_t dim)
{
    if (row + 1 == dim)
        return "host";
    return "vm" + std::to_string(row);
}

std::uint64_t
InterferenceSnapshot::total(const std::vector<std::uint64_t> &m) const
{
    std::uint64_t sum = 0;
    for (std::uint64_t v : m)
        sum += v;
    return sum;
}

std::uint64_t
InterferenceSnapshot::offDiagonal(
    const std::vector<std::uint64_t> &m) const
{
    std::uint64_t sum = total(m);
    for (std::uint32_t i = 0; i < dim; ++i)
        sum -= at(m, i, i);
    return sum;
}

double
InterferenceSnapshot::offDiagLookupShare() const
{
    std::uint64_t all = total(snoopLookups);
    if (all == 0)
        return 0.0;
    return static_cast<double>(offDiagonal(snoopLookups)) /
           static_cast<double>(all);
}

CritPathAccountant::CritPathAccountant(std::uint32_t num_vms,
                                       Tick tag_lookup_cycles)
    : dim_(num_vms + 1), tagLookupCycles_(tag_lookup_cycles)
{
    std::size_t cells = static_cast<std::size_t>(dim_) * dim_;
    snoopLookups_.assign(cells, 0);
    bytesDelivered_.assign(cells, 0);
    byVm_.assign(kNumCritSegments * dim_, CritPathCell{});
}

void
CritPathAccountant::recordTransaction(
    const std::uint64_t (&seg)[kNumCritSegments],
    std::uint64_t end_to_end, FilterReason reason, VmId vm)
{
    std::uint64_t sum = 0;
    for (std::uint64_t v : seg)
        sum += v;
    vsnoop_assert(sum == end_to_end,
                  "critical-path conservation violated: segments sum to ",
                  sum, " but the transaction took ", end_to_end);

    transactions.inc();
    std::uint32_t row = rowFor(vm);
    auto ri = static_cast<std::size_t>(reason);
    for (std::size_t s = 0; s < kNumCritSegments; ++s) {
        segments_[s].sample(seg[s]);
        segTotal[s].inc(seg[s]);
        byReason_[s][ri].count++;
        byReason_[s][ri].sum += seg[s];
        CritPathCell &cell = byVm_[s * dim_ + row];
        cell.count++;
        cell.sum += seg[s];
    }
}

void
CritPathAccountant::lookup(VmId requester, VmId holder)
{
    std::uint32_t req_row = rowFor(requester);
    std::uint32_t tgt_row = rowFor(holder);
    std::size_t cell = static_cast<std::size_t>(req_row) * dim_ + tgt_row;
    snoopLookups_[cell]++;
    lookupsTotal.inc();
    if (req_row != tgt_row)
        lookupsOffDiag.inc();
}

void
CritPathAccountant::lookups(VmId requester, CoreSet targets,
                            const VmId *coreVm)
{
    std::uint32_t req_row = rowFor(requester);
    std::uint64_t *row =
        snoopLookups_.data() + static_cast<std::size_t>(req_row) * dim_;
    std::uint64_t off_diag = 0;
    targets.forEach([&](CoreId target) {
        std::uint32_t tgt_row =
            rowFor(coreVm != nullptr ? coreVm[target] : kInvalidVm);
        row[tgt_row]++;
        off_diag += tgt_row != req_row;
    });
    lookupsTotal.inc(targets.count());
    lookupsOffDiag.inc(off_diag);
}

void
CritPathAccountant::bytesDelivered(VmId requester, VmId source,
                                   std::uint64_t bytes)
{
    std::uint32_t req_row = rowFor(requester);
    std::uint32_t src_row = rowFor(source);
    bytesDelivered_[static_cast<std::size_t>(req_row) * dim_ +
                    src_row] += bytes;
    bytesTotal.inc(bytes);
    if (req_row != src_row)
        bytesOffDiag.inc(bytes);
}

void
CritPathAccountant::resetStats()
{
    for (std::size_t s = 0; s < kNumCritSegments; ++s) {
        segments_[s].reset();
        segTotal[s].reset();
        for (std::size_t r = 0; r < kNumFilterReasons; ++r)
            byReason_[s][r] = CritPathCell{};
    }
    std::fill(byVm_.begin(), byVm_.end(), CritPathCell{});
    std::fill(snoopLookups_.begin(), snoopLookups_.end(), 0);
    std::fill(bytesDelivered_.begin(), bytesDelivered_.end(), 0);
    for (std::uint64_t &w : nocWaitCycles_)
        w = 0;
    transactions.reset();
    lookupsTotal.reset();
    lookupsOffDiag.reset();
    bytesTotal.reset();
    bytesOffDiag.reset();
}

CritPathSnapshot
CritPathAccountant::critSnapshot() const
{
    CritPathSnapshot snap;
    snap.vmRows = dim_;
    snap.byVm = byVm_;
    for (std::size_t s = 0; s < kNumCritSegments; ++s) {
        snap.segments[s] = segments_[s];
        for (std::size_t r = 0; r < kNumFilterReasons; ++r)
            snap.byReason[s][r] = byReason_[s][r];
    }
    for (std::size_t c = 0; c < kNumMsgClasses; ++c)
        snap.nocWaitCycles[c] = nocWaitCycles_[c];
    return snap;
}

InterferenceSnapshot
CritPathAccountant::interferenceSnapshot() const
{
    InterferenceSnapshot snap;
    snap.dim = dim_;
    snap.snoopLookups = snoopLookups_;
    snap.tagBusyCycles.reserve(snoopLookups_.size());
    for (std::uint64_t cell : snoopLookups_)
        snap.tagBusyCycles.push_back(cell * tagLookupCycles_);
    snap.bytesDelivered = bytesDelivered_;
    return snap;
}

} // namespace vsnoop
