#include "coherence/controller.hh"

#include <algorithm>

#include "coherence/system.hh"
#include "sim/logging.hh"
#include "trace/pagemon.hh"
#include "trace/trace.hh"

namespace vsnoop
{

namespace
{

/** Trace record pre-filled with one transaction's identity. */
TraceRecord
traceBase(TraceEventKind kind, Tick tick, CoreId core,
          const MemAccess &access, SnoopKind snoop_kind)
{
    TraceRecord r;
    r.kind = kind;
    r.tick = tick;
    r.core = core;
    r.vm = access.vm;
    r.pageType = access.pageType;
    r.snoopKind = snoop_kind;
    r.line = access.addr.lineAligned().lineNum();
    return r;
}

} // namespace

CoherenceController::CoherenceController(CoherenceSystem &system,
                                         CoreId core,
                                         const CacheGeometry &geometry,
                                         std::size_t num_vms)
    : system_(system), core_(core),
      cache_(geometry.sizeBytes, geometry.ways), residence_(num_vms)
{
    cache_.setObserver(&residence_);
    // In-order cores block on misses, so one MSHR is live at a time;
    // the pool reserves that one slot and grows only if a caller
    // overlaps misses on this core.  The index reservation is
    // deliberately larger than the live set: every completed
    // transaction leaves a tombstone, and the index rehashes in place
    // once tombstones reach the load bound, so extra headroom
    // amortizes that cleanup over more transactions.  An index slot
    // is 12 bytes, so the 256 reserved cost 3 KiB where 256 whole
    // MSHRs would cost 50 KiB.
    mshrs_.reserve(128);
    mshrPool_.reserve(1);
    if (geometry.l1SizeBytes > 0)
        l1_.emplace(geometry.l1SizeBytes, geometry.l1Ways);
}

void
CoherenceController::removeL2(CacheLine &line)
{
    // Inclusion: the L1 may never hold a line the L2 does not.
    if (l1_) {
        CacheLine *l1_line = l1_->find(line.addr);
        if (l1_line != nullptr)
            l1_->remove(*l1_line);
    }
    cache_.remove(line);
}

void
CoherenceController::fillL1(HostAddr line_addr, VmId vm, PageType type)
{
    if (!l1_)
        return;
    CacheLine *existing = l1_->find(line_addr);
    if (existing != nullptr) {
        l1_->touch(*existing);
        return;
    }
    CacheLine &victim = l1_->victimFor(line_addr);
    // Write-through L1: victims are always clean; drop silently.
    if (victim.valid)
        l1_->remove(victim);
    l1_->install(victim, line_addr, vm, type, /*tokens=*/1,
                 /*owner=*/false, /*dirty=*/false);
}

CoherenceController::Mshr *
CoherenceController::findMshr(std::uint64_t line_num)
{
    const std::uint32_t *slot = mshrs_.find(line_num);
    return slot == nullptr ? nullptr : &mshrPool_[*slot];
}

const CoherenceController::Mshr *
CoherenceController::findMshr(std::uint64_t line_num) const
{
    const std::uint32_t *slot = mshrs_.find(line_num);
    return slot == nullptr ? nullptr : &mshrPool_[*slot];
}

void
CoherenceController::eraseMshr(Mshr &mshr)
{
    auto slot = static_cast<std::uint32_t>(&mshr - mshrPool_.data());
    mshrs_.erase(mshr.access.addr.lineNum());
    // Reset eagerly so the callback's captures are released now.
    mshr = Mshr{};
    freeMshrs_.push_back(slot);
}

bool
CoherenceController::hasMshr(HostAddr line) const
{
    return mshrs_.contains(line.lineAligned().lineNum());
}

void
CoherenceController::sumMshrTokens(HostAddr line, std::uint32_t &tokens,
                                   std::uint32_t &owners) const
{
    const Mshr *mshr = findMshr(line.lineAligned().lineNum());
    if (mshr == nullptr || mshr->upgrade)
        return;
    tokens += mshr->tokens;
    if (mshr->owner)
        owners += 1;
}

void
CoherenceController::collectMshrLines(std::vector<std::uint64_t> &out) const
{
    mshrs_.forEach([&out](std::uint64_t line_num, std::uint32_t) {
        out.push_back(line_num);
    });
}

std::uint64_t
CoherenceController::flushVmPrivateLines(VmId vm)
{
    std::vector<CacheLine *> lines =
        cache_.collectLines([vm](const CacheLine &line) {
            return line.vm == vm &&
                   line.pageType == PageType::VmPrivate &&
                   !line.pinned;
        });
    for (CacheLine *line : lines)
        evict(*line);
    return lines.size();
}

void
CoherenceController::access(const MemAccess &access,
                            AccessCallback callback)
{
    const ProtocolConfig &cfg = system_.config();
    EventQueue &eq = system_.eventQueue();
    HostAddr line_addr = access.addr.lineAligned();

    vsnoop_assert(!(access.isWrite && access.pageType == PageType::RoShared),
                  "write to an RO-shared page reached coherence; the "
                  "hypervisor must break content sharing (COW) first");
    vsnoop_assert(!hasMshr(line_addr),
                  "second outstanding access to line ", line_addr.raw(),
                  " from core ", core_);

    // Optional L1 in front of the L2 (write-through: writes always
    // proceed to the L2, which owns coherence permissions).
    if (l1_ && !access.isWrite) {
        CacheLine *l1_line = l1_->find(line_addr);
        if (l1_line != nullptr) {
            l1_->touch(*l1_line);
            l1_->hits.inc();
            l1Hits.inc();
            callback(eq.now() + cfg.l1Latency, DataSource::CacheIntraVm,
                     false);
            return;
        }
        l1_->misses.inc();
    }

    CacheLine *line = cache_.find(line_addr);
    bool hit = false;
    if (line != nullptr) {
        if (!access.isWrite) {
            hit = true;
        } else {
            // A write hit needs write permission: owner plus every
            // token (M/E).  Anything less is an upgrade miss.
            hit = line->owner &&
                  line->tokens == system_.memory().tokensPerLine();
        }
    }

    if (hit) {
        cache_.touch(*line);
        if (access.isWrite)
            line->dirty = true;
        cache_.hits.inc();
        system_.stats.l2Hits.inc();
        fillL1(line_addr, access.vm, access.pageType);
        Tick done = eq.now() + cfg.l2Latency;
        callback(done, DataSource::CacheIntraVm, false);
        return;
    }

    cache_.misses.inc();
    system_.stats.transactions.inc();
    if (access.isWrite)
        system_.stats.writeTransactions.inc();
    else
        system_.stats.readTransactions.inc();
    // The requester's own (missing) tag lookup counts as one snoop
    // lookup, so that a broadcast over n cores costs n lookups
    // total, matching the paper's normalization.
    system_.chargeLookup(line_addr, access.vm);

    std::uint32_t slot;
    if (!freeMshrs_.empty()) {
        slot = freeMshrs_.back();
        freeMshrs_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(mshrPool_.size());
        mshrPool_.emplace_back();
    }
    Mshr &mshr = mshrPool_[slot];
    mshr.access = access;
    mshr.access.addr = line_addr;
    mshr.callback = std::move(callback);
    mshr.kind = access.isWrite ? SnoopKind::GetX : SnoopKind::GetS;
    mshr.issued = eq.now();
    mshr.segMark = eq.now();
    if (line != nullptr) {
        // Upgrade: keep the tokens in the cache line and pin it so
        // it cannot be chosen as an eviction victim while the
        // transaction is outstanding.
        vsnoop_assert(access.isWrite, "read miss with a valid line");
        mshr.upgrade = true;
        mshr.haveData = true;
        line->pinned = true;
        cache_.touch(*line);
    }
    if (TraceSink *t = system_.traceFor(mshr.access.addr)) {
        t->record(traceBase(TraceEventKind::RequestIssue, eq.now(),
                            core_, mshr.access, mshr.kind));
    }
    bool inserted = mshrs_.emplace(line_addr.lineNum(), slot).second;
    vsnoop_assert(inserted, "duplicate MSHR");
    issueAttempt(mshr);
}

void
CoherenceController::issueAttempt(Mshr &mshr)
{
    const ProtocolConfig &cfg = system_.config();
    EventQueue &eq = system_.eventQueue();
    HostAddr line_addr = mshr.access.addr;

    // Everything since the cursor last advanced was spent getting
    // to this (re-)issue: grant waits and persistent re-broadcast
    // windows under persistent mode, dead transient-window tails on
    // retries, issue-side queueing on the first attempt (zero in
    // the current model, kept for schema completeness).
    mshr.charge(eq.now(),
                mshr.persistent ? CritSegment::PersistentEscalation
                : mshr.attempt > 1 ? CritSegment::RetryBackoff
                                   : CritSegment::MshrWait);

    SnoopTargets targets;
    if (mshr.persistent) {
        // Persistent requests are the forward-progress guarantee:
        // they bypass any filtering policy and reach every possible
        // token holder.
        targets.cores = CoreSet::firstN(cfg.numCores);
        targets.memory = true;
        targets.providerMask = ~std::uint32_t{0};
        targets.roBundle = 1;
        targets.reason = FilterReason::Persistent;
    } else {
        targets = system_.policy().targets(core_, mshr.access,
                                           mshr.attempt);
    }
    targets.cores.remove(core_);
    // Latency histograms attribute the whole transaction to the
    // filter class the policy chose up front, not to a later
    // retry's widened set.
    if (!mshr.persistent && mshr.attempt == 1)
        mshr.reason = targets.reason;

    // Per-page reason attribution covers every attempt (persistent
    // re-broadcasts included), mirroring the FilterDecision record.
    if (PageMon *pm = system_.pagemon())
        pm->filterReasonCharge(line_addr, targets.reason);

    if (TraceSink *t = system_.traceFor(mshr.access.addr)) {
        TraceRecord r = traceBase(TraceEventKind::FilterDecision,
                                  eq.now(), core_, mshr.access,
                                  mshr.kind);
        r.reason = targets.reason;
        r.targets = targets.cores.mask();
        r.memory = targets.memory;
        r.broadcast = targets.cores.count() + 1 >= cfg.numCores;
        r.attempt = static_cast<std::uint8_t>(
            std::min<std::uint32_t>(mshr.attempt, 255));
        r.persistent = mshr.persistent;
        t->record(r);
    }

    SnoopMsg msg;
    msg.kind = mshr.kind;
    msg.line = line_addr;
    msg.requester = core_;
    msg.requesterVm = mshr.access.vm;
    msg.pageType = mshr.access.pageType;
    msg.persistent = mshr.persistent;
    msg.providerMask = targets.providerMask;
    msg.roBundle = targets.roBundle;

    system_.sendSnoops(core_, msg, targets);

    // Arm (or re-arm) the retry timer.  Stale timers are ignored
    // via the generation counter.
    std::uint64_t gen = ++mshr.timeoutGen;
    std::uint64_t line_num = line_addr.lineNum();
    Tick window = mshr.persistent ? cfg.persistentWindow : cfg.retryWindow;
    eq.scheduleFnIn(window, [this, line_num, gen] {
        onTimeout(line_num, gen);
    });
}

void
CoherenceController::onTimeout(std::uint64_t line_num, std::uint64_t gen)
{
    Mshr *found = findMshr(line_num);
    if (found == nullptr || found->timeoutGen != gen)
        return; // completed or re-armed since
    Mshr &mshr = *found;
    const ProtocolConfig &cfg = system_.config();

    if (mshr.waitingGrant)
        return; // parked at the persistent arbiter

    if (mshr.persistent) {
        // Tokens may still be converging on memory; re-broadcast.
        issueAttempt(mshr);
        return;
    }

    system_.stats.retries.inc();
    mshr.attempt++;
    if (mshr.attempt > cfg.maxTransientAttempts) {
        // Escalate: wait for the arbiter, then broadcast
        // persistent requests until the tokens arrive.  The failed
        // window's tail is retry time; everything from here to the
        // first persistent issue is escalation time.
        mshr.charge(system_.eventQueue().now(),
                    CritSegment::RetryBackoff);
        mshr.waitingGrant = true;
        system_.stats.persistentRequests.inc();
        if (TraceSink *t = system_.traceFor(mshr.access.addr)) {
            TraceRecord r =
                traceBase(TraceEventKind::PersistentEscalation,
                          system_.eventQueue().now(), core_,
                          mshr.access, mshr.kind);
            r.attempt = static_cast<std::uint8_t>(
                std::min<std::uint32_t>(mshr.attempt, 255));
            r.persistent = true;
            t->record(r);
        }
        system_.requestPersistent(mshr.access.addr, core_);
        return;
    }
    if (TraceSink *t = system_.traceFor(mshr.access.addr)) {
        TraceRecord r = traceBase(TraceEventKind::Retry,
                                  system_.eventQueue().now(), core_,
                                  mshr.access, mshr.kind);
        r.attempt = static_cast<std::uint8_t>(
            std::min<std::uint32_t>(mshr.attempt, 255));
        t->record(r);
    }
    issueAttempt(mshr);
}

void
CoherenceController::persistentGranted(HostAddr line)
{
    Mshr *found = findMshr(line.lineAligned().lineNum());
    if (found == nullptr) {
        // Completed while queued (e.g. straggler responses finished
        // the transient attempt); hand the grant straight back.
        system_.releasePersistent(line, core_);
        return;
    }
    Mshr &mshr = *found;
    mshr.waitingGrant = false;
    mshr.persistent = true;
    issueAttempt(mshr);
}

void
CoherenceController::handleSnoop(const SnoopMsg &msg)
{
    std::uint64_t line_num = msg.line.lineNum();
    CacheLine *line = cache_.find(msg.line);

    // Persistent requests must also drain tokens parked in a
    // competing full-miss MSHR, or two starving writers could
    // deadlock holding partial token sets.
    if (msg.persistent) {
        Mshr *found = findMshr(line_num);
        if (found != nullptr && !found->upgrade &&
            (found->tokens > 0 || found->owner)) {
            Mshr &loser = *found;
            ResponseMsg resp;
            resp.line = msg.line;
            resp.tokens = loser.tokens;
            resp.owner = loser.owner;
            resp.hasData = loser.haveData;
            resp.dirty = loser.dirtyData;
            resp.sourceCore = core_;
            resp.sourceVm = loser.access.vm;
            loser.tokens = 0;
            loser.owner = false;
            loser.haveData = false;
            loser.dirtyData = false;
            system_.sendResponseToCore(core_, msg.requester, resp,
                                       system_.eventQueue().now());
        }
    }

    if (line == nullptr)
        return;

    snoopHits.inc();
    respondFromLine(msg, *line);
}

void
CoherenceController::respondFromLine(const SnoopMsg &msg, CacheLine &line)
{
    EventQueue &eq = system_.eventQueue();

    if (msg.kind == SnoopKind::GetX) {
        // Surrender everything.  If we were upgrading this line,
        // the upgrade degenerates to a full miss and will re-fetch
        // on its next attempt.
        ResponseMsg resp;
        resp.line = msg.line;
        resp.tokens = line.tokens;
        resp.owner = line.owner;
        resp.hasData = line.owner;
        resp.dirty = line.dirty;
        resp.sourceCore = core_;
        resp.sourceVm = line.vm;
        Mshr *upgrading = findMshr(msg.line.lineNum());
        if (upgrading != nullptr && upgrading->upgrade) {
            upgrading->upgrade = false;
            upgrading->haveData = false;
        }
        cache_.invalidations.inc();
        removeL2(line);
        system_.sendResponseToCore(core_, msg.requester, resp, eq.now());
        return;
    }

    // GetS.
    bool is_ro = line.pageType == PageType::RoShared;
    bool provider_match =
        is_ro && msg.requesterVm < 32 &&
        (line.providerVms & msg.providerMask) != 0;

    if (line.owner) {
        ResponseMsg resp;
        resp.line = msg.line;
        resp.hasData = true;
        resp.sourceCore = core_;
        resp.sourceVm = line.vm;
        if (line.tokens >= 2) {
            resp.tokens = 1;
            line.tokens--;
        } else {
            // Only the owner token left: transfer ownership (and
            // responsibility for dirty data) to the requester.
            resp.tokens = 1;
            resp.owner = true;
            resp.dirty = line.dirty;
            if (is_ro)
                resp.makeProvider = true;
            cache_.invalidations.inc();
            removeL2(line);
        }
        if (is_ro && msg.requesterVm < 32) {
            // The requester becomes its VM's provider unless this
            // copy already serves that VM.
            if ((line.valid ? line.providerVms : 0U) &
                (1U << msg.requesterVm)) {
                resp.makeProvider = false;
            } else if (!resp.owner) {
                resp.makeProvider = true;
            }
        }
        system_.sendResponseToCore(core_, msg.requester, resp, eq.now());
        return;
    }

    if (provider_match && line.tokens >= 2) {
        // RO-shared fast path: the designated provider re-gifts one
        // token from its memory-granted bundle (Section VI-B).
        ResponseMsg resp;
        resp.line = msg.line;
        resp.tokens = 1;
        resp.hasData = true;
        resp.sourceCore = core_;
        resp.sourceVm = line.vm;
        line.tokens--;
        // The requester becomes provider for its own VM if this
        // copy is not already serving that VM (friend-VM case).
        if (msg.requesterVm < 32 &&
            (line.providerVms & (1U << msg.requesterVm)) == 0) {
            resp.makeProvider = true;
        }
        system_.sendResponseToCore(core_, msg.requester, resp, eq.now());
        return;
    }

    // Non-owner, non-provider holders stay silent on GetS; the
    // owner or memory supplies the data.
}

void
CoherenceController::handleResponse(const ResponseMsg &msg)
{
    Mshr *found = findMshr(msg.line.lineNum());
    if (found == nullptr) {
        // Straggler after completion (or after a persistent
        // surrender): tokens must never be dropped, so bounce them
        // to memory.
        if (msg.tokens > 0 || msg.owner) {
            system_.stats.bouncedResponses.inc();
            system_.sendTokensToMemory(core_, msg.line, msg.tokens,
                                       msg.owner,
                                       msg.owner && msg.dirty);
        }
        return;
    }

    Mshr &mshr = *found;
    Tick now = system_.eventQueue().now();
    {
        // Critical-path decomposition: walk the response's stamps
        // forward from the cursor, clipping each leg to what this
        // response actually adds beyond already-charged time (a
        // stale response from an earlier attempt contributes only
        // its tail, keeping the sweep exact).  The final leg is the
        // response flight: data return if this response delivered
        // the line's data, token collection otherwise.
        bool had_data = mshr.upgrade || mshr.haveData;
        mshr.charge(std::min(msg.reqArrive, now),
                    CritSegment::ReqTraversal);
        mshr.charge(std::min(msg.depart, now),
                    CritSegment::SnoopLookup);
        mshr.charge(now, msg.hasData && !had_data
                             ? CritSegment::DataReturn
                             : CritSegment::TokenCollect);
    }
    if (msg.hasData && !msg.fromMemory) {
        // Cache-to-cache data delivery: interference bytes from the
        // supplying VM's cache into the requester.
        system_.critpath().bytesDelivered(mshr.access.vm, msg.sourceVm,
                                          system_.config().dataBytes);
    }
    if (mshr.upgrade) {
        CacheLine *line = cache_.find(msg.line);
        vsnoop_assert(line != nullptr && line->pinned,
                      "upgrade MSHR without its pinned line");
        line->tokens += msg.tokens;
        if (msg.owner)
            line->owner = true;
        if (msg.owner && msg.dirty)
            line->dirty = true;
    } else {
        mshr.tokens += msg.tokens;
        if (msg.owner)
            mshr.owner = true;
        if (msg.hasData) {
            if (!mshr.haveData) {
                mshr.haveData = true;
                if (msg.fromMemory) {
                    mshr.dataSource = DataSource::Memory;
                } else if (msg.sourceVm == mshr.access.vm) {
                    mshr.dataSource = DataSource::CacheIntraVm;
                } else if (msg.sourceVm ==
                           system_.friendOf(mshr.access.vm)) {
                    mshr.dataSource = DataSource::CacheFriendVm;
                } else {
                    mshr.dataSource = DataSource::CacheOtherVm;
                }
            }
            if (msg.dirty)
                mshr.dirtyData = true;
        }
        if (msg.makeProvider)
            mshr.makeProvider = true;
    }
    if (TraceSink *t = system_.traceFor(mshr.access.addr)) {
        TraceRecord r = traceBase(TraceEventKind::TokenCollect,
                                  system_.eventQueue().now(), core_,
                                  mshr.access, mshr.kind);
        r.tokens = msg.tokens;
        r.owner = msg.owner;
        r.memory = msg.fromMemory;
        t->record(r);
    }
    tryComplete(mshr);
}

void
CoherenceController::tryComplete(Mshr &mshr)
{
    std::uint32_t all = system_.memory().tokensPerLine();
    EventQueue &eq = system_.eventQueue();

    if (mshr.kind == SnoopKind::GetS) {
        if (!(mshr.haveData && mshr.tokens >= 1))
            return;
    } else if (mshr.upgrade) {
        CacheLine *line = cache_.find(mshr.access.addr);
        vsnoop_assert(line != nullptr, "upgrade lost its line");
        if (line->tokens != all)
            return;
        vsnoop_assert(line->owner, "all tokens but no owner token");
        line->dirty = true;
        line->pinned = false;
        cache_.touch(*line);
    } else {
        if (!(mshr.haveData && mshr.tokens == all))
            return;
    }

    if (!mshr.upgrade)
        installLine(mshr);

    // Invalidate any pending timeout and release a persistent grant.
    mshr.timeoutGen++;
    if (mshr.persistent)
        system_.releasePersistent(mshr.access.addr, core_);

    Tick done = eq.now() + system_.config().l2Latency;
    Tick latency = done - mshr.issued;
    // The trailing L2 fill closes the sweep: the cursor has covered
    // [issued, now] contiguously, so the segments now sum to the
    // end-to-end latency exactly (asserted by the accountant).
    mshr.charge(done, CritSegment::DataReturn);
    system_.critpath().recordTransaction(mshr.seg, latency, mshr.reason,
                                         mshr.access.vm);
    system_.stats.missLatency.sample(static_cast<double>(latency));
    bool retried = mshr.persistent || mshr.attempt > 1;
    system_.stats.latency[static_cast<std::size_t>(mshr.reason)][retried]
        .sample(latency);
    system_.stats.dataFrom[static_cast<std::size_t>(mshr.dataSource)]
        .inc();
    if (mshr.access.pageType == PageType::RoShared) {
        system_.stats.roMissLatency.sample(
            static_cast<double>(done - mshr.issued));
        system_.stats
            .roDataFrom[static_cast<std::size_t>(mshr.dataSource)].inc();
    }

    if (TraceSink *t = system_.traceFor(mshr.access.addr)) {
        TraceRecord r = traceBase(TraceEventKind::Completion, done,
                                  core_, mshr.access, mshr.kind);
        r.dataSource = mshr.dataSource;
        r.persistent = mshr.persistent;
        r.value = done - mshr.issued;
        t->record(r);
    }

    AccessCallback callback = std::move(mshr.callback);
    DataSource source = mshr.dataSource;
    eraseMshr(mshr);
    if (callback)
        callback(done, source, true);
}

void
CoherenceController::installLine(Mshr &mshr)
{
    CacheLine &victim = cache_.victimFor(mshr.access.addr);
    if (victim.valid)
        evict(victim);
    std::uint32_t all = system_.memory().tokensPerLine();
    bool is_write = mshr.kind == SnoopKind::GetX;
    vsnoop_assert(!is_write || (mshr.tokens == all && mshr.owner),
                  "write completing without write permission");
    CacheLine &line = cache_.install(
        victim, mshr.access.addr, mshr.access.vm, mshr.access.pageType,
        mshr.tokens, mshr.owner, is_write || mshr.dirtyData);
    if (mshr.access.pageType == PageType::RoShared && mshr.makeProvider &&
        mshr.access.vm < 32) {
        line.providerVms |= 1U << mshr.access.vm;
    }
    fillL1(mshr.access.addr, mshr.access.vm, mshr.access.pageType);
    system_.releaseSnoops(core_, mshr.access.addr);
}

void
CoherenceController::evict(CacheLine &victim)
{
    bool dirty = victim.owner && victim.dirty;
    cache_.evictions.inc();
    if (dirty)
        system_.stats.dirtyWritebacks.inc();
    system_.sendTokensToMemory(core_, victim.addr, victim.tokens,
                               victim.owner, dirty);
    removeL2(victim);
}

} // namespace vsnoop
