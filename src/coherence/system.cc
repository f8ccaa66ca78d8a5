#include "coherence/system.hh"

#include <algorithm>
#include <bit>
#include <unordered_set>
#include <vector>

#include "sim/logging.hh"
#include "trace/pagemon.hh"

namespace vsnoop
{

CoherenceSystem::CoherenceSystem(EventQueue &eq, Network &network,
                                 SnoopTargetPolicy &policy,
                                 const ProtocolConfig &config,
                                 const CacheGeometry &geometry,
                                 std::size_t num_vms)
    : eq_(eq), network_(network), policy_(policy), config_(config),
      memory_(config.numCores,
              std::min<std::uint32_t>(4, network.numNodes()),
              config.memLatency),
      critpath_(static_cast<std::uint32_t>(num_vms),
                config.tagLookupCycles),
      friendOf_(num_vms, kInvalidVm)
{
    vsnoop_assert(config_.numCores <= network.numNodes(),
                  "more cores (", config_.numCores, ") than network nodes (",
                  network.numNodes(), ")");
    vsnoop_assert(config_.numCores <= CoreSet::kMaxCores,
                  "CoreSet supports at most 64 cores");
    controllers_.reserve(config_.numCores);
    for (CoreId c = 0; c < config_.numCores; ++c) {
        controllers_.push_back(std::make_unique<CoherenceController>(
            *this, c, geometry, num_vms));
    }
    // Memory controllers are spread evenly over the nodes.
    std::uint32_t mcs = memory_.numControllers();
    for (std::uint32_t i = 0; i < mcs; ++i)
        memNodes_.push_back(i * network.numNodes() / mcs);

    // Seed the flat tables at a working-set-sized footprint.  The
    // ledger is NOT reserved for its worst case (aggregate L2
    // capacity): a mostly-empty multi-megabyte table turns every
    // probe into a cache miss, which costs far more than the rare
    // deterministic rehash when a workload's sharing pattern
    // actually spreads tokens that wide.
    std::size_t l2_lines = geometry.sizeBytes >> kLineShift;
    memory_.reserveLedger(l2_lines);
    inflight_.reserve(8 * config_.numCores);
    persistent_.reserve(2 * config_.numCores);
    // An in-order core has one miss outstanding, and its flights
    // retire within a snoop's flight time, so the ring rarely grows.
    flights_.resize(std::bit_ceil(2 * std::size_t{config_.numCores}));
    flightArrive_.resize(flights_.size() * config_.numCores);
}

CoherenceController &
CoherenceSystem::controller(CoreId core)
{
    vsnoop_assert(core < controllers_.size(), "bad core id ", core);
    return *controllers_[core];
}

const CoherenceController &
CoherenceSystem::controller(CoreId core) const
{
    vsnoop_assert(core < controllers_.size(), "bad core id ", core);
    return *controllers_[core];
}

void
CoherenceSystem::access(CoreId core, const MemAccess &access,
                        AccessCallback callback)
{
    controller(core).access(access, std::move(callback));
}

Tick
CoherenceSystem::netSend(NodeId src, NodeId dst, std::uint32_t bytes,
                         MsgClass cls, Tick now)
{
    Tick wait = 0;
    Tick arrive = network_.send(src, dst, bytes, cls, now, &wait);
    critpath_.nocWait(cls, wait);
    return arrive;
}

void
CoherenceSystem::chargeLookup(HostAddr line, VmId requester)
{
    stats.snoopLookups.inc();
    critpath_.lookup(requester, requester);
    if (pagemon_ != nullptr)
        pagemon_->lookup(line, requester, requester, /*miss=*/true);
}

void
CoherenceSystem::setFriend(VmId vm, VmId friend_vm)
{
    vsnoop_assert(vm < friendOf_.size() && friend_vm < friendOf_.size(),
                  "friend pairing out of range");
    friendOf_[vm] = friend_vm;
}

VmId
CoherenceSystem::friendOf(VmId vm) const
{
    if (vm >= friendOf_.size())
        return kInvalidVm;
    return friendOf_[vm];
}

NodeId
CoherenceSystem::memNodeFor(HostAddr line) const
{
    return memNodes_[memory_.controllerFor(line)];
}

TraceSink *
CoherenceSystem::traceFor(HostAddr addr) const
{
    if (trace_ == nullptr)
        return nullptr;
    if (pagemon_ != nullptr && pagemon_->watchActive() &&
        !pagemon_->watches(addr)) {
        return nullptr;
    }
    return trace_;
}

void
CoherenceSystem::sendSnoops(CoreId from, const SnoopMsg &msg,
                            const SnoopTargets &targets)
{
    Tick now = eq_.now();
    std::uint64_t cores = targets.cores.mask();
    vsnoop_assert((cores >> from & 1) == 0 &&
                      std::bit_width(cores) <= config_.numCores,
                  "policy must exclude the requester and name only cores");
    if (cores != 0) {
        // The arrivals go straight into the ring's next free slot,
        // which becomes a flight only if some snoop is recorded.
        retireFlights();
        if (flightCount_ == flights_.size())
            growFlights();
        std::size_t slot =
            (flightHead_ + flightCount_) & (flights_.size() - 1);
        Tick *arrive = flightArrivals(slot);
        Tick wait = 0;
        network_.multicast(from, cores, config_.controlBytes,
                           MsgClass::Request, now, arrive, &wait);
        critpath_.nocWait(MsgClass::Request, wait);
        auto count = static_cast<std::uint64_t>(std::popcount(cores));
        stats.snoopsDelivered.inc(count);
        // Charged at send, not at delivery, so every lookup total
        // matches the counter at any instant, warmup reset included.
        stats.snoopLookups.inc(count);
        critpath_.lookups(msg.requesterVm, targets.cores, coreVm_);
        if (pagemon_ != nullptr) {
            targets.cores.forEach([&](CoreId target) {
                VmId holder = coreVm_ != nullptr ? coreVm_[target]
                                                 : kInvalidVm;
                pagemon_->lookup(msg.line, msg.requesterVm, holder,
                                 /*miss=*/false);
            });
        }

        SnoopFlight &flight = flights_[slot];
        flight.pending = 0;
        flight.lastArrive = 0;
        std::size_t rank = 0;
        targets.cores.forEach([&](CoreId target) {
            CoherenceController *ctrl = controllers_[target].get();
            Tick at = arrive[rank];
            if (msg.persistent || ctrl->cache().find(msg.line) != nullptr) {
                eq_.scheduleFn(at, [ctrl, msg] {
                    ctrl->snoopsReceived.inc();
                    ctrl->handleSnoop(msg);
                });
            } else {
                std::uint64_t seq = eq_.reserveSeq();
                ctrl->snoopsReceived.inc();
                if (flight.pending == 0)
                    flight.firstSeq = seq - rank;
                flight.pending |= std::uint64_t{1} << target;
                flight.lastArrive = std::max(flight.lastArrive, at);
            }
            ++rank;
        });
        if (flight.pending != 0) {
            flight.msg = msg;
            flight.targets = cores;
            ++flightCount_;
        }
    }
    if (targets.memory) {
        NodeId mc = memNodeFor(msg.line);
        Tick arrive = netSend(from, mc, config_.controlBytes,
                              MsgClass::Request, now);
        stats.memorySnoops.inc();
        eq_.scheduleFn(arrive, [this, msg] { handleMemorySnoop(msg); });
    }
}

void
CoherenceSystem::releaseSnoops(CoreId core, HostAddr line)
{
    std::uint64_t bit = std::uint64_t{1} << core;
    std::size_t mask = flights_.size() - 1;
    for (std::size_t i = 0; i < flightCount_; ++i) {
        std::size_t slot = (flightHead_ + i) & mask;
        SnoopFlight &flight = flights_[slot];
        if ((flight.pending & bit) == 0 || flight.msg.line != line)
            continue;
        flight.pending &= ~bit;
        auto rank = static_cast<std::size_t>(
            std::popcount(flight.targets & (bit - 1)));
        Tick at = flightArrivals(slot)[rank];
        std::uint64_t seq = flight.firstSeq + rank;
        if (eq_.afterFrontier(at, seq)) {
            CoherenceController *ctrl = controllers_[core].get();
            eq_.scheduleFnAt(at, seq, [ctrl, msg = flight.msg] {
                ctrl->handleSnoop(msg);
            });
        }
    }
}

void
CoherenceSystem::retireFlights()
{
    Tick now = eq_.now();
    while (flightCount_ > 0) {
        const SnoopFlight &front = flights_[flightHead_];
        if (front.pending != 0 && front.lastArrive >= now)
            break;
        flightHead_ = (flightHead_ + 1) & (flights_.size() - 1);
        --flightCount_;
    }
}

void
CoherenceSystem::growFlights()
{
    std::size_t slots = flights_.size();
    std::size_t stride = config_.numCores;
    std::vector<SnoopFlight> flights(2 * slots);
    std::vector<Tick> arrive(2 * slots * stride);
    for (std::size_t i = 0; i < flightCount_; ++i) {
        std::size_t from = (flightHead_ + i) & (slots - 1);
        flights[i] = flights_[from];
        std::copy_n(flightArrive_.begin() + from * stride, stride,
                    arrive.begin() + i * stride);
    }
    flights_.swap(flights);
    flightArrive_.swap(arrive);
    flightHead_ = 0;
}

void
CoherenceSystem::sendResponseToCore(NodeId from_node, CoreId to,
                                    const ResponseMsg &msg, Tick depart)
{
    std::uint32_t bytes =
        msg.hasData ? config_.dataBytes : config_.controlBytes;
    MsgClass cls = msg.hasData ? MsgClass::Data : MsgClass::Response;
    // Critical-path stamps: every response originates at the tick
    // its snoop was processed (caches and memory both respond from
    // the snoop-arrival event), so reqArrive is simply "now"; the
    // responder-side occupancy is whatever pushes depart past it
    // (memory access time — cache lookups respond in-tick).
    ResponseMsg stamped = msg;
    stamped.reqArrive = eq_.now();
    stamped.depart = std::max(depart, eq_.now());
    inflightAdd(msg.line, msg.tokens, msg.owner);
    Tick arrive = netSend(from_node, to, bytes, cls, stamped.depart);
    eq_.scheduleFn(arrive, [this, to, stamped] {
        inflightRemove(stamped.line, stamped.tokens, stamped.owner);
        controller(to).handleResponse(stamped);
    });
}

void
CoherenceSystem::sendTokensToMemory(CoreId from, HostAddr line,
                                    std::uint32_t tokens, bool owner,
                                    bool dirty_data)
{
    if (tokens == 0 && !owner)
        return;
    std::uint32_t bytes =
        dirty_data ? config_.dataBytes : config_.controlBytes;
    MsgClass cls = dirty_data ? MsgClass::Data : MsgClass::Response;
    NodeId mc = memNodeFor(line);
    inflightAdd(line, tokens, owner);
    Tick arrive = netSend(from, mc, bytes, cls, eq_.now());
    eq_.scheduleFn(arrive, [this, line, tokens, owner, dirty_data] {
        inflightRemove(line, tokens, owner);
        memory_.returnTokens(line, tokens, owner);
        if (dirty_data)
            memory_.writebacks.inc();
    });
}

void
CoherenceSystem::resetStats()
{
    stats = CoherenceStats{};
    // The accountant resets with the protocol counters: a snoop
    // sent before the boundary is dropped from both sides at once,
    // keeping matrix total == snoopLookups exactly.
    critpath_.resetStats();
    if (pagemon_ != nullptr)
        pagemon_->resetStats();
    memory_.reads.reset();
    memory_.writebacks.reset();
    memory_.dataProvided.reset();
    for (auto &ctrl : controllers_) {
        ctrl->snoopsReceived.reset();
        ctrl->snoopHits.reset();
        ctrl->l1Hits.reset();
        Cache &cache = ctrl->cache();
        cache.hits.reset();
        cache.misses.reset();
        cache.evictions.reset();
        cache.invalidations.reset();
        if (ctrl->hasL1()) {
            ctrl->l1().hits.reset();
            ctrl->l1().misses.reset();
        }
    }
}

void
CoherenceSystem::sendControl(NodeId from, NodeId to, std::uint32_t bytes)
{
    netSend(from, to, bytes, MsgClass::Control, eq_.now());
}

void
CoherenceSystem::handleMemorySnoop(const SnoopMsg &msg)
{
    MemLineState st = memory_.state(msg.line);
    NodeId mc = memNodeFor(msg.line);
    Tick now = eq_.now();
    bool is_ro = msg.pageType == PageType::RoShared;

    if (msg.kind == SnoopKind::GetX) {
        if (st.tokens == 0)
            return;
        MemLineState taken =
            memory_.takeTokens(msg.line, st.tokens, true);
        ResponseMsg resp;
        resp.line = msg.line;
        resp.tokens = taken.tokens;
        resp.owner = taken.owner;
        // Memory data is current only when memory held the owner
        // token; otherwise a dirty cache owner supplies the data.
        resp.hasData = taken.owner;
        resp.fromMemory = true;
        Tick depart =
            now + (resp.hasData ? config_.memLatency
                                : config_.memTokenLatency);
        if (resp.hasData) {
            memory_.reads.inc();
            memory_.dataProvided.inc();
        }
        sendResponseToCore(mc, msg.requester, resp, depart);
        return;
    }

    // GetS.
    if (is_ro) {
        // RO-shared lines are clean by construction: memory may
        // always provide data, and grants a token bundle so the
        // requester can serve same-VM readers cache-to-cache.
        if (st.tokens == 0)
            return; // every token is cached; a retry will broadcast
        std::uint32_t bundle =
            std::max<std::uint32_t>(1, msg.roBundle);
        MemLineState taken = memory_.takeTokens(msg.line, bundle, true);
        ResponseMsg resp;
        resp.line = msg.line;
        resp.tokens = taken.tokens;
        resp.owner = taken.owner;
        resp.hasData = true;
        resp.makeProvider = true;
        resp.fromMemory = true;
        memory_.reads.inc();
        memory_.dataProvided.inc();
        sendResponseToCore(mc, msg.requester, resp,
                           now + config_.memLatency);
        return;
    }

    if (!st.owner)
        return; // a cache owner is responsible for the data
    MemLineState taken = memory_.takeTokens(msg.line, 1, true);
    vsnoop_assert(taken.tokens >= 1, "owner state without tokens");
    ResponseMsg resp;
    resp.line = msg.line;
    resp.tokens = taken.tokens;
    resp.owner = taken.owner;
    resp.hasData = true;
    resp.fromMemory = true;
    memory_.reads.inc();
    memory_.dataProvided.inc();
    sendResponseToCore(mc, msg.requester, resp, now + config_.memLatency);
}

void
CoherenceSystem::requestPersistent(HostAddr line, CoreId core)
{
    std::uint64_t key = line.lineAligned().lineNum();
    auto &queue = persistent_.getOrInsert(key);
    queue.push_back(core);
    if (queue.size() == 1) {
        // Line was unowned: grant immediately (next tick, to avoid
        // re-entering the controller from within its own call).
        eq_.scheduleFnIn(1, [this, line, core] {
            controller(core).persistentGranted(line);
        });
    }
}

void
CoherenceSystem::releasePersistent(HostAddr line, CoreId core)
{
    std::uint64_t key = line.lineAligned().lineNum();
    std::vector<CoreId> *queue = persistent_.find(key);
    vsnoop_assert(queue != nullptr && !queue->empty(),
                  "release of an unheld persistent grant");
    vsnoop_assert(queue->front() == core,
                  "persistent release out of order");
    queue->erase(queue->begin());
    if (queue->empty()) {
        persistent_.erase(key);
        return;
    }
    CoreId next = queue->front();
    eq_.scheduleFnIn(1, [this, line, next] {
        controller(next).persistentGranted(line);
    });
}

void
CoherenceSystem::inflightAdd(HostAddr line, std::uint32_t tokens,
                             bool owner)
{
    if (tokens == 0 && !owner)
        return;
    InflightState &st =
        inflight_.getOrInsert(line.lineAligned().lineNum());
    st.tokens += tokens;
    if (owner)
        st.owners += 1;
}

void
CoherenceSystem::inflightRemove(HostAddr line, std::uint32_t tokens,
                                bool owner)
{
    if (tokens == 0 && !owner)
        return;
    std::uint64_t key = line.lineAligned().lineNum();
    InflightState *st = inflight_.find(key);
    vsnoop_assert(st != nullptr, "in-flight ledger underflow");
    vsnoop_assert(st->tokens >= tokens && (!owner || st->owners >= 1),
                  "in-flight ledger underflow for line ", line.raw());
    st->tokens -= tokens;
    if (owner)
        st->owners -= 1;
    if (st->tokens == 0 && st->owners == 0)
        inflight_.erase(key);
}

void
CoherenceSystem::checkInvariants() const
{
    // Gather every line that deviates anywhere from the
    // all-at-memory default.
    std::unordered_set<std::uint64_t> lines;
    for (const auto &ctrl : controllers_) {
        ctrl->cache().forEachLine([&](const CacheLine &line) {
            lines.insert(line.addr.lineNum());
        });
        std::vector<std::uint64_t> mshr_lines;
        ctrl->collectMshrLines(mshr_lines);
        lines.insert(mshr_lines.begin(), mshr_lines.end());
    }
    memory_.forEachLedgerLine(
        [&](std::uint64_t line_num) { lines.insert(line_num); });
    inflight_.forEach([&](std::uint64_t line_num, const InflightState &) {
        lines.insert(line_num);
    });

    std::uint32_t expect = memory_.tokensPerLine();
    for (std::uint64_t line_num : lines) {
        HostAddr addr(line_num << kLineShift);
        std::uint32_t tokens = 0;
        std::uint32_t owners = 0;
        for (const auto &ctrl : controllers_) {
            const CacheLine *line = ctrl->cache().find(addr);
            if (line != nullptr) {
                tokens += line->tokens;
                if (line->owner)
                    owners++;
            }
            ctrl->sumMshrTokens(addr, tokens, owners);
        }
        MemLineState mem = memory_.state(addr);
        tokens += mem.tokens;
        if (mem.owner)
            owners++;
        const InflightState *inflight = inflight_.find(line_num);
        if (inflight != nullptr) {
            tokens += inflight->tokens;
            owners += inflight->owners;
        }
        vsnoop_assert(tokens == expect,
                      "token conservation violated for line ", addr.raw(),
                      ": ", tokens, " != ", expect);
        vsnoop_assert(owners == 1,
                      "owner uniqueness violated for line ", addr.raw(),
                      ": ", owners, " owners");
    }
}

} // namespace vsnoop
