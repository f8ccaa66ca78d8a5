#include "mem/cache.hh"

#include "sim/logging.hh"

namespace vsnoop
{

Cache::Cache(std::uint64_t size_bytes, std::uint32_t ways,
             ReplacementPolicy policy)
    : ways_(ways), policy_(policy)
{
    vsnoop_assert(ways > 0, "cache needs at least one way");
    std::uint64_t lines = size_bytes / kLineBytes;
    vsnoop_assert(lines >= ways && lines % ways == 0,
                  "cache size ", size_bytes,
                  "B not divisible into ", ways, " ways");
    sets_ = static_cast<std::uint32_t>(lines / ways);
    setMask_ = (sets_ & (sets_ - 1)) == 0 ? sets_ - 1 : 0;
    lines_.resize(lines);
    tags_.assign(lines, kNoTag);
    lastUse_.assign(lines, 0);
}

std::uint32_t
Cache::setIndex(HostAddr line_addr) const
{
    // Set counts are powers of two in every realistic geometry; keep
    // the division only for odd test configurations.
    if (setMask_ != 0 || sets_ == 1)
        return static_cast<std::uint32_t>(line_addr.lineNum()) & setMask_;
    return static_cast<std::uint32_t>(line_addr.lineNum() % sets_);
}

CacheLine *
Cache::find(HostAddr line_addr)
{
    HostAddr aligned = line_addr.lineAligned();
    std::uint32_t base = setIndex(aligned) * ways_;
    std::uint64_t raw = aligned.raw();
    const std::uint64_t *tags = tags_.data() + base;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (tags[w] == raw)
            return &lines_[base + w];
    }
    return nullptr;
}

const CacheLine *
Cache::find(HostAddr line_addr) const
{
    return const_cast<Cache *>(this)->find(line_addr);
}

CacheLine &
Cache::victimFor(HostAddr line_addr)
{
    HostAddr aligned = line_addr.lineAligned();
    std::uint32_t base = setIndex(aligned) * ways_;
    // Prefer an empty way (the tag array encodes validity).
    const std::uint64_t *tags = tags_.data() + base;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (tags[w] == kNoTag)
            return lines_[base + w];
    }
    if (policy_ == ReplacementPolicy::Random) {
        // xorshift64* keeps the cache self-contained; replacement
        // randomness does not need to be coordinated with workload
        // randomness.
        for (std::uint32_t tries = 0; tries < 4 * ways_; ++tries) {
            randState_ ^= randState_ >> 12;
            randState_ ^= randState_ << 25;
            randState_ ^= randState_ >> 27;
            std::uint64_t r = randState_ * 2685821657736338717ULL;
            CacheLine &cand = lines_[base + (r % ways_)];
            if (!cand.pinned)
                return cand;
        }
        // Fall through to the LRU scan if randomness keeps hitting
        // pinned ways.
    }
    // LRU: oldest stamp in the packed lastUse_ array; only when the
    // winner turns out to be pinned (rare — pins cover in-flight
    // upgrades only) fall back to the oldest unpinned way.
    const std::uint64_t *uses = lastUse_.data() + base;
    std::uint32_t best = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (uses[w] < uses[best])
            best = w;
    }
    if (!lines_[base + best].pinned)
        return lines_[base + best];
    std::uint32_t victim = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (lines_[base + w].pinned)
            continue;
        if (victim == ways_ || uses[w] < uses[victim])
            victim = w;
    }
    vsnoop_assert(victim != ways_,
                  "every way in the set is pinned; associativity too low "
                  "for the number of outstanding upgrades");
    return lines_[base + victim];
}

CacheLine &
Cache::install(CacheLine &slot, HostAddr line_addr, VmId vm,
               PageType type, std::uint32_t tokens, bool owner, bool dirty)
{
    vsnoop_assert(!slot.valid,
                  "install into an occupied slot; evict the victim first");
    vsnoop_assert(tokens >= 1, "a valid line must hold at least one token");
    slot.addr = line_addr.lineAligned();
    slot.valid = true;
    slot.tokens = tokens;
    slot.owner = owner;
    slot.dirty = dirty;
    slot.vm = vm;
    slot.pageType = type;
    slot.providerVms = 0;
    slot.pinned = false;
    tags_[&slot - lines_.data()] = slot.addr.raw();
    lastUse_[&slot - lines_.data()] = ++accessSeq_;
    if (observer_)
        observer_->onLineInserted(vm, type);
    return slot;
}

void
Cache::remove(CacheLine &line)
{
    vsnoop_assert(line.valid, "removing an invalid line");
    VmId vm = line.vm;
    PageType type = line.pageType;
    line.valid = false;
    line.tokens = 0;
    line.owner = false;
    line.dirty = false;
    line.providerVms = 0;
    line.pinned = false;
    line.vm = kInvalidVm;
    tags_[&line - lines_.data()] = kNoTag;
    if (observer_)
        observer_->onLineRemoved(vm, type);
}

std::uint64_t
Cache::linesForVm(VmId vm) const
{
    std::uint64_t count = 0;
    for (const auto &line : lines_) {
        if (line.valid && line.vm == vm)
            count++;
    }
    return count;
}

std::uint64_t
Cache::validLines() const
{
    std::uint64_t count = 0;
    for (const auto &line : lines_) {
        if (line.valid)
            count++;
    }
    return count;
}

void
Cache::forEachLine(const std::function<void(const CacheLine &)> &fn) const
{
    for (const auto &line : lines_) {
        if (line.valid)
            fn(line);
    }
}

std::vector<CacheLine *>
Cache::collectLines(const std::function<bool(const CacheLine &)> &pred)
{
    std::vector<CacheLine *> out;
    for (auto &line : lines_) {
        if (line.valid && pred(line))
            out.push_back(&line);
    }
    return out;
}

} // namespace vsnoop
