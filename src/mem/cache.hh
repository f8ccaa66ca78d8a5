/**
 * @file
 * Set-associative cache with token-coherence line metadata.
 *
 * The coherence protocol keeps its per-line state (token count,
 * owner token, dirty flag) directly in the cache line, as a real
 * MOESI token-coherence L2 would.  Each line also carries the id of
 * the VM that allocated it and the page sharing type, which the
 * virtual-snooping residence counters and the RO-shared provider
 * designation need (Sections IV-B and VI-B of the paper).
 *
 * The cache is a passive tag store: all protocol decisions (what to
 * do with an evicted owner line, when to invalidate on a snoop) are
 * made by the CoherenceController that owns the cache.
 */

#ifndef VSNOOP_MEM_CACHE_HH_
#define VSNOOP_MEM_CACHE_HH_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mem/addr.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vsnoop
{

/**
 * One cache line's tag and coherence state.
 *
 * Token-coherence invariant: a line is valid iff it holds at least
 * one token.  The owner token implies responsibility for providing
 * data and for writing dirty data back on eviction.
 *
 * Fields are ordered by size so a line packs into 24 bytes; its LRU
 * stamp lives in the cache's packed lastUse_ array.
 */
struct CacheLine
{
    /** Line-aligned host-physical address (the tag). */
    HostAddr addr{0};
    /** Tokens held; valid implies tokens >= 1. */
    std::uint32_t tokens = 0;
    /**
     * For RO-shared lines: bitmask of VM ids for which this copy is
     * the designated per-VM provider (Section VI-B).  Bit i set
     * means VM i's intra-VM read requests are answered by this copy.
     */
    std::uint32_t providerVms = 0;
    /** VM that allocated the line (kInvalidVm for hypervisor). */
    VmId vm = kInvalidVm;
    /** Page sharing type at allocation time. */
    PageType pageType = PageType::VmPrivate;
    /** True when the entry holds a line. */
    bool valid = false;
    /** Holds the owner token. */
    bool owner = false;
    /** Data differs from memory (meaningful only with owner). */
    bool dirty = false;
    /**
     * Excluded from victim selection while an in-flight upgrade
     * transaction counts this line's tokens toward its goal.
     */
    bool pinned = false;
};

static_assert(sizeof(CacheLine) == 24, "CacheLine packs into 24 bytes");

/**
 * Observer informed when lines enter or leave the cache; the
 * virtual-snooping residence counters hook in here.
 */
class CacheObserver
{
  public:
    virtual ~CacheObserver() = default;

    /** A line for @p vm with type @p type was allocated. */
    virtual void onLineInserted(VmId vm, PageType type) = 0;

    /** A line for @p vm was evicted or invalidated. */
    virtual void onLineRemoved(VmId vm, PageType type) = 0;
};

/**
 * Replacement policy selector.
 */
enum class ReplacementPolicy : std::uint8_t
{
    Lru,
    Random,
};

/**
 * A set-associative tag store.
 */
class Cache
{
  public:
    /**
     * @param size_bytes Total capacity; must be a multiple of
     *        line size times associativity.
     * @param ways Associativity.
     * @param policy Victim selection policy.
     */
    Cache(std::uint64_t size_bytes, std::uint32_t ways,
          ReplacementPolicy policy = ReplacementPolicy::Lru);

    /** Attach an observer for insert/remove notifications. */
    void setObserver(CacheObserver *observer) { observer_ = observer; }

    std::uint32_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }
    std::uint64_t capacityLines() const { return lines_.size(); }

    /**
     * Look up a line by address.  Does not update LRU state; use
     * touch() for demand accesses.
     *
     * The scan runs over a packed parallel tag array (8 bytes per
     * way instead of a full CacheLine), so a whole set's tags fit
     * in one or two cache lines; the line metadata is only touched
     * on a hit.
     *
     * @return Pointer into the tag store, or nullptr on miss.  The
     *         pointer is invalidated by the next insert().
     */
    CacheLine *find(HostAddr line_addr);
    const CacheLine *find(HostAddr line_addr) const;

    /** Record a demand access for replacement purposes. */
    void touch(CacheLine &line) {
        lastUse_[&line - lines_.data()] = ++accessSeq_;
    }

    /**
     * Choose a victim way for @p line_addr without modifying
     * anything.  Prefers an invalid way; otherwise applies the
     * replacement policy.
     *
     * @return Reference to the victim slot (may be valid, in which
     *         case the caller must handle its eviction first).
     */
    CacheLine &victimFor(HostAddr line_addr);

    /**
     * Install a new line in @p slot (obtained from victimFor, which
     * the caller must already have emptied).
     *
     * @return Reference to the installed line.
     */
    CacheLine &install(CacheLine &slot, HostAddr line_addr, VmId vm,
                       PageType type, std::uint32_t tokens, bool owner,
                       bool dirty);

    /**
     * Remove a valid line from the cache (snoop invalidation or
     * eviction).  Notifies the observer and clears the slot.
     */
    void remove(CacheLine &line);

    /** Number of valid lines currently belonging to @p vm. */
    std::uint64_t linesForVm(VmId vm) const;

    /** Total valid lines. */
    std::uint64_t validLines() const;

    /**
     * Visit every valid line (e.g. for invariant checks or
     * selective flushes).  The visitor must not insert or remove.
     */
    void forEachLine(const std::function<void(const CacheLine &)> &fn) const;

    /**
     * Collect pointers to valid lines matching a predicate, for a
     * caller that will subsequently remove them (selective flush).
     */
    std::vector<CacheLine *>
    collectLines(const std::function<bool(const CacheLine &)> &pred);

    /** @{ Access statistics maintained by the owner via these. */
    Counter hits;
    Counter misses;
    Counter evictions;
    Counter invalidations;
    /** @} */

  private:
    std::uint32_t setIndex(HostAddr line_addr) const;

    /** Tag value no valid line can carry (addresses are aligned). */
    static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

    std::uint32_t sets_;
    /** sets_ - 1 when sets_ is a power of two, else 0 (modulo path). */
    std::uint32_t setMask_;
    std::uint32_t ways_;
    ReplacementPolicy policy_;
    std::vector<CacheLine> lines_;
    /** lines_[i].addr.raw() when valid, kNoTag otherwise. */
    std::vector<std::uint64_t> tags_;
    /** LRU timestamp of lines_[i] (monotonic access sequence
     *  number), packed so the victim scan reads 8 bytes per way. */
    std::vector<std::uint64_t> lastUse_;
    CacheObserver *observer_ = nullptr;
    std::uint64_t accessSeq_ = 0;
    std::uint64_t randState_ = 0x9e3779b97f4a7c15ULL;
};

} // namespace vsnoop

#endif // VSNOOP_MEM_CACHE_HH_
