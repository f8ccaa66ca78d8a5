/**
 * @file
 * Token-coherence protocol types shared by the controller and the
 * coherence system.
 *
 * The protocol follows Martin et al.'s Token Coherence (ISCA 2003)
 * with a MOESI flavour, the baseline the paper builds on
 * (Table II):
 *
 *  - every line has a fixed number of tokens T (one per core); one
 *    of them is the distinguished owner token;
 *  - a cache may hold data iff it holds at least one token;
 *  - a read (GETS) completes once the requester holds data and at
 *    least one token;
 *  - a write (GETX) completes once the requester holds data and all
 *    T tokens;
 *  - transient requests may fail (tokens may be elsewhere or in
 *    flight); after a bounded number of retries the requester falls
 *    back to an arbitrated persistent request that is guaranteed to
 *    make progress.
 *
 * MOESI states map onto token state as: M = owner + all tokens +
 * dirty, E = owner + all tokens + clean, O = owner + some tokens,
 * S = tokens without owner, I = no tokens.
 *
 * Read-only extension for content-shared pages (Section VI-B of the
 * paper): RO-shared lines are clean by construction, so memory may
 * always provide their data, and memory hands out small token
 * bundles so that a per-VM provider copy can serve later intra-VM
 * reads cache-to-cache without violating token counting.
 */

#ifndef VSNOOP_COHERENCE_PROTOCOL_HH_
#define VSNOOP_COHERENCE_PROTOCOL_HH_

#include <cstdint>

#include "mem/addr.hh"
#include "sim/core_set.hh"
#include "sim/types.hh"

namespace vsnoop
{

/**
 * A memory access presented to the coherence layer.  The page
 * sharing type travels with the access, mirroring the paper's TLB
 * extension that exposes the page-table sharing bits on every
 * coherence transaction.
 */
struct MemAccess
{
    HostAddr addr{0};
    bool isWrite = false;
    /** Requesting VM (kInvalidVm for hypervisor accesses). */
    VmId vm = kInvalidVm;
    PageType pageType = PageType::VmPrivate;
};

/**
 * Snoop request kinds.
 */
enum class SnoopKind : std::uint8_t
{
    /** Transient read: wants data and one token. */
    GetS,
    /** Transient write/upgrade: wants data and all tokens. */
    GetX,
};

/**
 * A snoop request as delivered to a remote cache controller or a
 * memory controller.
 */
struct SnoopMsg
{
    SnoopKind kind = SnoopKind::GetS;
    /** Line-aligned target address. */
    HostAddr line{0};
    CoreId requester = kInvalidCore;
    VmId requesterVm = kInvalidVm;
    PageType pageType = PageType::VmPrivate;
    /** Persistent-mode request: holders must surrender everything. */
    bool persistent = false;
    /**
     * Provider-match mask for RO-shared reads: a cache responds to
     * a non-owner RO-shared GetS only if it is the designated
     * provider for one of the VMs in this mask (requester VM, plus
     * the friend VM under the friend-VM policy).
     */
    std::uint32_t providerMask = 0;
    /**
     * Tokens memory should grant on an RO-shared read.  Policies
     * that rely on per-VM provider copies request a bundle (so the
     * provider can re-gift tokens cache-to-cache); memory-direct
     * requests exactly one so that up to numCores sharers never
     * exhaust memory's token pool.
     */
    std::uint32_t roBundle = 1;
};

/**
 * A token/data response returning to a requester (or tokens
 * bouncing back to memory).
 */
struct ResponseMsg
{
    HostAddr line{0};
    /** Tokens carried, including the owner token when owner set. */
    std::uint32_t tokens = 0;
    bool owner = false;
    /** Carries the line's data. */
    bool hasData = false;
    /** Data differs from memory (only meaningful with owner). */
    bool dirty = false;
    /**
     * Requester should become the RO-shared provider for its VM
     * (set by memory responses and by provider-transferring
     * caches).
     */
    bool makeProvider = false;
    /** Data origin for Table VI accounting. */
    CoreId sourceCore = kInvalidCore;
    /** VM owning the responding cache line (data-source class). */
    VmId sourceVm = kInvalidVm;
    /** True when the response came from a memory controller. */
    bool fromMemory = false;
    /**
     * @{ Critical-path stamps (trace/critpath.hh): the tick the
     * snoop reached the responder and the tick the response left
     * it.  Stamped centrally in CoherenceSystem::sendResponseToCore;
     * no protocol effect.
     */
    Tick reqArrive = 0;
    Tick depart = 0;
    /** @} */
};

/**
 * Why a snoop-target policy chose the destination set it did.
 * Carried on SnoopTargets so the tracing layer can attribute every
 * broadcast-vs-multicast decision without re-deriving policy state
 * (see trace/trace.hh).
 */
enum class FilterReason : std::uint8_t
{
    /** Non-filtering policy (TokenB baseline, test policies). */
    Baseline,
    /** Hypervisor access or RW-shared page: must broadcast. */
    HypervisorShared,
    /** VM-private page: multicast within the requester's vCPU map. */
    VmPrivate,
    /** RO-shared (content-shared) page, per the active RoPolicy. */
    RoShared,
    /** A filtered request fell back to broadcast on a late retry. */
    RetryFallback,
    /** Persistent-mode request: unconditional broadcast. */
    Persistent,
};

/** Number of FilterReason values. */
constexpr std::size_t kNumFilterReasons = 6;

/**
 * Destination set chosen by a snoop-target policy for one request
 * attempt.
 */
struct SnoopTargets
{
    /** Remote cores to snoop (the requester itself is excluded). */
    CoreSet cores;
    /** Snoop the line's memory controller as well. */
    bool memory = true;
    /** Provider-match mask forwarded into the snoop message. */
    std::uint32_t providerMask = 0;
    /** RO-shared token bundle hint forwarded to memory. */
    std::uint32_t roBundle = 4;
    /** Policy attribution for tracing (no protocol effect). */
    FilterReason reason = FilterReason::Baseline;
};

/**
 * Protocol tuning knobs.
 */
struct ProtocolConfig
{
    /** Cores in the system (also tokens per line). */
    std::uint32_t numCores = 16;
    /** L1 hit latency in ticks (Table II; used when L1s are
     *  modelled). */
    Tick l1Latency = 2;
    /** L2 hit latency in ticks (Table II). */
    Tick l2Latency = 10;
    /** DRAM access latency in ticks. */
    Tick memLatency = 80;
    /** Memory-controller latency for token-only (no data) replies. */
    Tick memTokenLatency = 6;
    /** Ticks a transient attempt waits before retrying. */
    Tick retryWindow = 400;
    /** Transient attempts before falling back to persistent mode. */
    std::uint32_t maxTransientAttempts = 4;
    /** Re-broadcast window for persistent requests. */
    Tick persistentWindow = 600;
    /** Request/ack/control message payload bytes. */
    std::uint32_t controlBytes = 8;
    /** Data message bytes (64B line + 8B header). */
    std::uint32_t dataBytes = 72;
    /**
     * Tag-port cycles one snoop lookup occupies, charged to the
     * inter-VM interference matrix (trace/critpath.hh).  Pure
     * accounting — snoop responses stay in-tick; the timing model
     * is unchanged.
     */
    Tick tagLookupCycles = 3;
};

/**
 * Cache geometry for the private L2s.
 */
struct CacheGeometry
{
    /** Capacity in bytes (Table II: 256 KB). */
    std::uint64_t sizeBytes = 256 * 1024;
    /** Associativity (Table II: 8-way). */
    std::uint32_t ways = 8;
    /**
     * Private L1 capacity in bytes; 0 disables L1 modelling (the
     * workload generators then emit post-L1 streams directly, the
     * default methodology).  When enabled, the L1 is inclusive in
     * the L2 and write-through: the L2 remains the sole coherence
     * point and snoops probe L2 tags only.
     */
    std::uint64_t l1SizeBytes = 0;
    /** L1 associativity (Table II: 4-way). */
    std::uint32_t l1Ways = 4;
};


/** Data-source classes for Table VI accounting. */
enum class DataSource : std::uint8_t
{
    /** Supplied by a cache belonging to the requesting VM. */
    CacheIntraVm,
    /** Supplied by a cache of the requester's friend VM. */
    CacheFriendVm,
    /** Supplied by a cache of some other VM. */
    CacheOtherVm,
    /** Supplied by main memory. */
    Memory,
};

/** Number of DataSource values. */
constexpr std::size_t kNumDataSources = 4;

} // namespace vsnoop

#endif // VSNOOP_COHERENCE_PROTOCOL_HH_
