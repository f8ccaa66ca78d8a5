/**
 * @file
 * Shared test harness for exercising the token-coherence engine
 * directly, without workloads or the hypervisor.
 */

#ifndef VSNOOP_TESTS_COHERENCE_HARNESS_HH_
#define VSNOOP_TESTS_COHERENCE_HARNESS_HH_

#include <bit>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "coherence/policy.hh"
#include "coherence/system.hh"
#include "noc/mesh.hh"

namespace vsnoop::test
{

/**
 * A mesh that logs every multicast, so a test can tell when each
 * snoop reaches its target.
 */
class LoggingMesh : public Mesh
{
  public:
    struct Multicast
    {
        NodeId src;
        Tick depart;
        /** Arrival tick per node; 0 for nodes not in the multicast. */
        std::vector<Tick> arrive;
    };

    using Mesh::Mesh;

    void
    multicast(NodeId src, std::uint64_t dsts, std::uint32_t bytes,
              MsgClass cls, Tick now, Tick *arrive,
              Tick *queueWait = nullptr) override
    {
        Mesh::multicast(src, dsts, bytes, cls, now, arrive, queueWait);
        Multicast entry{src, now, std::vector<Tick>(numNodes(), 0)};
        for (; dsts != 0; dsts &= dsts - 1)
            entry.arrive[std::countr_zero(dsts)] = *arrive++;
        log.push_back(entry);
    }

    std::vector<Multicast> log;
};

/**
 * A 16-core token-coherence system over a 4x4 mesh with small L2s
 * (so eviction paths are easy to reach) and a pluggable policy.
 */
class CoherenceHarness
{
  public:
    struct Outcome
    {
        bool fired = false;
        Tick doneAt = 0;
        DataSource source = DataSource::Memory;
        bool wasMiss = false;
    };

    explicit CoherenceHarness(
        std::unique_ptr<SnoopTargetPolicy> policy = nullptr,
        std::uint64_t l2_bytes = 16 * 1024, std::uint32_t l2_ways = 4,
        std::uint64_t l1_bytes = 0, ProtocolConfig cfg = {})
        : mesh(MeshConfig{}),
          policy_(policy ? std::move(policy)
                         : std::make_unique<TokenBPolicy>(16))
    {
        CacheGeometry geom;
        geom.sizeBytes = l2_bytes;
        geom.ways = l2_ways;
        geom.l1SizeBytes = l1_bytes;
        cfg.numCores = 16;
        system = std::make_unique<CoherenceSystem>(eq, mesh, *policy_,
                                                   cfg, geom, 8);
    }

    /** Issue an access without waiting. */
    std::shared_ptr<Outcome>
    issue(CoreId core, std::uint64_t addr, bool write, VmId vm = 0,
          PageType type = PageType::VmPrivate)
    {
        auto outcome = std::make_shared<Outcome>();
        MemAccess access;
        access.addr = HostAddr(addr);
        access.isWrite = write;
        access.vm = vm;
        access.pageType = type;
        system->access(core, access,
                       [outcome](Tick done, DataSource src, bool miss) {
                           outcome->fired = true;
                           outcome->doneAt = done;
                           outcome->source = src;
                           outcome->wasMiss = miss;
                       });
        return outcome;
    }

    /** Run the queue dry (bounded) and verify token conservation. */
    void
    drain(std::uint64_t limit = 2'000'000)
    {
        eq.run(limit);
        system->checkInvariants();
    }

    /** Issue and complete one access; asserts completion. */
    Outcome
    access(CoreId core, std::uint64_t addr, bool write, VmId vm = 0,
           PageType type = PageType::VmPrivate)
    {
        auto outcome = issue(core, addr, write, vm, type);
        drain();
        EXPECT_TRUE(outcome->fired)
            << "access to " << addr << " from core " << core
            << " never completed";
        return *outcome;
    }

    const CacheLine *
    line(CoreId core, std::uint64_t addr)
    {
        return system->controller(core).cache().find(HostAddr(addr));
    }

    EventQueue eq;
    LoggingMesh mesh;
    std::unique_ptr<SnoopTargetPolicy> policy_;
    std::unique_ptr<CoherenceSystem> system;
};

} // namespace vsnoop::test

#endif // VSNOOP_TESTS_COHERENCE_HARNESS_HH_
