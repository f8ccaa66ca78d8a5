/**
 * @file
 * Unit tests for the synthetic access generator.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "workload/generator.hh"

namespace vsnoop::test
{

namespace
{

AppProfile
testProfile()
{
    AppProfile p;
    p.name = "testapp";
    p.privatePagesPerVcpu = 32;
    p.privateSkew = 0.5;
    p.vmSharedPages = 8;
    p.vmSharedFraction = 0.10;
    p.contentPages = 16;
    p.contentFraction = 0.20;
    p.hypervisorFraction = 0.05;
    p.writeFraction = 0.3;
    p.contentWriteFraction = 0.01;
    p.meanAccessGap = 10.0;
    return p;
}

} // namespace

TEST(Generator, CategoryFractionsConverge)
{
    Hypervisor hv;
    VmId vm = hv.createVm(4);
    AppProfile profile = testProfile();
    VcpuWorkload w(hv, vm, 0, profile, 42);
    constexpr int draws = 60000;
    for (int i = 0; i < draws; ++i)
        w.next();

    auto frac = [&](AccessCategory c) {
        return static_cast<double>(
                   w.accessesByCategory[static_cast<std::size_t>(c)]
                       .value()) /
               draws;
    };
    EXPECT_NEAR(frac(AccessCategory::ContentShared), 0.20, 0.02);
    EXPECT_NEAR(frac(AccessCategory::VmShared), 0.10, 0.02);
    EXPECT_NEAR(frac(AccessCategory::Hypervisor) +
                    frac(AccessCategory::Domain0),
                0.05, 0.01);
    EXPECT_NEAR(frac(AccessCategory::Private), 0.65, 0.03);
}

TEST(Generator, PageTypesMatchCategories)
{
    Hypervisor hv;
    VmId a = hv.createVm(1);
    VmId b = hv.createVm(1);
    AppProfile profile = testProfile();
    profile.contentWriteFraction = 0.0; // keep sharing intact
    declareContentPages(hv, a, profile);
    declareContentPages(hv, b, profile);
    hv.runContentScan();

    VcpuWorkload w(hv, a, 0, profile, 7);
    for (int i = 0; i < 20000; ++i) {
        VcpuWorkload::Step s = w.next();
        switch (s.category) {
          case AccessCategory::Private:
            EXPECT_EQ(s.access.pageType, PageType::VmPrivate);
            break;
          case AccessCategory::VmShared:
            EXPECT_EQ(s.access.pageType, PageType::VmPrivate);
            break;
          case AccessCategory::ContentShared:
            EXPECT_EQ(s.access.pageType, PageType::RoShared);
            EXPECT_FALSE(s.access.isWrite);
            break;
          case AccessCategory::Hypervisor:
          case AccessCategory::Domain0:
          case AccessCategory::Channel:
            EXPECT_EQ(s.access.pageType, PageType::RwShared);
            break;
        }
        EXPECT_EQ(s.access.vm, a);
        EXPECT_GE(s.gap, 1u);
    }
}

TEST(Generator, ContentPagesAreSharedAcrossVms)
{
    Hypervisor hv;
    VmId a = hv.createVm(1);
    VmId b = hv.createVm(1);
    AppProfile profile = testProfile();
    profile.contentFraction = 1.0; // content accesses only
    profile.hypervisorFraction = 0.0;
    profile.vmSharedFraction = 0.0;
    profile.contentWriteFraction = 0.0;
    declareContentPages(hv, a, profile);
    declareContentPages(hv, b, profile);
    hv.runContentScan();

    VcpuWorkload wa(hv, a, 0, profile, 1);
    VcpuWorkload wb(hv, b, 0, profile, 2);
    std::set<std::uint64_t> pages_a, pages_b;
    for (int i = 0; i < 5000; ++i) {
        pages_a.insert(wa.next().access.addr.pageNum());
        pages_b.insert(wb.next().access.addr.pageNum());
    }
    // Deduplicated: both VMs touch the same host pages.
    EXPECT_EQ(pages_a, pages_b);
}

TEST(Generator, PrivateRegionsAreDisjointAcrossVcpus)
{
    Hypervisor hv;
    VmId vm = hv.createVm(2);
    AppProfile profile = testProfile();
    profile.contentFraction = 0.0;
    profile.hypervisorFraction = 0.0;
    profile.vmSharedFraction = 0.0;
    VcpuWorkload w0(hv, vm, 0, profile, 1);
    VcpuWorkload w1(hv, vm, 1, profile, 2);
    std::set<std::uint64_t> p0, p1;
    for (int i = 0; i < 4000; ++i) {
        p0.insert(w0.next().access.addr.pageNum());
        p1.insert(w1.next().access.addr.pageNum());
    }
    for (std::uint64_t page : p0)
        EXPECT_FALSE(p1.contains(page));
}

TEST(Generator, ContentWritesBreakSharing)
{
    Hypervisor hv;
    VmId a = hv.createVm(1);
    VmId b = hv.createVm(1);
    AppProfile profile = testProfile();
    profile.contentFraction = 1.0;
    profile.hypervisorFraction = 0.0;
    profile.vmSharedFraction = 0.0;
    profile.contentWriteFraction = 0.05;
    declareContentPages(hv, a, profile);
    declareContentPages(hv, b, profile);
    hv.runContentScan();

    VcpuWorkload w(hv, a, 0, profile, 3);
    bool saw_cow = false;
    for (int i = 0; i < 4000 && !saw_cow; ++i)
        saw_cow = w.next().cowBroke;
    EXPECT_TRUE(saw_cow);
    EXPECT_GT(w.cowBreaks.value(), 0u);
    EXPECT_GT(hv.cowBreaks.value(), 0u);
}

TEST(Generator, DeterministicPerSeed)
{
    auto run = [](std::uint64_t seed) {
        Hypervisor hv;
        VmId vm = hv.createVm(1);
        VcpuWorkload w(hv, vm, 0, testProfile(), seed);
        std::vector<std::uint64_t> addrs;
        for (int i = 0; i < 200; ++i)
            addrs.push_back(w.next().access.addr.raw());
        return addrs;
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_NE(run(5), run(6));
}

TEST(Generator, GapsAverageNearProfileMean)
{
    Hypervisor hv;
    VmId vm = hv.createVm(1);
    AppProfile profile = testProfile();
    profile.meanAccessGap = 20.0;
    VcpuWorkload w(hv, vm, 0, profile, 11);
    double sum = 0;
    constexpr int draws = 30000;
    for (int i = 0; i < draws; ++i)
        sum += static_cast<double>(w.next().gap);
    EXPECT_NEAR(sum / draws, 20.0, 2.0);
}

} // namespace vsnoop::test
