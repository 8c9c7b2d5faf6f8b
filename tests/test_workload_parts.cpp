/**
 * @file
 * Workload building blocks: code paths, object trees, bean cache,
 * zipf sampling, kernel bursts.
 */

#include <gtest/gtest.h>

#include <set>

#include "os/kernel.hh"
#include "workload/beancache.hh"
#include "workload/codepath.hh"
#include "workload/objecttree.hh"
#include "workload/zipf.hh"

using namespace middlesim;
using workload::BeanCache;
using workload::CodeLibrary;
using workload::CodePath;
using workload::ObjectTree;
using workload::ZipfSampler;

namespace
{

/** A descent with no hot or warm tier: the leaf is drawn uniformly. */
mem::Addr
uniformDescent(const ObjectTree &tree, exec::Burst &burst, sim::Rng &rng,
               bool write_leaf)
{
    return tree.fillDescentTiered(burst, rng, write_leaf, 0, 0.0, 0, 0.0);
}

} // namespace

TEST(CodeLibrary, RegionsDoNotOverlap)
{
    CodeLibrary lib(0x1000000);
    const auto a = lib.add("a", 1000); // rounded to 1024
    const auto b = lib.add("b", 64);
    EXPECT_EQ(a.base, 0x1000000u);
    EXPECT_EQ(a.bytes, 1024u);
    EXPECT_EQ(b.base, a.base + a.bytes);
}

TEST(CodePath, WalkStaysInsideRegion)
{
    CodeLibrary lib(0x1000000);
    const auto region = lib.add("code", 64 * 1024);
    CodePath path;
    path.add(region, 1.0, 0.5);
    sim::Rng rng(5);
    exec::Burst burst;
    for (int i = 0; i < 2000; ++i) {
        burst.clear();
        path.fillWalk(burst, rng, 500);
        EXPECT_GE(burst.code.base, region.base);
        EXPECT_LE(burst.code.base + burst.code.bytes,
                  region.base + region.bytes);
        EXPECT_GT(burst.code.bytes, 0u);
    }
}

TEST(CodePath, WindowIsCapped)
{
    CodeLibrary lib(0x1000000);
    const auto region = lib.add("code", 1 << 20);
    CodePath path;
    path.add(region, 1.0);
    sim::Rng rng(5);
    exec::Burst burst;
    path.fillWalk(burst, rng, 100000); // 400 KB uncapped
    EXPECT_LE(burst.code.bytes, 2048u);
}

TEST(CodePath, HotFractionConcentratesWalks)
{
    CodeLibrary lib(0x1000000);
    const auto region = lib.add("code", 256 * 1024);
    CodePath path;
    path.add(region, 1.0, /*hot=*/0.9, /*hot_bytes=*/16 * 1024);
    sim::Rng rng(5);
    exec::Burst burst;
    int hot = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        burst.clear();
        path.fillWalk(burst, rng, 200);
        if (burst.code.base < region.base + 16 * 1024)
            ++hot;
    }
    EXPECT_GT(static_cast<double>(hot) / n, 0.85);
}

TEST(CodePath, FootprintSumsRegions)
{
    CodeLibrary lib(0x1000000);
    CodePath path;
    path.add(lib.add("a", 1024), 1.0);
    path.add(lib.add("b", 2048), 2.0);
    EXPECT_EQ(path.footprintBytes(), 3072u);
}

TEST(ObjectTree, GeometryAndFootprint)
{
    ObjectTree tree(0x1000000, 3, 4, 128);
    // 1 + 4 + 16 = 21 nodes.
    EXPECT_EQ(tree.numNodes(), 21u);
    EXPECT_EQ(tree.footprintBytes(), 21u * 128u);
    EXPECT_EQ(tree.numLeaves(), 16u);
    EXPECT_EQ(tree.nodeAddr(0, 0), 0x1000000u);
    EXPECT_EQ(tree.nodeAddr(1, 0), 0x1000000u + 128u);
    EXPECT_EQ(tree.nodeAddr(2, 0), 0x1000000u + 5u * 128u);
}

TEST(ObjectTree, DescentLoadsOnePathRootToLeaf)
{
    ObjectTree tree(0x1000000, 4, 8, 128);
    sim::Rng rng(6);
    exec::Burst burst;
    const mem::Addr leaf = uniformDescent(tree, burst, rng, false);
    // One load per level plus the leaf's second line.
    ASSERT_EQ(burst.refs.size(), 5u);
    EXPECT_EQ(burst.refs[0].addr, tree.nodeAddr(0, 0));
    EXPECT_EQ(burst.refs[3].addr, leaf);
    EXPECT_EQ(burst.refs[4].addr, leaf + 64);
    for (const auto &r : burst.refs)
        EXPECT_EQ(r.type, mem::AccessType::Load);
}

TEST(ObjectTree, DescentWriteTouchesLeaf)
{
    ObjectTree tree(0x1000000, 3, 4, 128);
    sim::Rng rng(6);
    exec::Burst burst;
    const mem::Addr leaf = uniformDescent(tree, burst, rng, true);
    EXPECT_EQ(burst.refs.back().type, mem::AccessType::Store);
    EXPECT_EQ(burst.refs.back().addr, leaf);
}

TEST(ObjectTree, HotTierConfinesLeaves)
{
    ObjectTree tree(0x1000000, 4, 8, 128);
    sim::Rng rng(6);
    exec::Burst burst;
    for (int i = 0; i < 2000; ++i) {
        burst.clear();
        const mem::Addr leaf =
            tree.fillDescentTiered(burst, rng, false, 16, 1.0, 0, 0.0);
        EXPECT_LT(leaf, tree.nodeAddr(3, 16));
        EXPECT_GE(leaf, tree.nodeAddr(3, 0));
    }
}

TEST(ObjectTree, TieredDrawsLandInExpectedRanges)
{
    ObjectTree tree(0x1000000, 4, 8, 128);
    sim::Rng rng(6);
    exec::Burst burst;
    int hot = 0, warm = 0, tail = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        burst.clear();
        const mem::Addr leaf = tree.fillDescentTiered(
            burst, rng, false, 32, 0.6, 128, 0.3);
        if (leaf < tree.nodeAddr(3, 32))
            ++hot;
        else if (leaf < tree.nodeAddr(3, 128))
            ++warm;
        else
            ++tail;
    }
    EXPECT_NEAR(static_cast<double>(hot) / n, 0.6 + 0.3 * 32.0 / 96.0,
                0.15);
    EXPECT_GT(warm, 0);
    EXPECT_GT(tail, 0);
}

TEST(ObjectTree, LeafScanIsSequential)
{
    ObjectTree tree(0x1000000, 3, 8, 128);
    sim::Rng rng(6);
    exec::Burst burst;
    tree.fillLeafScan(burst, rng, 5);
    ASSERT_EQ(burst.refs.size(), 5u);
    for (std::size_t i = 1; i < 5; ++i) {
        const mem::Addr delta =
            burst.refs[i].addr - burst.refs[i - 1].addr;
        // Sequential leaves, possibly wrapping to the start.
        EXPECT_TRUE(delta == 128 ||
                    burst.refs[i].addr == tree.nodeAddr(2, 0));
    }
}

class TreeGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(TreeGeometry, EveryDescentReachesAValidLeaf)
{
    const auto [levels, fanout] = GetParam();
    ObjectTree tree(0x2000000, levels, fanout, 128);
    sim::Rng rng(7);
    exec::Burst burst;
    const mem::Addr leaf_base = tree.nodeAddr(levels - 1, 0);
    for (int i = 0; i < 500; ++i) {
        burst.clear();
        const mem::Addr leaf = uniformDescent(tree, burst, rng, false);
        EXPECT_GE(leaf, leaf_base);
        EXPECT_LT(leaf, 0x2000000 + tree.footprintBytes());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeGeometry,
    ::testing::Values(std::pair{2u, 2u}, std::pair{3u, 10u},
                      std::pair{5u, 16u}, std::pair{4u, 12u},
                      std::pair{1u, 2u}));

TEST(BeanCache, MissThenHitUntilTtl)
{
    BeanCache cache(0x1000000, 64, 512, /*ttl=*/1000);
    EXPECT_FALSE(cache.probe(7, 0).hit);
    cache.install(7, 0);
    EXPECT_TRUE(cache.probe(7, 500).hit);
    EXPECT_FALSE(cache.probe(7, 1000).hit); // expired
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(BeanCache, PeekDoesNotCount)
{
    BeanCache cache(0x1000000, 64, 512, 1000);
    cache.peek(7, 0);
    EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST(BeanCache, SlotAddressesWithinSlab)
{
    BeanCache cache(0x1000000, 64, 512, 1000);
    for (std::uint64_t k = 0; k < 200; ++k) {
        const auto p = cache.probe(k, 0);
        EXPECT_GE(p.addr, 0x1000000u);
        EXPECT_LT(p.addr, 0x1000000u + cache.slabBytes());
    }
}

TEST(BeanCache, CollisionEvicts)
{
    BeanCache cache(0x1000000, 1, 512, 1000000);
    cache.install(1, 0);
    EXPECT_TRUE(cache.probe(1, 1).hit);
    cache.install(2, 1); // same (only) slot
    EXPECT_FALSE(cache.probe(1, 2).hit);
    EXPECT_TRUE(cache.probe(2, 2).hit);
}

TEST(BeanCache, OccupiedVsLiveBytes)
{
    BeanCache cache(0x1000000, 64, 512, 1000);
    cache.install(3, 0);
    cache.install(9, 0);
    EXPECT_EQ(cache.occupiedBytes(), 2u * 512u);
    EXPECT_EQ(cache.liveBytes(500), 2u * 512u);
    EXPECT_EQ(cache.liveBytes(2000), 0u); // expired, storage remains
    EXPECT_EQ(cache.occupiedBytes(), 2u * 512u);
}

TEST(Zipf, HeadIsMostPopular)
{
    ZipfSampler zipf(1000, 1.0);
    sim::Rng rng(8);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[999] * 5);
}

TEST(Zipf, SamplesWithinRange)
{
    ZipfSampler zipf(17, 0.8);
    sim::Rng rng(8);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(zipf.sample(rng), 17u);
}

TEST(Kernel, NetBurstShape)
{
    os::KernelModel kernel;
    sim::Rng rng(9);
    const unsigned conn = kernel.makeConnection();
    exec::Burst burst;
    kernel.fillNetBurst(burst, rng, conn, 1024, /*send=*/true);
    EXPECT_EQ(burst.mode, exec::ExecMode::System);
    EXPECT_GE(burst.instructions, kernel.params().netSendInstr);
    EXPECT_FALSE(burst.refs.empty());
    EXPECT_GE(burst.code.base, os::KernelModel::textBase);
    bool touches_mbuf = false;
    for (const auto &r : burst.refs) {
        touches_mbuf |= r.addr >= os::KernelModel::mbufPool &&
                        r.addr < os::KernelModel::mbufPool +
                                     os::KernelModel::mbufPoolBytes;
    }
    EXPECT_TRUE(touches_mbuf);
}

TEST(Kernel, ConnectionsGetDistinctSocketBuffers)
{
    os::KernelModel kernel;
    sim::Rng rng(9);
    const unsigned c0 = kernel.makeConnection();
    const unsigned c1 = kernel.makeConnection();
    exec::Burst b0, b1;
    kernel.fillNetBurst(b0, rng, c0, 512, true);
    kernel.fillNetBurst(b1, rng, c1, 512, true);
    std::set<mem::Addr> sock0, sock1;
    auto collect = [](const exec::Burst &b, std::set<mem::Addr> &out) {
        for (const auto &r : b.refs) {
            if (r.addr >= os::KernelModel::socketBufs)
                out.insert(r.addr);
        }
    };
    collect(b0, sock0);
    collect(b1, sock1);
    ASSERT_FALSE(sock0.empty());
    for (auto a : sock0)
        EXPECT_EQ(sock1.count(a), 0u);
}

TEST(Kernel, HousekeeperAlternatesBurstAndWait)
{
    os::KernelModel kernel;
    auto hk = kernel.makeHousekeeper(3, sim::Rng(10));
    exec::Burst burst;
    for (int i = 0; i < 6; ++i) {
        burst.clear();
        const auto op = hk->next(burst, 0);
        if (i % 2 == 0) {
            EXPECT_EQ(op.kind, exec::OpKind::Burst);
            EXPECT_EQ(burst.mode, exec::ExecMode::System);
        } else {
            EXPECT_EQ(op.kind, exec::OpKind::Wait);
            EXPECT_GT(op.wait, 0u);
        }
    }
}

TEST(Kernel, NetstackLockIsSpin)
{
    os::KernelModel kernel;
    EXPECT_TRUE(kernel.netstackLock().isSpinLock());
}
