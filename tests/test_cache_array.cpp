/**
 * @file
 * Unit and property tests for the set-associative cache array.
 */

#include <gtest/gtest.h>

#include <string>

#include "mem/cache_array.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"

using namespace middlesim;
using mem::CacheArray;
using mem::CacheLine;
using mem::CoherenceState;

namespace
{

CacheLine &
fill(CacheArray &cache, mem::Addr addr,
     CoherenceState st = CoherenceState::Shared)
{
    CacheLine &frame = cache.victim(addr);
    cache.install(frame, addr, st);
    return frame;
}

/** Way of `line` within the set holding `addr`. */
char
wayOf(const CacheArray &cache, mem::Addr addr, const CacheLine &line)
{
    return static_cast<char>(&line - cache.setOf(addr).first);
}

} // namespace

TEST(CacheArray, MissThenHit)
{
    CacheArray cache({4096, 2, 64});
    EXPECT_EQ(cache.find(0x1000), nullptr);
    fill(cache, 0x1000);
    CacheLine *line = cache.find(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tag(), 0x1000u);
    EXPECT_EQ(line->state(), CoherenceState::Shared);
}

TEST(CacheArray, BlockGranularity)
{
    CacheArray cache({4096, 2, 64});
    fill(cache, 0x1000);
    // Any address within the same 64-byte block hits.
    EXPECT_NE(cache.find(0x103F), nullptr);
    EXPECT_EQ(cache.find(0x1040), nullptr);
    EXPECT_EQ(cache.blockAddr(0x103F), 0x1000u);
}

TEST(CacheArray, AssociativityConflict)
{
    // 2-way, 64B blocks, 2048B total -> 16 sets; addresses 16*64=1024
    // apart map to the same set.
    CacheArray cache({2048, 2, 64});
    const mem::Addr stride = 16 * 64;
    fill(cache, 0);
    fill(cache, stride);
    EXPECT_NE(cache.find(0), nullptr);
    EXPECT_NE(cache.find(stride), nullptr);
    // Third line in the same set evicts the LRU (addr 0).
    fill(cache, 2 * stride);
    EXPECT_EQ(cache.find(0), nullptr);
    EXPECT_NE(cache.find(stride), nullptr);
    EXPECT_NE(cache.find(2 * stride), nullptr);
}

TEST(CacheArray, TouchUpdatesLru)
{
    CacheArray cache({2048, 2, 64});
    const mem::Addr stride = 16 * 64;
    fill(cache, 0);
    fill(cache, stride);
    cache.touch(*cache.find(0)); // make addr 0 MRU
    fill(cache, 2 * stride);     // evicts stride, not 0
    EXPECT_NE(cache.find(0), nullptr);
    EXPECT_EQ(cache.find(stride), nullptr);
}

TEST(CacheArray, StreamingInstallIsFirstVictim)
{
    CacheArray cache({2048, 2, 64});
    const mem::Addr stride = 16 * 64;
    fill(cache, 0);
    CacheLine &frame = cache.victim(stride);
    cache.installStreaming(frame, stride, CoherenceState::Modified);
    EXPECT_NE(cache.find(stride), nullptr);
    // A new conflicting line evicts the streaming line, not addr 0.
    fill(cache, 2 * stride);
    EXPECT_NE(cache.find(0), nullptr);
    EXPECT_EQ(cache.find(stride), nullptr);
}

TEST(CacheArray, InvalidateAll)
{
    CacheArray cache({4096, 4, 64});
    for (int i = 0; i < 16; ++i)
        fill(cache, static_cast<mem::Addr>(i) * 64);
    EXPECT_EQ(cache.validCount(), 16u);
    cache.invalidateAll();
    EXPECT_EQ(cache.validCount(), 0u);
    EXPECT_EQ(cache.find(0), nullptr);
}

TEST(CacheArray, VictimPrefersInvalid)
{
    CacheArray cache({2048, 2, 64});
    fill(cache, 0);
    // The second frame of the set is still invalid: victim must pick
    // it rather than evicting the valid line.
    CacheLine &victim = cache.victim(16 * 64);
    EXPECT_FALSE(victim.valid());
}

TEST(CacheArray, SetOfReturnsFullSet)
{
    CacheArray cache({2048, 2, 64});
    auto [begin, end] = cache.setOf(0);
    EXPECT_EQ(end - begin, 2);
}

struct ArrayGeom
{
    std::uint64_t size;
    unsigned assoc;
    unsigned block;
};

class CacheArrayGeometry : public ::testing::TestWithParam<ArrayGeom>
{
};

TEST_P(CacheArrayGeometry, HoldsExactlyCapacityDistinctBlocks)
{
    const auto g = GetParam();
    CacheArray cache({g.size, g.assoc, g.block});
    const std::uint64_t blocks = g.size / g.block;
    // Sequential fill exactly reaches capacity with no self-eviction.
    for (std::uint64_t i = 0; i < blocks; ++i)
        fill(cache, i * g.block);
    EXPECT_EQ(cache.validCount(), blocks);
    for (std::uint64_t i = 0; i < blocks; ++i)
        EXPECT_NE(cache.find(i * g.block), nullptr) << i;
    // One more block evicts exactly one line.
    fill(cache, blocks * g.block);
    EXPECT_EQ(cache.validCount(), blocks);
}

TEST_P(CacheArrayGeometry, LruIsExactWithinSet)
{
    const auto g = GetParam();
    CacheArray cache({g.size, g.assoc, g.block});
    const std::uint64_t sets = g.size / g.block / g.assoc;
    const std::uint64_t stride =
        sets * g.block; // same-set stride
    // Fill one set, then access in order; evictions must follow LRU.
    for (unsigned w = 0; w < g.assoc; ++w)
        fill(cache, w * stride);
    // Re-touch all but the first.
    for (unsigned w = 1; w < g.assoc; ++w)
        cache.touch(*cache.find(w * stride));
    fill(cache, static_cast<std::uint64_t>(g.assoc) * stride);
    EXPECT_EQ(cache.find(0), nullptr);
    for (unsigned w = 1; w < g.assoc; ++w)
        EXPECT_NE(cache.find(w * stride), nullptr);
}

TEST(CacheArray, ReplacementOrderIsPinned)
{
    // A seeded mix of find, touch, install, streaming install and
    // single-line invalidation on 8-set arrays of 1 to 64 ways,
    // digesting every find's way and state and every victim's way.
    // The constant was recorded on the 24-byte line, so any later
    // line layout must keep its exact true-LRU order.
    static const CoherenceState kStates[] = {
        CoherenceState::Shared, CoherenceState::Owned,
        CoherenceState::Modified, CoherenceState::Exclusive};
    std::string buf;
    for (const unsigned assoc : {1u, 2u, 4u, 8u, 64u}) {
        CacheArray cache({8ull * assoc * 64, assoc, 64});
        sim::Rng rng(0xca5e + assoc);
        for (unsigned i = 0; i < 20000; ++i) {
            // Twice the array's blocks, at any offset in the block.
            const mem::Addr addr =
                rng.uniform(16ull * assoc) * 64 + rng.uniform(64);
            const auto op = rng.uniform(5);
            CacheLine *line = cache.find(addr);
            buf.push_back(line ? wayOf(cache, addr, *line) : -1);
            buf.push_back(line ? static_cast<char>(line->state()) : -1);
            if (line) {
                if (op == 1)
                    cache.touch(*line);
                else if (op == 4)
                    line->setState(CoherenceState::Invalid);
                continue;
            }
            if (op != 2 && op != 3)
                continue;
            CacheLine &frame = cache.victim(addr);
            buf.push_back(wayOf(cache, addr, frame));
            buf.push_back(frame.valid());
            const CoherenceState st = kStates[rng.uniform(4)];
            if (op == 2)
                cache.install(frame, addr, st);
            else
                cache.installStreaming(frame, addr, st);
        }
    }
    EXPECT_EQ(sim::fnv1a64(buf), 0x1facaf3df8eda678ULL);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayGeometry,
    ::testing::Values(ArrayGeom{1024, 1, 64}, ArrayGeom{2048, 2, 64},
                      ArrayGeom{16384, 4, 64}, ArrayGeom{16384, 4, 32},
                      ArrayGeom{65536, 8, 64},
                      ArrayGeom{1u << 20, 4, 64},
                      ArrayGeom{8192, 2, 128}));
