/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/rng.hh"

using middlesim::sim::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformBoundOneIsZero)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.uniform(1), 0u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.uniform(0), 0u);
}

TEST(Rng, UniformCoversAllValues)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniform(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, RealMeanNearHalf)
{
    Rng rng(17);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.real();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-1.0));
        EXPECT_TRUE(rng.chance(2.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(23);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(31);
    Rng child = parent.fork();
    // The child stream differs from the parent's continuation.
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent.next() == child.next())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkedSiblingsDiffer)
{
    Rng parent(37);
    Rng a = parent.fork();
    Rng b = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 5);
}

class RngUniformSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngUniformSweep, MeanIsCentered)
{
    const std::uint64_t bound = GetParam();
    Rng rng(bound * 2654435761u + 1);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.uniform(bound));
    const double expect = (static_cast<double>(bound) - 1.0) / 2.0;
    EXPECT_NEAR(sum / n, expect,
                std::max(0.05, 0.01 * static_cast<double>(bound)));
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngUniformSweep,
                         ::testing::Values(2, 3, 7, 10, 64, 1000,
                                           65536));
