/**
 * @file
 * Multi-size uniprocessor cache sweep tests: the split I/D banks,
 * counters and counter resets, and bit-identity of the single-pass engine with
 * the naive per-configuration oracle (tests/naive_sweep.hh).
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/sweep.hh"
#include "naive_sweep.hh"
#include "sim/rng.hh"

using namespace middlesim;
using mem::AccessType;
using mem::SweepSimulator;
using test::NaiveSweep;
using test::nextRef;

TEST(Sweep, PaperConfigsSpan64KTo16M)
{
    const auto configs = SweepSimulator::paperSweep();
    ASSERT_EQ(configs.size(), 9u);
    EXPECT_EQ(configs.front().sizeBytes, 64u * 1024u);
    EXPECT_EQ(configs.back().sizeBytes, 16u * 1024u * 1024u);
    for (const auto &c : configs) {
        EXPECT_EQ(c.assoc, 4u);
        EXPECT_EQ(c.blockBytes, 64u);
    }
}

TEST(Sweep, SplitCachesByAccessType)
{
    SweepSimulator sweep({{4096, 2, 64}});
    sweep.access({0x1000, AccessType::IFetch, 0});
    sweep.access({0x1000, AccessType::Load, 0});
    EXPECT_EQ(sweep.icacheResults()[0].accesses, 1u);
    EXPECT_EQ(sweep.icacheResults()[0].misses, 1u);
    EXPECT_EQ(sweep.dcacheResults()[0].accesses, 1u);
    EXPECT_EQ(sweep.dcacheResults()[0].misses, 1u);
    // Second data access hits.
    sweep.access({0x1000, AccessType::Store, 0});
    EXPECT_EQ(sweep.dcacheResults()[0].misses, 1u);
}

TEST(Sweep, BlockStoreInstallsWithoutMiss)
{
    SweepSimulator sweep({{4096, 2, 64}});
    sweep.access({0x2000, AccessType::BlockStore, 0});
    EXPECT_EQ(sweep.dcacheResults()[0].misses, 0u);
    EXPECT_EQ(sweep.dcacheResults()[0].accesses, 1u);
    // Follow-up load hits the installed line.
    sweep.access({0x2000, AccessType::Load, 0});
    EXPECT_EQ(sweep.dcacheResults()[0].misses, 0u);
}

TEST(Sweep, LargerCachesMissLess)
{
    SweepSimulator sweep(SweepSimulator::paperSweep());
    sim::Rng rng(3);
    for (int i = 0; i < 200000; ++i) {
        // 8 MB working set: intermediate sizes discriminate.
        sweep.access({rng.uniform(128 * 1024) * 64,
                      AccessType::Load, 0});
    }
    const auto &res = sweep.dcacheResults();
    for (std::size_t i = 1; i < res.size(); ++i)
        EXPECT_LE(res[i].misses, res[i - 1].misses) << i;
    // 16 MB holds the whole set: only compulsory misses remain.
    EXPECT_LE(res.back().misses, 128u * 1024u);
}

TEST(Sweep, MissesPer1000Instructions)
{
    SweepSimulator sweep({{4096, 2, 64}});
    for (int i = 0; i < 10; ++i)
        sweep.access({static_cast<mem::Addr>(i) * 4096 * 16,
                      AccessType::Load, 0});
    sweep.countInstructions(5000);
    EXPECT_DOUBLE_EQ(
        sweep.dcacheResults()[0].missesPer1000(sweep.instructions()), 2.0);
    EXPECT_DOUBLE_EQ(
        sweep.icacheResults()[0].missesPer1000(sweep.instructions()), 0.0);
}

TEST(Sweep, ResetCountersKeepsContents)
{
    SweepSimulator sweep({{4096, 2, 64}});
    sweep.access({0x1000, AccessType::Load, 0});
    sweep.countInstructions(100);
    sweep.resetCounters();
    EXPECT_EQ(sweep.instructions(), 0u);
    EXPECT_EQ(sweep.dcacheResults()[0].accesses, 0u);
    // Contents survive: this access hits.
    sweep.access({0x1000, AccessType::Load, 0});
    EXPECT_EQ(sweep.dcacheResults()[0].misses, 0u);
}

TEST(Sweep, FastPathMatchesNaiveReference)
{
    // Scaled-down ladder (64 KB..1 MB) so a 120k-reference trace
    // exercises every cache's capacity.
    std::vector<sim::CacheParams> configs;
    for (std::uint64_t kb = 64; kb <= 1024; kb *= 2)
        configs.push_back({kb * 1024, 4, 64});

    SweepSimulator sweep(configs);
    NaiveSweep naive(configs);

    sim::Rng rng(11);
    mem::Addr cursor = 0;
    for (int i = 0; i < 120000; ++i) {
        const mem::MemRef ref = nextRef(rng, cursor);
        sweep.access(ref);
        naive.access(ref);
    }

    test::expectMatchesOracle(sweep.icacheResults(),
                              sweep.dcacheResults(), naive);
    // The trace discriminates: some config actually missed.
    const auto &dres = sweep.dcacheResults();
    EXPECT_GT(dres.front().misses, 0u);
    EXPECT_LT(dres.back().misses, dres.front().misses);
}

TEST(Sweep, FastPathMatchesNaiveAcrossCounterReset)
{
    // resetCounters() (warmup boundary) keeps contents and the memo;
    // the post-reset miss counts must still match the reference.
    std::vector<sim::CacheParams> configs;
    for (std::uint64_t kb = 64; kb <= 512; kb *= 2)
        configs.push_back({kb * 1024, 4, 64});

    SweepSimulator sweep(configs);
    NaiveSweep naive(configs);

    sim::Rng rng(23);
    mem::Addr cursor = 0;
    for (int i = 0; i < 80000; ++i) {
        if (i == 40000) {
            sweep.resetCounters();
            naive.resetCounters();
        }
        const mem::MemRef ref = nextRef(rng, cursor);
        sweep.access(ref);
        naive.access(ref);
    }
    test::expectMatchesOracle(sweep.icacheResults(),
                              sweep.dcacheResults(), naive);
}

TEST(Sweep, EnginesBitIdenticalOnPaperSweep)
{
    // The single-pass engine vs the naive oracle on the full paper
    // sweep: identical miss and access counts for every geometry.
    const auto configs = SweepSimulator::paperSweep();
    SweepSimulator sweep(configs);
    NaiveSweep naive(configs);

    sim::Rng rng(31);
    mem::Addr cursor = 0;
    for (int i = 0; i < 120000; ++i) {
        const mem::MemRef ref = nextRef(rng, cursor);
        sweep.access(ref);
        naive.access(ref);
    }
    test::expectMatchesOracle(sweep.icacheResults(),
                              sweep.dcacheResults(), naive);
}

TEST(Sweep, WarmupMemoSurvivesCounterReset)
{
    // The repeated-block memo is deliberately kept across
    // resetCounters(). A post-warmup repeat of the last pre-warmup
    // block must be counted as an access and score as a hit — the
    // memoized block is still resident and still MRU — exactly as in
    // the oracle.
    const auto configs = SweepSimulator::paperSweep();
    SweepSimulator sweep(configs);
    NaiveSweep naive(configs);
    const std::vector<mem::MemRef> warmup = {
        {0xABC40, AccessType::Load, 0},   // warmup miss
        {0xABC44, AccessType::Store, 0},  // memo repeat
        {0xABC40, AccessType::IFetch, 0}, // I-bank too
    };
    // Same block again, first thing after the warmup boundary.
    const std::vector<mem::MemRef> measured = {
        {0xABC48, AccessType::Load, 0},
        {0xABC4C, AccessType::IFetch, 0},
    };
    for (const mem::MemRef &ref : warmup) {
        sweep.access(ref);
        naive.access(ref);
    }
    sweep.resetCounters();
    naive.resetCounters();
    for (const mem::MemRef &ref : measured) {
        sweep.access(ref);
        naive.access(ref);
    }

    test::expectMatchesOracle(sweep.icacheResults(),
                              sweep.dcacheResults(), naive);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(sweep.dcacheResults()[i].accesses, 1u) << i;
        EXPECT_EQ(sweep.dcacheResults()[i].misses, 0u) << i;
        EXPECT_EQ(sweep.icacheResults()[i].accesses, 1u) << i;
        EXPECT_EQ(sweep.icacheResults()[i].misses, 0u) << i;
    }
}
