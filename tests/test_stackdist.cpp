/**
 * @file
 * Set-refinement sweep engine tests: exact equivalence against the
 * naive per-configuration oracle (tests/naive_sweep.hh) across
 * randomized geometries and streams, counter resets, and the fatal
 * rejection of geometry lists the engine cannot represent.
 *
 * The randomized pass reuses the seeded stress RNG (sim::Rng) so
 * every failure is reproducible from the printed trial. Set
 * MIDDLESIM_DEEP_SWEEP=1 (the nightly workflow does) for a deeper
 * pass: more trials and longer streams.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <string>
#include <vector>

#include "mem/stackdist/refinement.hh"
#include "mem/sweep.hh"
#include "naive_sweep.hh"
#include "sim/rng.hh"

using namespace middlesim;
using mem::SweepSimulator;

namespace
{

bool
deepSweep()
{
    const char *env = std::getenv("MIDDLESIM_DEEP_SWEEP");
    return env && *env != '\0' && *env != '0';
}

/** Random refinement-suitable geometry list (common block size). */
std::vector<sim::CacheParams>
randomGeometries(sim::Rng &rng)
{
    const unsigned block = 32u << rng.uniform(3); // 32/64/128
    const std::size_t count = 1 + rng.uniform(4);
    std::vector<sim::CacheParams> configs;
    for (std::size_t i = 0; i < count; ++i) {
        const unsigned assoc =
            static_cast<unsigned>(1 + rng.uniform(8));
        const std::uint64_t sets = std::uint64_t{1} << rng.uniform(8);
        configs.push_back(
            {sets * assoc * block, assoc, block});
    }
    return configs;
}

} // namespace

TEST(Refinement, MatchesNaiveAcrossRandomGeometries)
{
    // At least 50 random geometry trials, both banks, clustered
    // streams, exact equality against the naive CacheArray walk.
    const int trials = deepSweep() ? 300 : 60;
    const int steps = deepSweep() ? 12000 : 4000;
    for (int trial = 0; trial < trials; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        sim::Rng rng(0x5EED0000u + static_cast<std::uint64_t>(trial));
        const auto configs = randomGeometries(rng);
        ASSERT_TRUE(
            mem::stackdist::RefinementSweep::suitable(configs));

        SweepSimulator sweep(configs);
        test::NaiveSweep naive(configs);
        mem::Addr cursor = 0;
        for (int step = 0; step < steps; ++step) {
            const mem::MemRef ref = test::nextRef(rng, cursor);
            sweep.access(ref);
            naive.access(ref);
        }
        test::expectMatchesOracle(sweep.icacheResults(),
                                  sweep.dcacheResults(), naive);
    }
}

TEST(Refinement, SlicesSumToTheUnslicedEngine)
{
    // P set slices, each fed only its own blocks, count per geometry
    // exactly what one unsliced engine counts, across a counter reset.
    const int trials = deepSweep() ? 300 : 60;
    const int steps = deepSweep() ? 12000 : 4000;
    for (int trial = 0; trial < trials; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        sim::Rng rng(0x5EED0000u + static_cast<std::uint64_t>(trial));
        const auto configs = randomGeometries(rng);
        const std::uint64_t max_slices =
            mem::stackdist::RefinementSweep::maxSlices(configs);
        std::vector<mem::Addr> stream;
        std::vector<bool> count_miss;
        mem::Addr cursor = 0;
        for (int step = 0; step < steps; ++step) {
            const mem::MemRef ref = test::nextRef(rng, cursor);
            stream.push_back(ref.addr);
            count_miss.push_back(ref.type != mem::AccessType::BlockStore);
        }
        const unsigned shift = static_cast<unsigned>(
            std::countr_zero(configs.front().blockBytes));
        for (unsigned slices = 1; slices <= 8 && slices <= max_slices;
             slices *= 2) {
            SCOPED_TRACE(std::to_string(slices) + " slices");
            mem::stackdist::RefinementSweep whole(configs);
            std::vector<mem::stackdist::RefinementSweep> parts;
            for (unsigned s = 0; s < slices; ++s)
                parts.emplace_back(configs, slices);
            const auto feed = [&](std::size_t from, std::size_t to) {
                for (std::size_t i = from; i < to; ++i) {
                    whole.access(stream[i], count_miss[i]);
                    parts[(stream[i] >> shift) & (slices - 1)].access(
                        stream[i], count_miss[i]);
                }
            };
            const auto expectSums = [&] {
                std::uint64_t accesses = 0;
                for (const auto &part : parts)
                    accesses += part.accesses();
                EXPECT_EQ(accesses, whole.accesses());
                for (std::size_t k = 0; k < configs.size(); ++k) {
                    std::uint64_t misses = 0;
                    for (const auto &part : parts)
                        misses += part.misses(k);
                    EXPECT_EQ(misses, whole.misses(k)) << "config " << k;
                }
            };
            feed(0, stream.size() / 2);
            expectSums();
            whole.resetCounters();
            for (auto &part : parts)
                part.resetCounters();
            feed(stream.size() / 2, stream.size());
            expectSums();
        }
    }
}

TEST(Refinement, ResetCountersKeepsContents)
{
    const auto configs = SweepSimulator::paperSweep();
    mem::stackdist::RefinementSweep refine(configs);
    refine.access(0x4000, true);
    refine.access(0x8000, true);
    refine.resetCounters();
    EXPECT_EQ(refine.accesses(), 0u);
    EXPECT_EQ(refine.misses(0), 0u);
    refine.access(0x8000, true); // post-reset repeat of last block
    refine.access(0x4000, true); // and of the one before it
    EXPECT_EQ(refine.accesses(), 2u);
    for (std::size_t i = 0; i < configs.size(); ++i)
        EXPECT_EQ(refine.misses(i), 0u) << "config " << i;
}

TEST(SweepDeath, UnrepresentableGeometriesAreFatal)
{
    // The engine represents any geometry list sharing one
    // power-of-two block size with power-of-two set counts and at
    // most 64 ways; anything else is rejected at construction with
    // that rule, never approximated.
    const std::vector<std::vector<sim::CacheParams>> rejected = {
        {{2 * 128 * 64, 128, 64}},                 // 128 ways
        {{64 * 1024, 4, 32}, {128 * 1024, 4, 64}}, // two block sizes
        {{3 * 4 * 64, 4, 64}},                     // three sets
    };
    for (const auto &configs : rejected) {
        EXPECT_FALSE(mem::stackdist::RefinementSweep::suitable(configs));
        EXPECT_EXIT(SweepSimulator{configs}, ::testing::ExitedWithCode(1),
                    "one power-of-two block size, power-of-two set "
                    "counts and associativity <= 64");
    }

    // Set slices: a power of two no larger than the smallest set
    // count (256 in the paper sweep).
    const auto paper = SweepSimulator::paperSweep();
    for (unsigned slices : {0u, 3u, 512u}) {
        EXPECT_EXIT((SweepSimulator{paper, 0, slices}),
                    ::testing::ExitedWithCode(1),
                    "the count must be a power of two no larger than "
                    "the smallest set count, 256");
    }
}
