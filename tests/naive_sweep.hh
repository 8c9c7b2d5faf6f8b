/**
 * @file
 * The naive reference model of mem::SweepSimulator, shared by the
 * sweep tests: every configuration simulated independently with its
 * own CacheArray. Also the clustered reference-stream generator the
 * equivalence tests feed to both.
 */

#ifndef TESTS_NAIVE_SWEEP_HH
#define TESTS_NAIVE_SWEEP_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/memref.hh"
#include "mem/sweep.hh"
#include "sim/config.hh"
#include "sim/rng.hh"

namespace middlesim::test
{

/** One bank of the oracle: every configuration simulated alone. */
struct NaiveBank
{
    std::vector<mem::CacheArray> caches;
    std::vector<std::uint64_t> misses;
    std::uint64_t accesses = 0;

    explicit NaiveBank(const std::vector<sim::CacheParams> &configs)
        : misses(configs.size(), 0)
    {
        for (const auto &params : configs)
            caches.emplace_back(params);
    }

    void
    access(mem::Addr addr, bool count_misses)
    {
        ++accesses;
        for (std::size_t i = 0; i < caches.size(); ++i) {
            mem::CacheArray &cache = caches[i];
            if (mem::CacheLine *line = cache.find(addr)) {
                cache.touch(*line);
            } else {
                if (count_misses)
                    ++misses[i];
                mem::CacheLine &frame = cache.victim(addr);
                cache.install(frame, addr,
                              mem::CoherenceState::Shared);
            }
        }
    }

    /** Zero the counters but keep the contents (warmup boundary). */
    void
    resetCounters()
    {
        accesses = 0;
        misses.assign(misses.size(), 0);
    }
};

/** The oracle of the full split sweep. */
struct NaiveSweep
{
    NaiveBank ibank;
    NaiveBank dbank;

    explicit NaiveSweep(const std::vector<sim::CacheParams> &configs)
        : ibank(configs), dbank(configs)
    {
    }

    void
    access(const mem::MemRef &ref)
    {
        if (ref.type == mem::AccessType::IFetch)
            ibank.access(ref.addr, true);
        else
            dbank.access(ref.addr,
                         ref.type != mem::AccessType::BlockStore);
    }

    void
    resetCounters()
    {
        ibank.resetCounters();
        dbank.resetCounters();
    }
};

/** Per-configuration equality of sweep results with the oracle. */
inline void
expectMatchesOracle(const std::vector<mem::SweepResult> &icache,
                    const std::vector<mem::SweepResult> &dcache,
                    const NaiveSweep &oracle)
{
    ASSERT_EQ(icache.size(), oracle.ibank.misses.size());
    ASSERT_EQ(dcache.size(), oracle.dbank.misses.size());
    for (std::size_t i = 0; i < icache.size(); ++i) {
        EXPECT_EQ(icache[i].accesses, oracle.ibank.accesses)
            << "icache config " << i;
        EXPECT_EQ(icache[i].misses, oracle.ibank.misses[i])
            << "icache config " << i;
        EXPECT_EQ(dcache[i].accesses, oracle.dbank.accesses)
            << "dcache config " << i;
        EXPECT_EQ(dcache[i].misses, oracle.dbank.misses[i])
            << "dcache config " << i;
    }
}

/** A clustered trace: repeats, streaming runs, random far jumps. */
inline mem::MemRef
nextRef(sim::Rng &rng, mem::Addr &cursor)
{
    const auto move = rng.uniform(100);
    if (move < 35) {
        // Stay in the current block (different byte offset).
    } else if (move < 75) {
        cursor += 64; // sequential run
    } else {
        cursor = rng.uniform(32 * 1024) * 64; // far jump
    }
    const auto kind = rng.uniform(100);
    mem::AccessType type = mem::AccessType::Load;
    if (kind < 35)
        type = mem::AccessType::IFetch;
    else if (kind < 45)
        type = mem::AccessType::Store;
    else if (kind < 50)
        type = mem::AccessType::BlockStore;
    return {cursor + rng.uniform(64), type, 0};
}

} // namespace middlesim::test

#endif // TESTS_NAIVE_SWEEP_HH
