#include "mem/sweep.hh"

#include <bit>

namespace middlesim::mem
{

SweepSimulator::Bank::Bank(const std::vector<sim::CacheParams> &configs,
                           unsigned slices)
    : refine(configs, slices)
{
    for (const auto &params : configs)
        results.push_back({params, 0, 0});
}

SweepSimulator::SweepSimulator(
    const std::vector<sim::CacheParams> &configs)
    : SweepSimulator(configs, 0, 1)
{
}

SweepSimulator::SweepSimulator(
    const std::vector<sim::CacheParams> &configs, unsigned slice,
    unsigned slices)
    : ibank_(configs, slices), dbank_(configs, slices),
      blockShift_(static_cast<unsigned>(
          std::countr_zero(configs.front().blockBytes))),
      sliceMask_(slices - 1), slice_(slice)
{
}

std::vector<sim::CacheParams>
SweepSimulator::paperSweep()
{
    std::vector<sim::CacheParams> configs;
    for (std::uint64_t kb = 64; kb <= 16 * 1024; kb *= 2)
        configs.push_back({kb * 1024, 4, 64});
    return configs;
}

const std::vector<SweepResult> &
SweepSimulator::syncedResults(const Bank &bank)
{
    for (std::size_t i = 0; i < bank.results.size(); ++i) {
        bank.results[i].accesses = bank.refine.accesses();
        bank.results[i].misses = bank.refine.misses(i);
    }
    return bank.results;
}

const std::vector<SweepResult> &
SweepSimulator::icacheResults() const
{
    return syncedResults(ibank_);
}

const std::vector<SweepResult> &
SweepSimulator::dcacheResults() const
{
    return syncedResults(dbank_);
}

void
SweepSimulator::resetCounters()
{
    // Cache contents survive a counter reset (the warmup boundary),
    // and so does the engine's repeated-block memo: the memoized block
    // is still resident and still MRU, so a post-reset repeat is
    // correctly scored as a hit (regression tested in
    // tests/test_sweep.cpp).
    ibank_.refine.resetCounters();
    dbank_.refine.resetCounters();
    instructions_ = 0;
}

} // namespace middlesim::mem
