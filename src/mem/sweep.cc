#include "mem/sweep.hh"

namespace middlesim::mem
{

SweepSimulator::Bank::Bank(const std::vector<sim::CacheParams> &configs)
    : refine(configs)
{
    for (const auto &params : configs)
        results.push_back({params, 0, 0});
}

SweepSimulator::SweepSimulator(
    const std::vector<sim::CacheParams> &configs)
    : ibank_(configs), dbank_(configs)
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

void
SweepSimulator::access(const MemRef &ref)
{
    if (ref.type == AccessType::IFetch) {
        ibank_.refine.access(ref.addr, /*count_miss=*/true);
    } else {
        // Block-initializing stores install without a fetch: counted
        // as an access, never a miss.
        dbank_.refine.access(
            ref.addr, /*count_miss=*/ref.type != AccessType::BlockStore);
    }
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
