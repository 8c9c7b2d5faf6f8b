/**
 * @file
 * CPI breakdown records matching the paper's stall taxonomy.
 *
 * Figure 6 splits cycles per instruction into {other, instruction
 * stall, data stall}; Figure 7 further decomposes data stall time into
 * {store buffer, read-after-write, other, L2 hit, cache-to-cache,
 * memory}. CpiBreakdown holds cycle counts in exactly those buckets.
 */

#ifndef CPU_CPISTATS_HH
#define CPU_CPISTATS_HH

#include <cstdint>
#include <utility>

#include "sim/ticks.hh"

namespace middlesim::cpu
{

/** Cycle accounting in the paper's Figure 6 / Figure 7 buckets. */
struct CpiBreakdown
{
    std::uint64_t instructions = 0;

    /** Execution + non-memory stalls ("Other" in Figure 6). */
    sim::Tick base = 0;
    /** Instruction fetch stalls. */
    sim::Tick iStall = 0;

    /** Data stall components (Figure 7). */
    sim::Tick dsStoreBuf = 0;
    sim::Tick dsRaw = 0;
    sim::Tick dsL2Hit = 0;
    sim::Tick dsC2C = 0;
    sim::Tick dsMemory = 0;
    /** L1-related / upgrade / miscellaneous data stalls. */
    sim::Tick dsOther = 0;

    sim::Tick
    dataStall() const
    {
        return dsStoreBuf + dsRaw + dsL2Hit + dsC2C + dsMemory + dsOther;
    }

    sim::Tick totalCycles() const { return base + iStall + dataStall(); }

    double
    cpi() const
    {
        return instructions
            ? static_cast<double>(totalCycles()) /
              static_cast<double>(instructions)
            : 0.0;
    }

    double
    fraction(sim::Tick bucket) const
    {
        const sim::Tick t = totalCycles();
        return t ? static_cast<double>(bucket) / static_cast<double>(t)
                 : 0.0;
    }

    /** Every counter by its metric name, in RunResult payload order. */
    static constexpr std::pair<const char *, std::uint64_t CpiBreakdown::*>
        counters[] = {
            {"instructions", &CpiBreakdown::instructions},
            {"cycles.base", &CpiBreakdown::base},
            {"cycles.istall", &CpiBreakdown::iStall},
            {"cycles.ds_storebuf", &CpiBreakdown::dsStoreBuf},
            {"cycles.ds_raw", &CpiBreakdown::dsRaw},
            {"cycles.ds_l2hit", &CpiBreakdown::dsL2Hit},
            {"cycles.ds_c2c", &CpiBreakdown::dsC2C},
            {"cycles.ds_memory", &CpiBreakdown::dsMemory},
            {"cycles.ds_other", &CpiBreakdown::dsOther},
        };

    void
    accumulate(const CpiBreakdown &o)
    {
        for (const auto &[name, counter] : counters)
            this->*counter += o.*counter;
    }
};

} // namespace middlesim::cpu

#endif // CPU_CPISTATS_HH
