/**
 * @file
 * Digitized reference data from the paper's figures.
 *
 * The paper provides no numeric tables; these series are approximate
 * digitizations of Figures 4-16 guided by the prose (e.g. "ECperf
 * achieves a peak speedup of approximately 10 on 12 processors",
 * "starts at 25% for two processors and increases rapidly to over 60%
 * for fourteen"). They define the *shape targets* the benches compare
 * against; absolute values are indicative only.
 */

#ifndef CORE_PAPER_HH
#define CORE_PAPER_HH

#include "stats/series.hh"

namespace middlesim::core::paper
{

/** Processor counts used on the x-axis of Figures 4-9. */
const std::vector<double> &cpuSweep();

/** Figure 4: throughput speedup vs processors. */
stats::Series fig4Ecperf();
stats::Series fig4SpecJbb();

/** Figure 5: execution-mode fractions (percent) vs processors. */
stats::Series fig5EcperfSystem();
stats::Series fig5EcperfIdle();
stats::Series fig5SpecJbbSystem();
stats::Series fig5SpecJbbIdle();

/** Figure 6: total CPI vs processors. */
stats::Series fig6EcperfCpi();
stats::Series fig6SpecJbbCpi();

/** Figure 7: c2c share of data stall time (fraction) vs processors. */
stats::Series fig7EcperfC2cShare();
stats::Series fig7SpecJbbC2cShare();

/** Figure 8: cache-to-cache transfer ratio (percent of L2 misses). */
stats::Series fig8Ecperf();
stats::Series fig8SpecJbb();

/** Figure 11: live memory (MB) vs scale factor. */
stats::Series fig11Ecperf();
stats::Series fig11SpecJbb();

/** Figures 12/13: misses per 1000 instructions vs cache size (KB). */
stats::Series fig12EcperfIcache();
stats::Series fig12SpecJbbIcache();
stats::Series fig13EcperfDcache();
stats::Series fig13SpecJbb1Dcache();
stats::Series fig13SpecJbb10Dcache();
stats::Series fig13SpecJbb25Dcache();

/** Figure 14: cumulative c2c share vs fraction of touched lines. */
stats::Series fig14Ecperf();
stats::Series fig14SpecJbb();

/** Figure 16: data misses/1000 instr vs CPUs per shared 1 MB L2. */
stats::Series fig16Ecperf();
stats::Series fig16SpecJbb25();

} // namespace middlesim::core::paper

#endif // CORE_PAPER_HH
