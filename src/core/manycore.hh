/**
 * @file
 * Many-core extrapolation harness (directory MESI + NUMA topology).
 *
 * The paper measures a 16-processor snooping-bus E6000; this harness
 * asks how its workload conclusions extrapolate when the machine
 * grows past any snooping ceiling: SPECjbb is re-run at 16/64/128/
 * 256/512 processors under the full-map directory MESI protocol with
 * block-interleaved per-node memory homes (one NUMA node per 16
 * processors beyond the first point). A matched 16-CPU snooping point
 * anchors the curves to the paper's machine.
 *
 * Reported per point (Figures 14-16 style curves over CPU count):
 * data misses per 1000 instructions, the coherence share of those
 * misses, the remote-miss fraction and mean interconnect hops per
 * miss, and directory protocol message counts per miss.
 *
 * Intervals time-compress beyond 64 CPUs (measured work per CPU
 * shrinks as 64/cpus) so the 512-CPU point stays simulable; the table
 * flags the compression factor per point and the BENCH harness carries
 * it as an honesty flag.
 *
 * A contended companion grid re-runs 64/128/256 CPUs with the home
 * occupancy/NACK model armed (DESIGN.md §3.14) under both the ring
 * and the dimension-ordered-XY mesh interconnect, re-deriving the
 * paper's Figure 14/15-style communication-latency distributions as
 * mem.dir.lat.* CDFs per point. Its shape checks pin the queueing
 * claims: delay grows with machine size on the bisection-limited
 * ring, the mesh beats the ring at scale, and honest runs never break
 * a livelock bound. The contention-free grid above is byte-identical
 * with or without this companion (occupancy 0 exports none of the
 * contended counters).
 */

#ifndef CORE_MANYCORE_HH
#define CORE_MANYCORE_HH

#include "core/figures.hh"

namespace middlesim::core
{

/** The processor counts of the many-core sweep. */
const std::vector<unsigned> &manycoreCpuCounts();

/** NUMA nodes used at a given CPU count (1 node per 16 CPUs). */
unsigned manycoreNodesFor(unsigned cpus);

/** Interval compression applied at a given CPU count (<= 1.0). */
double manycoreTimeCompression(unsigned cpus);

/**
 * The spec of one many-core point: SPECjbb, private L2s, directory
 * protocol (or the snooping bus for the matched anchor point).
 */
ExperimentSpec
manycoreSpec(unsigned cpus, sim::CoherenceProtocol protocol,
             const FigureOptions &opt);

/** The flattened grid (snoop anchor + every directory point). */
std::vector<ExperimentSpec>
manycoreGridSpecs(const FigureOptions &opt);

/** Home occupancy slots armed at the contended points. */
unsigned manycoreDirOccupancy();

/** CPU counts of the contended ring-vs-mesh comparison. */
const std::vector<unsigned> &manycoreContendedCpuCounts();

/**
 * One contended point: the directory machine of manycoreSpec with
 * bounded home occupancy and the given interconnect topology.
 */
ExperimentSpec
manycoreContendedSpec(unsigned cpus, sim::Topology topology,
                      const FigureOptions &opt);

/** The contended companion grid (ring + mesh per CPU count). */
std::vector<ExperimentSpec>
manycoreContendedGridSpecs(const FigureOptions &opt);

/** The many-core figure: tables, curves and shape checks. */
FigureResult runManycore(const FigureOptions &opt = {});

} // namespace middlesim::core

#endif // CORE_MANYCORE_HH
