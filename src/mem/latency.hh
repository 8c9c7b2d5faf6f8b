/**
 * @file
 * Memory access latencies of the modeled E6000-like machine.
 *
 * The key relationship from the paper (Section 4.3, citing [8]) is
 * that a cache-to-cache transfer on the E6000 takes approximately 40%
 * longer than a fetch from main memory. All values are in 248 MHz
 * processor cycles.
 */

#ifndef MEM_LATENCY_HH
#define MEM_LATENCY_HH

#include "sim/ticks.hh"

namespace middlesim::mem
{

/** Latency parameters for the memory hierarchy. */
struct LatencyModel
{
    /** L1 hit; pipelined, effectively hidden for loads that hit. */
    sim::Tick l1Hit = 1;
    /** L2 hit (external SRAM on the UltraSPARC II module). */
    sim::Tick l2Hit = 11;
    /** Main memory access over the snooping bus. */
    sim::Tick memory = 75;
    /** Cache-to-cache transfer (snoop copyback): 1.4 x memory [8]. */
    sim::Tick cacheToCache = 105;
    /** Ownership upgrade (invalidate-only bus round trip, no data). */
    sim::Tick upgrade = 40;

    /**
     * Bus occupancy of one block data transfer (for contention).
     * Calibrated so aggregate utilization at 15 processors matches
     * the E6000's loaded behavior given this model's reference rate
     * (explicit references are sparser than real traffic, so the
     * per-transaction occupancy is correspondingly larger).
     */
    sim::Tick busOccupancy = 44;
    /** Bus occupancy of an address-only transaction. */
    sim::Tick busAddrOccupancy = 10;

    /**
     * One interconnect hop between NUMA nodes (directory protocol
     * only; a snooping bus has no hop structure). A remote-home miss
     * pays hop * distance each direction on top of the base latency.
     */
    sim::Tick hop = 30;

    /** Directory lookup at the home node (SRAM/DRAM tag walk). */
    sim::Tick directoryLookup = 20;

    /** Field list (sim/serialize.hh): spec keys, trace headers. */
    template <typename S, typename Self>
    static void
    fields(S &s, Self &l)
    {
        s.u64(l.l1Hit);
        s.u64(l.l2Hit);
        s.u64(l.memory);
        s.u64(l.cacheToCache);
        s.u64(l.upgrade);
        s.u64(l.busOccupancy);
        s.u64(l.busAddrOccupancy);
        s.u64(l.hop);
        s.u64(l.directoryLookup);
    }
};

} // namespace middlesim::mem

#endif // MEM_LATENCY_HH
