/**
 * @file
 * In-order processor timing model.
 *
 * Models a 4-wide in-order UltraSPARC-II-like core as a cycle
 * accountant: the workload interpreter calls the primitive operations
 * (execute n instructions, fetch a code block, load, store, atomic)
 * and the core charges cycles to the paper's stall buckets, advancing
 * a local clock. Loads block the pipeline for their full memory
 * latency (in-order, blocking caches); stores retire into the store
 * buffer; occasional read-after-write hazards add small fixed stalls.
 */

#ifndef CPU_CORE_HH
#define CPU_CORE_HH

#include "cpu/cpistats.hh"
#include "cpu/storebuffer.hh"
#include "mem/hierarchy.hh"
#include "mem/memref.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace middlesim::cpu
{

/** Microarchitectural parameters of the core timing model. */
struct CoreParams
{
    /**
     * Cycles per instruction charged for execution and all
     * non-memory-system stalls (the "Other" bucket of Figure 6).
     */
    double baseCpi = 1.40;

    /** Store buffer depth (entries). */
    unsigned storeBufferDepth = 8;

    /** Probability that a load suffers a read-after-write hazard. */
    double rawProbability = 0.02;
    /** Penalty of one read-after-write hazard (cycles). */
    sim::Tick rawPenalty = 4;
};

/** One in-order core: a local clock plus CPI bucket accounting. */
class InOrderCore
{
  public:
    InOrderCore(unsigned cpu_id, mem::Hierarchy &mem,
                const CoreParams &params, sim::Rng rng);

    /** Local clock in cycles. */
    sim::Tick now() const { return now_; }

    /** Advance the local clock without executing (scheduler idle). */
    void advanceTo(sim::Tick t);

    /** Charge execution cycles for `n` instructions (no memory). */
    void
    execInstructions(std::uint64_t n)
    {
        cpi_.instructions += n;
        const double cycles =
            static_cast<double>(n) * params_.baseCpi + baseCarry_;
        const auto whole = static_cast<sim::Tick>(cycles);
        baseCarry_ = cycles - static_cast<double>(whole);
        cpi_.base += whole;
        now_ += whole;
    }

    /**
     * Fetch the code block containing `addr`. An L1I hit's latency is
     * covered by the base CPI; a plain hit is applied in place
     * without a trip through Hierarchy::access().
     */
    void
    fetchBlock(mem::Addr addr)
    {
        if (!mem_.fetchHitInPlace(cpuId_, addr))
            fetchThroughHierarchy(addr);
    }

    /** Blocking load. */
    void load(mem::Addr addr);

    /** Store through the store buffer. */
    void store(mem::Addr addr);

    /** Block-initializing store (no fetch) through the store buffer. */
    void blockStore(mem::Addr addr);

    /** Atomic read-modify-write (lock word); fully exposed. */
    void atomic(mem::Addr addr);

    /** Cycle accounting since the last resetStats(). */
    const CpiBreakdown &breakdown() const { return cpi_; }

    void resetStats();

  private:
    /** An I-fetch by way of Hierarchy::access(); charges any stall. */
    void fetchThroughHierarchy(mem::Addr addr);

    /** Charge a data-access latency into the right Figure 7 bucket. */
    void chargeData(const mem::AccessResult &res);

    unsigned cpuId_;
    mem::Hierarchy &mem_;
    CoreParams params_;
    sim::Rng rng_;
    StoreBuffer storeBuffer_;

    sim::Tick now_ = 0;
    /** Fractional base-cycle remainder (baseCpi is non-integral). */
    double baseCarry_ = 0.0;
    CpiBreakdown cpi_;
};

} // namespace middlesim::cpu

#endif // CPU_CORE_HH
