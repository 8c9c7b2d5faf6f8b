/**
 * @file
 * Multi-configuration uniprocessor cache sweep.
 *
 * The paper's Figures 12 and 13 report instruction- and data-cache
 * miss rates for a single-processor system across cache sizes from
 * 64 KB to 16 MB (4-way, 64-byte blocks). Like the Sumo simulator the
 * authors used, SweepSimulator evaluates many cache geometries
 * simultaneously over a single reference stream.
 *
 * Split caches are modeled: instruction fetches go to the I-bank,
 * loads/stores/atomics to the D-bank. There is no coherence (one
 * processor) and stores allocate (write-back, write-allocate), which
 * is the conventional configuration for miss-ratio sweeps.
 *
 * Each bank is one set-refinement pass (src/mem/stackdist/): per-set
 * recency rows updated once per reference, every geometry at once.
 * Miss and access counts are bit-identical to simulating each
 * configuration with its own CacheArray (enforced against that naive
 * oracle in tests/test_sweep.cpp and tests/test_stackdist.cpp).
 */

#ifndef MEM_SWEEP_HH
#define MEM_SWEEP_HH

#include <cstdint>
#include <vector>

#include "mem/memref.hh"
#include "mem/stackdist/refinement.hh"
#include "sim/config.hh"

namespace middlesim::mem
{

/** Result of one cache configuration in a sweep. */
struct SweepResult
{
    sim::CacheParams params;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missesPer1000(std::uint64_t instructions) const
    {
        return instructions
            ? 1000.0 * static_cast<double>(misses) /
              static_cast<double>(instructions)
            : 0.0;
    }
};

/** Bank of independent caches fed a common reference stream. */
class SweepSimulator
{
  public:
    /**
     * A geometry list stackdist::RefinementSweep::suitable() rejects
     * (mixed or non-power-of-two block sizes, non-power-of-two set
     * counts, associativity above 64) is a fatal error.
     */
    explicit SweepSimulator(const std::vector<sim::CacheParams> &configs);

    /** The standard sweep of the paper: 64 KB..16 MB, 4-way, 64 B. */
    static std::vector<sim::CacheParams> paperSweep();

    /** Feed one reference to the appropriate bank of all caches. */
    void access(const MemRef &ref);

    /** Count one executed instruction (denominator of MPKI). */
    void countInstructions(std::uint64_t n) { instructions_ += n; }

    std::uint64_t instructions() const { return instructions_; }

    const std::vector<SweepResult> &icacheResults() const;
    const std::vector<SweepResult> &dcacheResults() const;

    /** Zero counters but keep cache contents (post-warmup). */
    void resetCounters();

  private:
    /** One side (I or D) of the split sweep. */
    struct Bank
    {
        explicit Bank(const std::vector<sim::CacheParams> &configs);

        stackdist::RefinementSweep refine;
        /** Per-config results; counters synced lazily. */
        mutable std::vector<SweepResult> results;
    };

    /** Sync the engine's counters into a bank's results. */
    static const std::vector<SweepResult> &
    syncedResults(const Bank &bank);

    Bank ibank_;
    Bank dbank_;
    std::uint64_t instructions_ = 0;
};

} // namespace middlesim::mem

#endif // MEM_SWEEP_HH
