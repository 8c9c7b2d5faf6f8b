/**
 * @file
 * Exact one-pass multi-geometry set-associative LRU simulation.
 *
 * The generalization of Mattson's stack algorithm to set-associative
 * caches (Hill & Smith's all-associativity simulation): with LRU
 * replacement and bit-selection indexing, a set of S sets and
 * associativity A holds, per set, exactly the A most recently
 * referenced distinct blocks mapping to it. Each configured geometry
 * therefore reduces to per-set recency rows of A block ids — no tag
 * arrays, no LRU clocks, no victim scans — and one pass over the
 * reference stream updates every geometry at once.
 *
 * Per-geometry miss counts are bit-identical to simulating each
 * configuration with its own CacheArray; tests/test_stackdist.cpp
 * enforces this against that naive oracle across randomized
 * geometries.
 *
 * An engine may hold one of P set slices, P a power of two no larger
 * than the smallest set count. Then a block b with b & (P-1) == s
 * maps to sets of slice s only, in every geometry, and slice s's
 * engine holds numSets/P sets per geometry, indexed by
 * (b >> log2 P) & (numSets/P - 1). Fed only its slice's blocks, each
 * slice engine counts exactly what the unsliced engine counts for
 * those blocks, the last-block shortcut included (no other slice
 * touches its sets), so the slices' counts sum to the unsliced
 * engine's.
 */

#ifndef MEM_STACKDIST_REFINEMENT_HH
#define MEM_STACKDIST_REFINEMENT_HH

#include <cstdint>
#include <vector>

#include "mem/memref.hh"
#include "sim/config.hh"

namespace middlesim::mem::stackdist
{

/** One-pass simulator of many set-associative LRU geometries. */
class RefinementSweep
{
  public:
    /**
     * One slice of `slices` (see file comment). Fatal, naming the
     * rule, unless `configs` satisfy suitable() and `slices` is a
     * power of two no larger than maxSlices(configs).
     */
    explicit RefinementSweep(const std::vector<sim::CacheParams> &configs,
                             unsigned slices = 1);

    /** The smallest set count among `configs` (suitable ones). */
    static std::uint64_t
    maxSlices(const std::vector<sim::CacheParams> &configs);

    /**
     * True when every geometry can be simulated by this engine: a
     * common power-of-two block size, power-of-two set counts, and
     * associativities small enough that a recency row stays cheap to
     * shift.
     */
    static bool suitable(const std::vector<sim::CacheParams> &configs);

    /** Largest associativity the recency-row representation accepts. */
    static constexpr unsigned kMaxAssoc = 64;

    /**
     * Feed one reference to every geometry. `count_miss` is false for
     * block-initializing stores: they install (update recency) but
     * are never counted as misses.
     */
    void access(Addr addr, bool count_miss);

    std::uint64_t accesses() const { return accesses_; }

    /** Exact miss count of configuration i (ctor order). */
    std::uint64_t misses(std::size_t i) const { return misses_.at(i); }

    /** Zero counters; keep cache contents. */
    void resetCounters();

  private:
    /** One geometry: per-set recency rows of `assoc` block ids. */
    struct Level
    {
        /** This slice's set count, less one. */
        std::uint64_t setMask;
        unsigned assoc;
        /**
         * numSets / slices * assoc block ids, MRU first; kEmpty when
         * free.
         */
        std::vector<std::uint64_t> ways;
    };

    static constexpr std::uint64_t kEmpty =
        ~static_cast<std::uint64_t>(0);

    unsigned blockShift_;
    /** log2 of the slice count: the block bits that pick the slice. */
    unsigned sliceShift_ = 0;
    std::vector<Level> levels_;
    std::vector<std::uint64_t> misses_;
    std::uint64_t accesses_ = 0;
    /** Previous reference's block: a repeat is MRU everywhere. */
    std::uint64_t lastBlock_ = kEmpty;
};

} // namespace middlesim::mem::stackdist

#endif // MEM_STACKDIST_REFINEMENT_HH
