/**
 * @file
 * Instruction-footprint model.
 *
 * Each workload's code is a set of regions in a text segment (servlet
 * engine, EJB container, JIT-compiled application methods, JDBC
 * driver, ...). A transaction type executes a CodePath: a weighted
 * set of regions it walks. Bursts pick a region by weight and walk a
 * window of it linearly; over many bursts the effective instruction
 * working set approaches the weighted footprint — the property behind
 * Figure 12's contrast between ECperf's large middleware instruction
 * footprint and SPECjbb's compact one.
 */

#ifndef WORKLOAD_CODEPATH_HH
#define WORKLOAD_CODEPATH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/program.hh"
#include "mem/memref.hh"
#include "sim/rng.hh"

namespace middlesim::workload
{

/** A contiguous code region (one library / subsystem). */
struct CodeRegion
{
    std::string name;
    mem::Addr base = 0;
    std::uint64_t bytes = 0;
};

/** Carves named code regions out of a text segment. */
class CodeLibrary
{
  public:
    explicit CodeLibrary(mem::Addr text_base) : cursor_(text_base) {}

    /** Reserve a region of `bytes` (rounded up to 64). */
    CodeRegion
    add(const std::string &name, std::uint64_t bytes)
    {
        bytes = (bytes + 63) & ~std::uint64_t{63};
        CodeRegion r{name, cursor_, bytes};
        cursor_ += bytes;
        return r;
    }

  private:
    mem::Addr cursor_;
};

/**
 * A weighted set of code regions walked by one transaction type.
 *
 * Each region has a weight (expected share of the path's
 * instructions) and a hot fraction: `hotFraction` of walks start in
 * the first `hotBytes` of the region, concentrating fetches the way
 * real instruction streams concentrate in hot methods.
 */
class CodePath
{
  public:
    struct Entry
    {
        CodeRegion region;
        double weight = 1.0;
        /** Probability a walk stays within the hot prefix. */
        double hotFraction = 0.75;
        /** Size of the hot prefix (0 = 1/8 of the region). */
        std::uint64_t hotBytes = 0;
    };

    void add(const CodeRegion &region, double weight,
             double hot_fraction = 0.75, std::uint64_t hot_bytes = 0);

    /**
     * Choose a walk window for a burst of `instructions` and store it
     * in `burst.code`.
     */
    void fillWalk(exec::Burst &burst, sim::Rng &rng,
                  std::uint64_t instructions) const;

    /** Sum of region sizes (upper bound of the footprint). */
    std::uint64_t footprintBytes() const;

  private:
    std::vector<Entry> entries_;
    double totalWeight_ = 0.0;
};

} // namespace middlesim::workload

#endif // WORKLOAD_CODEPATH_HH
