/**
 * @file
 * Statistics records and access-result types for the memory system.
 */

#ifndef MEM_STATS_HH
#define MEM_STATS_HH

#include <cstdint>
#include <utility>

#include "sim/ticks.hh"

namespace middlesim::mem
{

/** Classification of a cache miss. */
enum class MissClass : std::uint8_t
{
    None = 0,
    /** First reference to the block by this cache. */
    Cold,
    /** Block was last removed from this cache by a remote write. */
    Coherence,
    /** Block was last removed by replacement. */
    CapacityConflict,
};

/** Where an access was ultimately satisfied. */
enum class ServedBy : std::uint8_t
{
    L1,
    L2,
    /** Snoop copyback from a peer L2 (cache-to-cache transfer). */
    Peer,
    Memory,
    /** Ownership upgrade: no data transferred. */
    UpgradeOnly,
};

/** Outcome of one hierarchy access, consumed by the CPU model. */
struct AccessResult
{
    sim::Tick latency = 0;
    ServedBy servedBy = ServedBy::L1;
    MissClass missClass = MissClass::None;
};

/** Per-CPU cache statistics (attributed to the requesting CPU). */
struct CacheStats
{
    std::uint64_t ifetches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;

    std::uint64_t l1iHits = 0;
    std::uint64_t l1dHits = 0;

    /** L2 lookups (L1 misses plus write-through stores). */
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;

    /** Data-fetching L2 misses by class. */
    std::uint64_t missCold = 0;
    std::uint64_t missCoherence = 0;
    std::uint64_t missCapacity = 0;

    /** Misses satisfied by a peer cache (snoop copybacks received). */
    std::uint64_t c2cTransfers = 0;
    /** Ownership upgrades (S -> M without data transfer). */
    std::uint64_t upgrades = 0;
    /** Dirty/owned victim writebacks to memory. */
    std::uint64_t writebacks = 0;
    /** Block-initializing stores (install without fetch). */
    std::uint64_t blockStores = 0;

    /** Instruction-side L2 misses (subset of the miss counts). */
    std::uint64_t instrMisses = 0;
    /** Data-side L2 misses (subset of the miss counts). */
    std::uint64_t dataMisses = 0;

    std::uint64_t
    l2Misses() const
    {
        return missCold + missCoherence + missCapacity;
    }

    double
    c2cRatio() const
    {
        const auto m = l2Misses();
        return m ? static_cast<double>(c2cTransfers) /
                   static_cast<double>(m)
                 : 0.0;
    }

    /** Every counter by its metric name, in RunResult payload order. */
    static constexpr std::pair<const char *, std::uint64_t CacheStats::*>
        counters[] = {
            {"ifetches", &CacheStats::ifetches},
            {"loads", &CacheStats::loads},
            {"stores", &CacheStats::stores},
            {"atomics", &CacheStats::atomics},
            {"l1i_hits", &CacheStats::l1iHits},
            {"l1d_hits", &CacheStats::l1dHits},
            {"l2_accesses", &CacheStats::l2Accesses},
            {"l2_hits", &CacheStats::l2Hits},
            {"miss_cold", &CacheStats::missCold},
            {"miss_coherence", &CacheStats::missCoherence},
            {"miss_capacity", &CacheStats::missCapacity},
            {"c2c_transfers", &CacheStats::c2cTransfers},
            {"upgrades", &CacheStats::upgrades},
            {"writebacks", &CacheStats::writebacks},
            {"block_stores", &CacheStats::blockStores},
            {"instr_misses", &CacheStats::instrMisses},
            {"data_misses", &CacheStats::dataMisses},
        };

    void
    accumulate(const CacheStats &o)
    {
        for (const auto &[name, counter] : counters)
            this->*counter += o.*counter;
    }
};

} // namespace middlesim::mem

#endif // MEM_STATS_HH
