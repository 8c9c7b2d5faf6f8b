/**
 * @file
 * Object-level (entity bean) cache of the application server.
 *
 * Section 2.5 of the paper describes object-level caching as one of
 * the three key performance features of the commercial application
 * server: bean instances are cached in memory, reducing database
 * queries and allocations. Section 4.4 attributes ECperf's
 * super-linear speedup to constructive interference in this cache —
 * one thread re-uses objects fetched by another.
 *
 * We model a fixed-capacity, hash-placed cache with time-based
 * invalidation (entries expire after a TTL to stay consistent with
 * the database). The hit rate therefore rises with aggregate
 * throughput: at higher request rates a bean fetched by one thread is
 * re-used by others before it expires. Bean payloads live in a slab
 * of real heap addresses, so cached-bean reads are widely shared
 * lines — the spread-out communication footprint of Figures 14/15.
 */

#ifndef WORKLOAD_BEANCACHE_HH
#define WORKLOAD_BEANCACHE_HH

#include <cstdint>
#include <vector>

#include "mem/memref.hh"
#include "sim/ticks.hh"

namespace middlesim::workload
{

/** TTL-invalidated, hash-placed bean cache over a heap slab. */
class BeanCache
{
  public:
    /**
     * @param slab_base base of the bean payload slab (heap address)
     * @param capacity number of cached bean slots
     * @param bean_bytes payload bytes per bean (rounded up to 64)
     * @param ttl entry lifetime in cycles
     */
    BeanCache(mem::Addr slab_base, std::uint64_t capacity,
              unsigned bean_bytes, sim::Tick ttl);

    /** Result of a cache probe. */
    struct Probe
    {
        bool hit = false;
        /** Payload address of the bean's slot. */
        mem::Addr addr = 0;
        /** Address of the hash-bucket line examined. */
        mem::Addr bucketAddr = 0;
    };

    /** Look up `key` at time `now` (does not install; counted). */
    Probe probe(std::uint64_t key, sim::Tick now) const;

    /** Like probe() but does not update hit/miss statistics. */
    Probe peek(std::uint64_t key, sim::Tick now) const;

    /** Install `key` at time `now`; returns its slot address. */
    mem::Addr install(std::uint64_t key, sim::Tick now);

    /** Bytes of live cached payload (occupied, unexpired slots). */
    std::uint64_t liveBytes(sim::Tick now) const;

    /**
     * Bytes of occupied slots regardless of TTL freshness: expired
     * entries still hold heap storage until overwritten, so this is
     * what the collector sees as live.
     */
    std::uint64_t occupiedBytes() const;

    /** Total slab bytes (capacity * beanBytes). */
    std::uint64_t slabBytes() const { return capacity_ * beanBytes_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Installs that overwrote a different live (unexpired) key. */
    std::uint64_t evictions() const { return evictions_; }

    double
    hitRate() const
    {
        const std::uint64_t n = hits_ + misses_;
        return n ? static_cast<double>(hits_) / static_cast<double>(n)
                 : 0.0;
    }

    void resetStats();

  private:
    struct Slot
    {
        std::uint64_t key = ~0ULL;
        sim::Tick expires = 0;
    };

    std::uint64_t slotOf(std::uint64_t key) const;

    mem::Addr slabBase_;
    std::uint64_t capacity_;
    unsigned beanBytes_;
    sim::Tick ttl_;
    std::vector<Slot> slots_;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace middlesim::workload

#endif // WORKLOAD_BEANCACHE_HH
