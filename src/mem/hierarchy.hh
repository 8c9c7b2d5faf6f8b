/**
 * @file
 * The coherent multiprocessor memory hierarchy.
 *
 * Structure (matching the E6000 platform of the paper, generalized to
 * the CMP shared-cache configurations of Figure 16 and to many-core
 * NUMA machines):
 *
 *   CPU i --> private split L1I / L1D (write-through, no-write-allocate)
 *         --> L2 shared by `cpusPerL2` CPUs
 *         --> snooping bus (MOSI) or home directory (MESI) --> memory
 *
 * Under the snooping bus a miss snoops the peer L2s holding the block;
 * an owner in Modified or Owned state supplies the data (a snoop
 * copyback, i.e. the paper's cache-to-cache transfer) at 1.4x memory
 * latency. Under the directory a miss asks the block's home, which
 * forwards to an Exclusive or Modified owner (DESIGN.md §3.13). Both
 * share one L2 path that asks the protocol for two steps only: a
 * claim (write permission without data) and a fetch (a miss).
 *
 * Misses are classified per requesting cache as cold / coherence /
 * capacity-conflict using per-block removal-cause metadata. Optional
 * communication tracking records per-line copyback counts and the set
 * of touched lines (Figures 14/15), and an optional timeline bins
 * copybacks by time (Figure 10).
 */

#ifndef MEM_HIERARCHY_HH
#define MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/access_observer.hh"
#include "mem/block_meta.hh"
#include "mem/bus.hh"
#include "mem/cache_array.hh"
#include "mem/directory/directory.hh"
#include "mem/fault.hh"
#include "mem/latency.hh"
#include "mem/memref.hh"
#include "mem/stats.hh"
#include "mem/sweep.hh"
#include "mem/trace_sink.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "stats/distribution.hh"

namespace middlesim::mem
{

/** Bins events (here: copybacks) into fixed-width time buckets. */
class TimelineSampler
{
  public:
    TimelineSampler(sim::Tick bin_width, unsigned num_bins)
        : binWidth_(bin_width), bins_(num_bins, 0)
    {
    }

    void
    add(sim::Tick t)
    {
        const auto bin = static_cast<std::size_t>(t / binWidth_);
        if (bin < bins_.size())
            ++bins_[bin];
    }

    const std::vector<std::uint64_t> &bins() const { return bins_; }

  private:
    sim::Tick binWidth_;
    std::vector<std::uint64_t> bins_;
};

/**
 * Sharer-group ceilings per protocol. The snooping bus keeps the
 * historical 32-group limit (every L2 must observe every bus
 * transaction; the model was validated at the paper's 16-CPU scale).
 * The directory protocol's full-map vectors are width-parameterized,
 * capped only by a sanity bound well above the 512-CPU target.
 */
inline constexpr unsigned kMaxSnoopGroups = 32;
inline constexpr unsigned kMaxDirectoryGroups = 64 * kMaxGroupWords;

/** The full coherent memory system of one simulated machine. */
class Hierarchy
{
  public:
    Hierarchy(const sim::MachineConfig &config,
              const LatencyModel &latency,
              bool bus_contention = true);

    /** Perform one access; returns latency and classification. */
    AccessResult
    access(const MemRef &ref, sim::Tick now)
    {
        if (observer_)
            observer_->preAccess(ref, now);
        const AccessResult res = accessImpl(ref, now);
        if (observer_)
            observer_->postAccess(ref, res, now);
        return res;
    }

    /**
     * Apply an I-fetch of `addr` by `cpu` at `now` in place when it
     * hits the L1I and neither an access observer nor a sweep tap is
     * attached: the same effect as access() for that hit, down to
     * handing an attached trace sink the same {addr, IFetch, cpu} at
     * the same tick, so recording keeps this path. Returns false,
     * changing nothing, otherwise; the caller then goes through
     * access().
     */
    bool
    fetchHitInPlace(unsigned cpu, Addr addr, sim::Tick now)
    {
        if (observer_ || sweepTap_ || !applyL1iHit(cpu, addr))
            return false;
        if (traceSink_)
            traceSink_->ref({addr, AccessType::IFetch, cpu}, now);
        return true;
    }

    /** L2 group serving a CPU. */
    unsigned groupOf(unsigned cpu) const { return cpu / cfg_.cpusPerL2; }

    /** Per-requesting-CPU statistics. */
    const CacheStats &cpuStats(unsigned cpu) const { return stats_[cpu]; }

    /** Aggregate statistics over CPUs [lo, hi] inclusive. */
    CacheStats aggregateRange(unsigned lo, unsigned hi) const;

    /** Aggregate statistics over all CPUs. */
    CacheStats aggregateAll() const;

    /**
     * Zero all statistics: per-CPU, bus, coherence and directory
     * counts (cache contents are preserved).
     */
    void resetStats();

    /**
     * Write the coherence counts into `snap` as `mem.coherence.*`,
     * and under the directory protocol its `mem.dir.*` /
     * `mem.numa.*` counters (DirectoryController::exportMetrics).
     */
    void exportMetrics(sim::MetricSnapshot &snap) const;

    /** Enable per-line copyback and touched-line tracking. */
    void setCommunicationTracking(bool on);

    /** Per-line copyback counts (valid when tracking is on). */
    const stats::KeyCounts &c2cPerLine() const { return c2cPerLine_; }

    /** Distinct lines referenced at L2 level since tracking reset. */
    std::uint64_t touchedLines() const { return touchedCount_; }

    /** Clear communication-tracking state (counts + touched set). */
    void resetCommunicationTracking();

    /** Install a copyback timeline (Figure 10). */
    void enableTimeline(sim::Tick bin_width, unsigned num_bins);
    const TimelineSampler *timeline() const { return timeline_.get(); }

    /**
     * Mirror every reference into a SweepSimulator (Figures 12/13).
     * The sweep sees the raw reference stream before this hierarchy
     * filters it; pass nullptr to detach.
     */
    void setSweepTap(SweepSimulator *sweep) { sweepTap_ = sweep; }

    /**
     * Record every reference (and stat-reset annotations) into a
     * trace sink. The sink sees the stream before any filtering, in
     * the exact order this hierarchy processes it; pass nullptr to
     * detach. Recording never changes simulation behavior.
     */
    void setTraceSink(TraceSink *sink) { traceSink_ = sink; }

    /**
     * Attach an invariant-checking observer (src/check/); nullptr
     * detaches. Observers are read-only: attaching one never changes
     * simulation results.
     */
    void setAccessObserver(AccessObserver *obs) { observer_ = obs; }

    /**
     * Install a deterministic coherence fault (tests/stress only);
     * nullptr disarms. The plan is borrowed and must outlive its use.
     */
    void setFaultPlan(const FaultPlan *plan) { fault_ = plan; }

    /**
     * Map the block table's later arrays from the kernel
     * (BlockMetaTable::mapNewArrays), for a hierarchy that runs on a
     * short-lived thread of its own. Never changes simulation results.
     */
    void mapBlockTableArrays() { meta_.mapNewArrays(); }

    /** Coherence state of a block in the L2 serving `cpu`. */
    CoherenceState peekState(unsigned cpu, Addr addr) const;

    /** The directory controller; nullptr under the snooping bus. */
    const DirectoryController *directory() const { return dir_.get(); }

    // Read-only inspection API for checkers and tests.
    unsigned numGroups() const { return cfg_.numL2s(); }
    const CacheArray &l1iArray(unsigned cpu) const { return l1i_[cpu]; }
    const CacheArray &l1dArray(unsigned cpu) const { return l1d_[cpu]; }
    const CacheArray &l2Array(unsigned group) const { return l2_[group]; }

    /**
     * The record of `block` (a null view when never cached). Under the
     * directory protocol it includes the home's sharers and owner.
     */
    ConstLineMeta
    peekMeta(Addr block) const
    {
        return meta_.find(block);
    }

    /** Visit every block record: fn(block, view) (checker audits). */
    template <typename F>
    void
    forEachMeta(F &&fn) const
    {
        meta_.forEach(std::forward<F>(fn));
    }

    /** Invalidate all caches (dirty data is dropped; test/phase use). */
    void invalidateAll();

    /** A named address range for miss attribution. */
    struct Region
    {
        std::string name;
        Addr base = 0;
        std::uint64_t bytes = 0;
        std::uint64_t missCold = 0;
        std::uint64_t missCoherence = 0;
        std::uint64_t missCapacity = 0;

        std::uint64_t
        total() const
        {
            return missCold + missCoherence + missCapacity;
        }
    };

    /** Register a region; misses inside it are attributed to it. */
    void defineRegion(const std::string &name, Addr base,
                      std::uint64_t bytes);

    const std::vector<Region> &regions() const { return regions_; }

    /** Zero per-region miss counters. */
    void resetRegionStats();

    const Bus &bus() const { return bus_; }
    Bus &bus() { return bus_; }

    /**
     * Close one lockstep-window utilization epoch: the bus plus (when
     * armed) the directory homes and interconnect links. Driven by
     * System::run on window boundaries; replay/explore paths never
     * advance epochs, so their utilization-queue delays are zero and
     * only the tick-driven slot/NACK model is active there.
     */
    void
    advanceContentionEpoch(sim::Tick epoch_len)
    {
        bus_.advanceEpoch(epoch_len);
        if (dir_)
            dir_->advanceEpoch(epoch_len);
    }
    const sim::MachineConfig &config() const { return cfg_; }
    const LatencyModel &latency() const { return lat_; }

  private:
    /** The access dispatch proper (observer hooks live in access()). */
    AccessResult accessImpl(const MemRef &ref, sim::Tick now);

    /**
     * The whole effect of an L1I hit (LRU touch, fetch and hit
     * counts); false on a miss, which changes nothing.
     */
    bool
    applyL1iHit(unsigned cpu, Addr addr)
    {
        CacheArray &l1 = l1i_[cpu];
        CacheLine *line = l1.find(addr);
        if (!line)
            return false;
        l1.touch(*line);
        CacheStats &st = stats_[cpu];
        ++st.ifetches;
        ++st.l1iHits;
        return true;
    }

    /**
     * The L2 level of every access the L1 does not finish: a hit, a
     * claim (write permission without data: an upgrade of an S or O
     * copy, or a block store to an absent line) or a fetch (a miss's
     * GetS/GetM). Only the claim and the fetch depend on the protocol.
     */
    AccessResult l2Access(const MemRef &ref, sim::Tick now);

    /** What a protocol's fetch step hands back to the L2 path. */
    struct Fetch
    {
        sim::Tick latency;
        bool peerSupplied;
        CoherenceState state; // the requester's install state
    };

    /**
     * Snooping claim: invalidate the peers, then take an address-only
     * bus slot. Returns its queueing delay.
     */
    sim::Tick snoopClaim(Addr block, unsigned group, LineMeta meta,
                         sim::Tick now);

    /** Snooping fetch: snoop the peers holding the block, then the bus. */
    Fetch snoopFetch(Addr block, unsigned group, bool want_write,
                     LineMeta meta, sim::Tick now);

    // Directory-protocol steps (mem/directory/dir_access.cc).

    /**
     * Directory claim: an Upgrade (`upgrade`) or a data-less GetM.
     * Returns the home round trip: lookup, hops and contention.
     */
    sim::Tick dirClaim(Addr block, unsigned group, bool upgrade,
                       LineMeta meta, sim::Tick now);

    /** Directory fetch: a GetS/GetM to the block's home. */
    Fetch dirFetch(Addr block, unsigned group, bool want_write,
                   LineMeta meta, sim::Tick now);

    /**
     * Directory GetM/Upgrade service: invalidate every sharer and
     * owner copy except `group`, collecting acks. Returns true if a
     * forwarded owner supplied data (want_data GetM only).
     */
    bool dirInvalidateSharers(Addr block, unsigned group,
                              bool want_data, LineMeta meta);

    /** Replacement notice to the home (PutS/PutE/PutM). */
    void dirHandlePut(unsigned group, const CacheLine &victim,
                      LineMeta meta);

    /**
     * Contended-mode home acquisition: the NACK/retry loop with
     * bounded exponential backoff (DESIGN.md §3.14). Returns the
     * extra latency accumulated — NACK round trips, backoff waits and
     * the home's utilization-queue delay — and marks the block's
     * transient window on success. 0 when the plane is disabled.
     */
    sim::Tick dirHomeAcquire(Addr block, unsigned group, unsigned home,
                             unsigned req_hops, LineMeta meta,
                             sim::Tick now);

    /** True if an armed FaultPlan of `kind` fires for (block, group). */
    bool
    faultFires(FaultPlan::Kind kind, Addr block, unsigned group) const
    {
        return fault_ && fault_->kind == kind &&
               fault_->matches(block, group);
    }

    /** Classify an L2 miss for group g and update metadata. */
    MissClass classifyMiss(LineMeta meta, unsigned group);

    /** Record a distinct touched line (communication tracking). */
    void recordTouched(LineMeta meta);

    /** Remove a victim line from group g (writeback + back-inval). */
    void evictLine(unsigned group, CacheLine &victim, unsigned req_cpu,
                   sim::Tick now);

    /** Invalidate a block in group g due to a remote write. */
    void invalidateForRemoteWrite(unsigned group, CacheLine &line,
                                  LineMeta meta);

    /** Remove the block from the L1s of every CPU in group g. */
    void backInvalidateL1s(unsigned group, Addr block);

    sim::MachineConfig cfg_;
    LatencyModel lat_;
    Bus bus_;

    std::vector<CacheArray> l1i_; // per CPU
    std::vector<CacheArray> l1d_; // per CPU
    std::vector<CacheArray> l2_;  // per group
    std::vector<CacheStats> stats_; // per CPU

    /** One inline record per block, directory state included. */
    BlockMetaTable meta_;
    std::vector<Region> regions_;

    /** Directory protocol state; null under the snooping bus. */
    std::unique_ptr<DirectoryController> dir_;

    /**
     * Coherence counts. Invalidation traffic is not attributable to
     * the requesting CPU, so it is counted here rather than in the
     * per-CPU CacheStats.
     */
    std::uint64_t invalidations_ = 0;
    std::uint64_t backInvalidations_ = 0;
    std::uint64_t copybacksSupplied_ = 0;

    bool trackComm_ = false;
    stats::KeyCounts c2cPerLine_;
    std::uint64_t touchedCount_ = 0;

    std::unique_ptr<TimelineSampler> timeline_;
    SweepSimulator *sweepTap_ = nullptr;
    TraceSink *traceSink_ = nullptr;
    AccessObserver *observer_ = nullptr;
    const FaultPlan *fault_ = nullptr;
};

} // namespace middlesim::mem

#endif // MEM_HIERARCHY_HH
