/**
 * @file
 * Full-map directory state for the many-core MESI protocol plane.
 *
 * Each block has one home NUMA node (physical memory is
 * block-interleaved across nodes). The home's directory state for a
 * block — a full-map sharer vector (one bit per L2 group) plus the
 * owning group when a sole copy is outstanding in Exclusive or
 * Modified — lives inline in the block's record in the hierarchy's
 * BlockMetaTable (block_meta.hh). A requester sends GetS/GetM
 * to the home; the home answers from memory, or forwards to the owner
 * (a 3-hop transaction ending in a cache-to-cache transfer), or
 * invalidates sharers and collects acks. Replacements notify the home
 * (PutS/PutE/PutM), so in a fault-free run the sharer vector is exact
 * — precisely the invariant the directory checker in src/check/
 * audits against the real cache states.
 *
 * The controller holds no per-block state. It carries the machine's
 * topology, precomputed once by configure() so the access path does
 * no division or factorization per message, the protocol's message
 * accounting (requests, forwards, invalidations, acks, home
 * writebacks, put notices) and the NUMA traffic split (local vs.
 * remote misses, hops traversed), surfaced through MetricRegistry as
 * `mem.dir.*` / `mem.numa.*` — registered only when the directory
 * protocol is active, so snooping-bus metric output is byte-identical
 * to before this subsystem existed.
 *
 * Contention plane (DESIGN.md §3.14, opt-in via
 * MachineConfig::dirOccupancy): each home owns a bounded set of
 * in-flight transaction slots plus an epoch-utilization queue
 * mirroring the bus model's. A request finding every slot busy — or
 * its block still in the transient window of an earlier transaction —
 * is NACKed; the requester retries with bounded exponential backoff
 * (kDirRetryBound attempts). Interconnect hops additionally queue on
 * per-directed-link utilization models (ring or dimension-ordered XY
 * mesh routes). All contended-mode counters (`mem.dir.nacks`,
 * `mem.dir.retries`, `mem.dir.occupancy_*`, `mem.numa.link.*`,
 * `mem.numa.mesh.*`) are registered only when the plane is enabled,
 * so contention-free metric output stays byte-identical to PR 9.
 */

#ifndef MEM_DIRECTORY_DIRECTORY_HH
#define MEM_DIRECTORY_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/memref.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/ticks.hh"

namespace middlesim::mem
{

/**
 * Named bound on NACK/retry attempts per home transaction. A
 * fault-free home always frees a slot (and a block always leaves its
 * transient window) inside the cumulative backoff horizon of this
 * many attempts — see the livelock-freedom argument in DESIGN.md
 * §3.14 — so exceeding it means starvation: the access fails forward
 * and the checker raises `dir.livelock`.
 */
inline constexpr unsigned kDirRetryBound = 16;

/** Exponential-backoff base (ticks): attempt i waits base << min(i, cap). */
inline constexpr sim::Tick kDirNackBackoffBase = 4;

/** Backoff exponent cap, bounding a single wait at base << cap. */
inline constexpr unsigned kDirNackBackoffCap = 6;

/**
 * Horizon (ticks) past which a slot reservation or transient window
 * is treated as drained. CPUs advance in loose lockstep windows, so a
 * request's local clock can trail a reservation made by another CPU
 * by up to a window; a busy-until further ahead than any real
 * service-plus-queue time is clock skew, not load, and must not NACK
 * (it would break the bounded-retry guarantee).
 */
inline constexpr sim::Tick kDirNackHorizon = 512;

/**
 * The directory protocol's bookkeeping plane: the topology,
 * message/NUMA accounting and (opt-in) home/link contention state.
 * Transition logic lives in the directory's claim and fetch steps of
 * the Hierarchy's L2 path (mem/directory/dir_access.cc), which keep
 * the per-block directory state in the hierarchy's block records.
 */
class DirectoryController
{
  public:
    /**
     * @param metrics registry for the mem.dir.* / mem.numa.* counters;
     *        nullptr counts into private fallbacks (tests).
     */
    explicit DirectoryController(sim::MetricRegistry *metrics);

    /**
     * Arm the topology/contention plane from the machine config: the
     * group -> node map, each node's mesh coordinates and the mesh
     * dimensions (all O(nodes)), and the home/link state. Registers
     * the contended-mode counters (and the mesh per-axis hop split)
     * only when actually enabled, keeping default metric output
     * byte-identical to the contention-free model.
     */
    void configure(const sim::MachineConfig &cfg);

    /** NUMA node owning L2 group `group` (MachineConfig::nodeOfGroup). */
    unsigned nodeOfGroup(unsigned group) const { return groupNode_[group]; }

    /** Home node of a block-aligned address (MachineConfig::homeNodeOf). */
    unsigned
    homeOf(Addr block) const
    {
        return static_cast<unsigned>((block >> blockShift_) % nodes_);
    }

    /**
     * Hop distance between two nodes: the shorter way around the
     * ring, or the dimension-ordered XY route on the wrap-around
     * mesh (the routing spec in tests/mesh_routing.hh).
     */
    unsigned
    hops(unsigned a, unsigned b) const
    {
        if (!mesh_)
            return sim::MachineConfig::ringDistance(a, b, nodes_);
        return hopsX(a, b) + hopsY(a, b);
    }

    /** True when home occupancy / link queuing is modeled. */
    bool contended() const { return slotsPerHome_ != 0; }

    /** In-flight transaction slots per home (0 = contention-free). */
    unsigned slotsPerHome() const { return slotsPerHome_; }

    /**
     * Try to claim an in-flight slot at home `home` for `service`
     * ticks starting at `now`. On success charges the home's
     * utilization-queue delay into `queue_delay` (mirroring
     * Bus::acquire) and occupies the freest slot until the service
     * completes. Returns false — a NACK — when every slot is busy
     * within kDirNackHorizon. Contention-free mode always succeeds
     * with zero delay.
     */
    bool tryAcquireHome(unsigned home, sim::Tick now,
                        sim::Tick service, sim::Tick &queue_delay);

    /**
     * Queue delay of one message traversing the `from` -> `to` route
     * (ring or dimension-ordered XY mesh), charging `per_hop`
     * occupancy into each directed link crossed and the per-axis mesh
     * hop split. 0 when uncontended or from == to.
     */
    sim::Tick linkTraverse(unsigned from, unsigned to,
                           sim::Tick per_hop);

    /**
     * Close a utilization epoch of `epoch_len` ticks for every home
     * and link: utilization measured in it drives queueing delays in
     * the next epoch (exactly the bus model's scheme). No-op when
     * uncontended.
     */
    void advanceEpoch(sim::Tick epoch_len);

    /**
     * Account `count` traversals of the a <-> b route: total hops
     * (mem.numa.hops) plus the per-axis mesh split (mem.numa.mesh.*).
     */
    void
    chargeHops(unsigned a, unsigned b, unsigned count)
    {
        if (!mesh_) {
            hopsTraversed() +=
                count * sim::MachineConfig::ringDistance(a, b, nodes_);
            return;
        }
        const unsigned x = hopsX(a, b);
        const unsigned y = hopsY(a, b);
        hopsTraversed() += count * (x + y);
        *meshXHops_ += count * x;
        *meshYHops_ += count * y;
    }

    /** Bucket a contended-mode miss latency into the mem.dir.lat.* CDF. */
    void recordMissLatency(sim::Tick latency);

    // NACK/retry accounting, bumped by the access path's retry loop.
    void noteNack() { ++*nacks_; }
    void noteRetry() { ++*retries_; }
    void noteLivelockBreak() { ++*livelockBreaks_; }

    std::uint64_t nacks() const { return nacks_->value(); }
    std::uint64_t retries() const { return retries_->value(); }
    std::uint64_t livelockBreaks() const
    {
        return livelockBreaks_->value();
    }

    // Message accounting, bumped by the access path.
    sim::Counter &getS() { return *getS_; }
    sim::Counter &getM() { return *getM_; }
    sim::Counter &upgrades() { return *upgrades_; }
    sim::Counter &forwards() { return *forwards_; }
    sim::Counter &invalidationsSent() { return *invalidationsSent_; }
    sim::Counter &acksReceived() { return *acksReceived_; }
    sim::Counter &writebacksToHome() { return *writebacksToHome_; }
    sim::Counter &putNotices() { return *putNotices_; }
    sim::Counter &localMisses() { return *localMisses_; }
    sim::Counter &remoteMisses() { return *remoteMisses_; }
    sim::Counter &hopsTraversed() { return *hopsTraversed_; }

    const sim::Counter &invalidationsSent() const
    {
        return *invalidationsSent_;
    }

    const sim::Counter &acksReceived() const { return *acksReceived_; }

  private:
    /** One home's contention state: slot reservations + epoch queue. */
    struct HomeState
    {
        std::vector<sim::Tick> slotBusyUntil;
        sim::Tick epochBusy = 0;
        double utilization = 0.0;
    };

    /** One directed interconnect link's epoch-utilization queue. */
    struct LinkState
    {
        sim::Tick epochBusy = 0;
        double utilization = 0.0;
    };

    /** Mesh X-axis leg between two nodes (shorter way around). */
    unsigned
    hopsX(unsigned a, unsigned b) const
    {
        return sim::MachineConfig::ringDistance(meshX_[a], meshX_[b],
                                                meshWidth_);
    }

    /** Mesh Y-axis leg between two nodes (shorter way around). */
    unsigned
    hopsY(unsigned a, unsigned b) const
    {
        return sim::MachineConfig::ringDistance(meshY_[a], meshY_[b],
                                                meshHeight_);
    }

    /** Walk one axis of the route, claiming each directed link. */
    sim::Tick walkAxis(unsigned &node, unsigned coord, unsigned target,
                       unsigned size, unsigned stride, unsigned fwd_dir,
                       sim::Tick per_hop);

    sim::MetricRegistry *metrics_;

    // Topology, fixed by configure().
    unsigned nodes_ = 1;
    unsigned blockShift_ = 6;
    bool mesh_ = false;
    unsigned meshWidth_ = 1;
    unsigned meshHeight_ = 1;
    std::vector<unsigned> groupNode_;
    std::vector<unsigned> meshX_;
    std::vector<unsigned> meshY_;

    unsigned slotsPerHome_ = 0;
    std::vector<HomeState> homes_;
    std::vector<LinkState> links_;

    sim::Counter *getS_;
    sim::Counter *getM_;
    sim::Counter *upgrades_;
    sim::Counter *forwards_;
    sim::Counter *invalidationsSent_;
    sim::Counter *acksReceived_;
    sim::Counter *writebacksToHome_;
    sim::Counter *putNotices_;
    sim::Counter *localMisses_;
    sim::Counter *remoteMisses_;
    sim::Counter *hopsTraversed_;

    // Contended-mode counters (fallback-bound until configure()).
    sim::Counter *nacks_;
    sim::Counter *retries_;
    sim::Counter *livelockBreaks_;
    sim::Counter *occupancyBusyCycles_;
    sim::Counter *occupancyQueueDelay_;
    sim::Counter *linkBusyCycles_;
    sim::Counter *linkQueueDelay_;
    sim::Counter *meshXHops_;
    sim::Counter *meshYHops_;

    /** mem.dir.lat.* CDF buckets (upper edges in kDirLatEdges). */
    static constexpr unsigned kLatBuckets = 8;
    sim::Counter *latBuckets_[kLatBuckets];

    sim::Counter fallback_[20 + kLatBuckets];
};

/** Upper edges (ticks) of the mem.dir.lat.* CDF buckets. */
inline constexpr sim::Tick kDirLatEdges[] = {64,   128,  256, 512,
                                             1024, 2048, 4096};

} // namespace middlesim::mem

#endif // MEM_DIRECTORY_DIRECTORY_HH
