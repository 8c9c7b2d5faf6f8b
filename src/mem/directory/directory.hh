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
 * topology, precomputed once at construction so the access path does
 * no division or factorization per message, and a DirectoryStats
 * record: the protocol's message accounting (requests, forwards,
 * invalidations, acks, home writebacks, put notices) and the NUMA
 * traffic split (local vs. remote misses, hops traversed), exported
 * as `mem.dir.*` / `mem.numa.*` only when the directory protocol is
 * active, so snooping-bus metric output is byte-identical to before
 * this subsystem existed.
 *
 * Contention plane (DESIGN.md §3.14, opt-in via
 * MachineConfig::dirOccupancy): each home owns a bounded set of
 * in-flight transaction slots plus an epoch-utilization queue
 * mirroring the bus model's. A request finding every slot busy — or
 * its block still in the transient window of an earlier transaction —
 * is NACKed; the requester retries with bounded exponential backoff
 * (kDirRetryBound attempts). Interconnect hops additionally queue on
 * per-directed-link utilization models (ring or dimension-ordered XY
 * mesh routes). The contended-mode counters (`mem.dir.nacks`,
 * `mem.dir.retries`, `mem.dir.occupancy_*`, `mem.numa.link.*`,
 * `mem.dir.lat.*`) are exported only when the plane is enabled, and
 * the per-axis hop split (`mem.numa.mesh.*`) only on a mesh, so a
 * contention-free ring exports what it did before either existed.
 */

#ifndef MEM_DIRECTORY_DIRECTORY_HH
#define MEM_DIRECTORY_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
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

/** Upper edges (ticks) of the mem.dir.lat.* CDF buckets. */
inline constexpr sim::Tick kDirLatEdges[] = {64,   128,  256, 512,
                                             1024, 2048, 4096};

/** mem.dir.lat.* buckets: one per edge plus the overflow bucket. */
inline constexpr unsigned kDirLatBuckets = std::size(kDirLatEdges) + 1;

/**
 * The directory's counts since the last Hierarchy::resetStats():
 * protocol messages, the NUMA traffic split and (contended mode) the
 * NACK/retry, occupancy and link accounting.
 */
struct DirectoryStats
{
    std::uint64_t getS = 0;
    std::uint64_t getM = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t forwards = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t acksReceived = 0;
    std::uint64_t writebacksToHome = 0;
    std::uint64_t putNotices = 0;
    std::uint64_t localMisses = 0;
    std::uint64_t remoteMisses = 0;
    std::uint64_t hops = 0;

    /** Per-axis split of `hops` (mesh only). */
    std::uint64_t meshXHops = 0;
    std::uint64_t meshYHops = 0;

    // Contended mode only.
    std::uint64_t nacks = 0;
    std::uint64_t retries = 0;
    std::uint64_t livelockBreaks = 0;
    std::uint64_t occupancyBusyCycles = 0;
    std::uint64_t occupancyQueueDelay = 0;
    std::uint64_t linkBusyCycles = 0;
    std::uint64_t linkQueueDelay = 0;
    /** Contended miss latencies, bucketed by kDirLatEdges. */
    std::uint64_t missLatency[kDirLatBuckets] = {};

    using NamedCounter =
        std::pair<const char *, std::uint64_t DirectoryStats::*>;

    /** Exported on every directory machine, by metric name. */
    static constexpr NamedCounter counters[] = {
        {"mem.dir.get_s", &DirectoryStats::getS},
        {"mem.dir.get_m", &DirectoryStats::getM},
        {"mem.dir.upgrades", &DirectoryStats::upgrades},
        {"mem.dir.forwards", &DirectoryStats::forwards},
        {"mem.dir.invalidations_sent", &DirectoryStats::invalidationsSent},
        {"mem.dir.acks_received", &DirectoryStats::acksReceived},
        {"mem.dir.writebacks_home", &DirectoryStats::writebacksToHome},
        {"mem.dir.put_notices", &DirectoryStats::putNotices},
        {"mem.numa.local_misses", &DirectoryStats::localMisses},
        {"mem.numa.remote_misses", &DirectoryStats::remoteMisses},
        {"mem.numa.hops", &DirectoryStats::hops},
    };

    /** Exported on a mesh only. */
    static constexpr NamedCounter meshCounters[] = {
        {"mem.numa.mesh.x_hops", &DirectoryStats::meshXHops},
        {"mem.numa.mesh.y_hops", &DirectoryStats::meshYHops},
    };

    /** Exported at occupancy > 0 only, with the missLatency buckets. */
    static constexpr NamedCounter contendedCounters[] = {
        {"mem.dir.nacks", &DirectoryStats::nacks},
        {"mem.dir.retries", &DirectoryStats::retries},
        {"mem.dir.livelock_breaks", &DirectoryStats::livelockBreaks},
        {"mem.dir.occupancy_busy_cycles",
         &DirectoryStats::occupancyBusyCycles},
        {"mem.dir.occupancy_queue_delay",
         &DirectoryStats::occupancyQueueDelay},
        {"mem.numa.link.busy_cycles", &DirectoryStats::linkBusyCycles},
        {"mem.numa.link.queue_delay", &DirectoryStats::linkQueueDelay},
    };

    /** Metric name of each missLatency bucket. */
    static constexpr const char *missLatencyNames[kDirLatBuckets] = {
        "mem.dir.lat.le_64",   "mem.dir.lat.le_128",
        "mem.dir.lat.le_256",  "mem.dir.lat.le_512",
        "mem.dir.lat.le_1024", "mem.dir.lat.le_2048",
        "mem.dir.lat.le_4096", "mem.dir.lat.gt_4096",
    };
};

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
     * Arm the topology/contention plane from the machine config: the
     * group -> node map, each node's mesh coordinates and the mesh
     * dimensions (all O(nodes)), and the home/link state.
     */
    explicit DirectoryController(const sim::MachineConfig &cfg);

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
            stats_.hops +=
                count * sim::MachineConfig::ringDistance(a, b, nodes_);
            return;
        }
        const unsigned x = hopsX(a, b);
        const unsigned y = hopsY(a, b);
        stats_.hops += count * (x + y);
        stats_.meshXHops += count * x;
        stats_.meshYHops += count * y;
    }

    /** Bucket a contended-mode miss latency into the mem.dir.lat.* CDF. */
    void recordMissLatency(sim::Tick latency);

    /** Counts since the last Hierarchy::resetStats(). */
    DirectoryStats &stats() { return stats_; }
    const DirectoryStats &stats() const { return stats_; }

    /**
     * Write the counters this machine can move into `snap`: the
     * always-present set, the mesh split on a mesh, and the contended
     * set at occupancy > 0.
     */
    void exportMetrics(sim::MetricSnapshot &snap) const;

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

    // Topology, fixed at construction.
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

    DirectoryStats stats_;
};

} // namespace middlesim::mem

#endif // MEM_DIRECTORY_DIRECTORY_HH
