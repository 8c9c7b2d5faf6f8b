#include "mem/directory/directory.hh"

#include <bit>

namespace middlesim::mem
{

DirectoryController::DirectoryController(sim::MetricRegistry *metrics)
    : metrics_(metrics)
{
    auto bind = [&](sim::Counter *&slot, const char *name, unsigned i) {
        slot = metrics ? &metrics->counter(name) : &fallback_[i];
    };
    bind(getS_, "mem.dir.get_s", 0);
    bind(getM_, "mem.dir.get_m", 1);
    bind(upgrades_, "mem.dir.upgrades", 2);
    bind(forwards_, "mem.dir.forwards", 3);
    bind(invalidationsSent_, "mem.dir.invalidations_sent", 4);
    bind(acksReceived_, "mem.dir.acks_received", 5);
    bind(writebacksToHome_, "mem.dir.writebacks_home", 6);
    bind(putNotices_, "mem.dir.put_notices", 7);
    bind(localMisses_, "mem.numa.local_misses", 8);
    bind(remoteMisses_, "mem.numa.remote_misses", 9);
    bind(hopsTraversed_, "mem.numa.hops", 10);
    // The contended-mode counters start on private fallbacks; they are
    // re-bound onto the registry by configure() only when the plane is
    // actually enabled, so default metric output carries no trace of
    // the contention model.
    nacks_ = &fallback_[11];
    retries_ = &fallback_[12];
    livelockBreaks_ = &fallback_[13];
    occupancyBusyCycles_ = &fallback_[14];
    occupancyQueueDelay_ = &fallback_[15];
    linkBusyCycles_ = &fallback_[16];
    linkQueueDelay_ = &fallback_[17];
    meshXHops_ = &fallback_[18];
    meshYHops_ = &fallback_[19];
    for (unsigned b = 0; b < kLatBuckets; ++b)
        latBuckets_[b] = &fallback_[20 + b];
}

void
DirectoryController::configure(const sim::MachineConfig &cfg)
{
    nodes_ = cfg.numaNodes;
    blockShift_ = static_cast<unsigned>(std::countr_zero(cfg.l2.blockBytes));
    groupNode_.resize(cfg.numL2s());
    for (unsigned g = 0; g < cfg.numL2s(); ++g)
        groupNode_[g] = cfg.nodeOfGroup(g);
    mesh_ = cfg.topology == sim::Topology::Mesh;
    if (mesh_) {
        meshWidth_ = cfg.meshWidth();
        meshHeight_ = cfg.meshHeight();
        meshX_.resize(nodes_);
        meshY_.resize(nodes_);
        for (unsigned n = 0; n < nodes_; ++n) {
            meshX_[n] = cfg.meshX(n);
            meshY_[n] = cfg.meshY(n);
        }
    }
    slotsPerHome_ = cfg.dirOccupancy;
    if (mesh_ && metrics_) {
        meshXHops_ = &metrics_->counter("mem.numa.mesh.x_hops");
        meshYHops_ = &metrics_->counter("mem.numa.mesh.y_hops");
    }
    if (!contended())
        return;
    homes_.assign(cfg.numaNodes, HomeState());
    for (HomeState &h : homes_)
        h.slotBusyUntil.assign(slotsPerHome_, 0);
    // Four directed link slots per node (+x, -x, +y, -y); the ring
    // uses only the X pair.
    links_.assign(4u * cfg.numaNodes, LinkState());
    if (metrics_) {
        nacks_ = &metrics_->counter("mem.dir.nacks");
        retries_ = &metrics_->counter("mem.dir.retries");
        livelockBreaks_ = &metrics_->counter("mem.dir.livelock_breaks");
        occupancyBusyCycles_ =
            &metrics_->counter("mem.dir.occupancy_busy_cycles");
        occupancyQueueDelay_ =
            &metrics_->counter("mem.dir.occupancy_queue_delay");
        linkBusyCycles_ = &metrics_->counter("mem.numa.link.busy_cycles");
        linkQueueDelay_ = &metrics_->counter("mem.numa.link.queue_delay");
        static const char *const bucket_names[kLatBuckets] = {
            "mem.dir.lat.le_64",   "mem.dir.lat.le_128",
            "mem.dir.lat.le_256",  "mem.dir.lat.le_512",
            "mem.dir.lat.le_1024", "mem.dir.lat.le_2048",
            "mem.dir.lat.le_4096", "mem.dir.lat.gt_4096",
        };
        for (unsigned b = 0; b < kLatBuckets; ++b)
            latBuckets_[b] = &metrics_->counter(bucket_names[b]);
    }
}

bool
DirectoryController::tryAcquireHome(unsigned home, sim::Tick now,
                                    sim::Tick service,
                                    sim::Tick &queue_delay)
{
    queue_delay = 0;
    if (!contended())
        return true;
    HomeState &h = homes_[home];
    std::size_t freest = 0;
    for (std::size_t s = 1; s < h.slotBusyUntil.size(); ++s) {
        if (h.slotBusyUntil[s] < h.slotBusyUntil[freest])
            freest = s;
    }
    const sim::Tick busy_until = h.slotBusyUntil[freest];
    if (busy_until > now && busy_until - now <= kDirNackHorizon)
        return false;
    queue_delay = static_cast<sim::Tick>(
        static_cast<double>(service) * 0.5 * h.utilization /
        (1.0 - h.utilization));
    h.slotBusyUntil[freest] = now + queue_delay + service;
    h.epochBusy += service;
    *occupancyBusyCycles_ += service;
    *occupancyQueueDelay_ += queue_delay;
    return true;
}

sim::Tick
DirectoryController::walkAxis(unsigned &node, unsigned coord,
                              unsigned target, unsigned size,
                              unsigned stride, unsigned fwd_dir,
                              sim::Tick per_hop)
{
    sim::Tick total = 0;
    while (coord != target) {
        // Shorter way around the axis ring; forward on a tie.
        const unsigned fwd = (target + size - coord) % size;
        const bool forward = fwd <= size - fwd;
        const unsigned dirn = forward ? fwd_dir : fwd_dir + 1;
        LinkState &link = links_[4u * node + dirn];
        const sim::Tick delay = static_cast<sim::Tick>(
            static_cast<double>(per_hop) * 0.5 * link.utilization /
            (1.0 - link.utilization));
        link.epochBusy += per_hop;
        *linkBusyCycles_ += per_hop;
        *linkQueueDelay_ += delay;
        total += delay;
        if (forward) {
            coord = (coord + 1) % size;
            node = coord == 0 ? node + stride - size * stride
                              : node + stride;
        } else {
            coord = (coord + size - 1) % size;
            node = coord == size - 1 ? node - stride + size * stride
                                     : node - stride;
        }
    }
    return total;
}

sim::Tick
DirectoryController::linkTraverse(unsigned from, unsigned to,
                                  sim::Tick per_hop)
{
    if (!contended() || from == to)
        return 0;
    unsigned node = from;
    if (!mesh_)
        return walkAxis(node, from, to, nodes_, 1, 0, per_hop);
    sim::Tick total = walkAxis(node, meshX_[from], meshX_[to],
                               meshWidth_, 1, 0, per_hop);
    total += walkAxis(node, meshY_[node], meshY_[to], meshHeight_,
                      meshWidth_, 2, per_hop);
    return total;
}

void
DirectoryController::advanceEpoch(sim::Tick epoch_len)
{
    if (!contended() || epoch_len == 0)
        return;
    const auto close = [epoch_len](sim::Tick &busy, double &util) {
        const double rho = static_cast<double>(busy) /
                           static_cast<double>(epoch_len);
        util = std::min(rho, 0.92);
        busy = 0;
    };
    for (HomeState &h : homes_)
        close(h.epochBusy, h.utilization);
    for (LinkState &link : links_)
        close(link.epochBusy, link.utilization);
}

void
DirectoryController::recordMissLatency(sim::Tick latency)
{
    if (!contended())
        return;
    unsigned b = 0;
    while (b < kLatBuckets - 1 && latency > kDirLatEdges[b])
        ++b;
    ++*latBuckets_[b];
}

} // namespace middlesim::mem
