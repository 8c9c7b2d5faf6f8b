#include "mem/directory/directory.hh"

#include <bit>

namespace middlesim::mem
{

DirectoryController::DirectoryController(const sim::MachineConfig &cfg)
    : nodes_(cfg.numaNodes),
      blockShift_(
          static_cast<unsigned>(std::countr_zero(cfg.l2.blockBytes))),
      mesh_(cfg.topology == sim::Topology::Mesh),
      slotsPerHome_(cfg.dirOccupancy)
{
    groupNode_.resize(cfg.numL2s());
    for (unsigned g = 0; g < cfg.numL2s(); ++g)
        groupNode_[g] = cfg.nodeOfGroup(g);
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
    if (!contended())
        return;
    homes_.assign(cfg.numaNodes, HomeState());
    for (HomeState &h : homes_)
        h.slotBusyUntil.assign(slotsPerHome_, 0);
    // Four directed link slots per node (+x, -x, +y, -y); the ring
    // uses only the X pair.
    links_.assign(4u * cfg.numaNodes, LinkState());
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
    stats_.occupancyBusyCycles += service;
    stats_.occupancyQueueDelay += queue_delay;
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
        stats_.linkBusyCycles += per_hop;
        stats_.linkQueueDelay += delay;
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
    while (b < kDirLatBuckets - 1 && latency > kDirLatEdges[b])
        ++b;
    ++stats_.missLatency[b];
}

void
DirectoryController::exportMetrics(sim::MetricSnapshot &snap) const
{
    const auto put = [&](const auto &table) {
        for (const auto &[name, counter] : table)
            snap.counters[name] = stats_.*counter;
    };
    put(DirectoryStats::counters);
    if (mesh_)
        put(DirectoryStats::meshCounters);
    if (!contended())
        return;
    put(DirectoryStats::contendedCounters);
    for (unsigned b = 0; b < kDirLatBuckets; ++b)
        snap.counters[DirectoryStats::missLatencyNames[b]] =
            stats_.missLatency[b];
}

} // namespace middlesim::mem
