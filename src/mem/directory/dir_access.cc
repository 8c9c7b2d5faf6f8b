/**
 * @file
 * The directory-MESI steps of the Hierarchy's L2 path: the claim
 * (dirClaim), the fetch (dirFetch), the sharer invalidation, the home
 * acquisition and the replacement notice. Hits, miss classification,
 * eviction and install are shared with the snooping bus in
 * hierarchy.cc.
 *
 * Transaction shapes (see DESIGN.md §3.13):
 *
 *   GetS, no owner:    requester -> home -> memory data -> requester.
 *                      Grants Exclusive when the sharer vector is
 *                      empty, Shared otherwise.
 *   GetS, owner E/M:   requester -> home -> forward -> owner; the
 *                      owner supplies data cache-to-cache (and, from
 *                      M, writes the dirty block back to the home);
 *                      both end in Shared.
 *   GetM/Upgrade:      home invalidates every sharer and collects one
 *                      ack per invalidation; an E/M owner forwards
 *                      dirty data to the requester. Requester ends
 *                      Modified, the vector collapses to it alone.
 *   Store hit on E:    silent E->M upgrade — no message at all.
 *   Replacement:       PutS/PutE/PutM notice (dirHandlePut) keeps
 *                      the vector exact.
 *
 * Latency: every home transaction pays directoryLookup plus hop-count
 * topology distance (ring or dimension-ordered XY mesh) each way; a
 * forward adds the home->owner and owner->requester legs and lands as
 * a cacheToCache transfer. Invalidation/ack fan-out overlaps the data
 * response, so it adds hops to the traffic accounting but not to the
 * critical path. With MachineConfig::dirOccupancy armed the request
 * additionally wins a home slot through the NACK/retry loop
 * (dirHomeAcquire) and queues on every interconnect link it crosses
 * (DESIGN.md §3.14).
 *
 * Fault hooks (checker validation, never production): DropInvalidate
 * loses the invalidation in flight (stale copy survives, home clears
 * the bit anyway); DropInvalAck delivers the invalidation but loses
 * the ack (copy dies, stale sharer bit survives); KeepOwnerOnSnoop
 * leaves a forwarded owner in M/E while the home records a downgrade;
 * NackStorm (contended homes only) makes the home NACK the matched
 * requester forever, exhausting the bounded retry budget.
 */

#include <algorithm>

#include "mem/hierarchy.hh"
#include "sim/log.hh"

namespace middlesim::mem
{

sim::Tick
Hierarchy::dirHomeAcquire(Addr block, unsigned group, unsigned home,
                          unsigned req_hops, LineMeta meta,
                          sim::Tick now)
{
    if (!dir_->contended())
        return 0;
    // Each failed attempt costs the request/NACK round trip plus an
    // exponentially growing backoff. Slot reservations and transient
    // windows are fixed ticks, so absent a nack-storm fault the
    // cumulative backoff always overtakes them within kDirRetryBound
    // attempts (livelock freedom, DESIGN.md §3.14).
    const sim::Tick round_trip = 2 * req_hops * lat_.hop;
    const sim::Tick transient_until = meta.transientUntil();
    sim::Tick extra = 0;
    for (unsigned attempt = 0;; ++attempt) {
        const sim::Tick t = now + extra;
        const bool transient = transient_until > t &&
                               transient_until - t <= kDirNackHorizon;
        sim::Tick queue = 0;
        if (!faultFires(FaultPlan::Kind::NackStorm, block, group) &&
            !transient &&
            dir_->tryAcquireHome(home, t, lat_.directoryLookup,
                                 queue)) {
            meta.setTransientUntil(t + queue + lat_.directoryLookup);
            return extra + queue;
        }
        ++dir_->stats().nacks;
        if (attempt + 1 >= kDirRetryBound) {
            // Retry budget exhausted: starvation. Fail forward —
            // complete the transaction rather than hang — and raise
            // the signal the checker reports as `dir.livelock`.
            ++dir_->stats().livelockBreaks;
            return extra;
        }
        ++dir_->stats().retries;
        const sim::Tick backoff =
            kDirNackBackoffBase
            << std::min(attempt, kDirNackBackoffCap);
        extra += round_trip + backoff;
    }
}

bool
Hierarchy::dirInvalidateSharers(Addr block, unsigned group,
                                bool want_data, LineMeta meta)
{
    bool supplied = false;
    const unsigned home = dir_->homeOf(block);
    const GroupBits sharers = meta.sharers();
    const GroupBitsCopy targets(sharers);
    targets.bits().forEachSetExcept(group, [&](unsigned g) {
        ++dir_->stats().invalidationsSent;
        dir_->chargeHops(home, dir_->nodeOfGroup(g), 2);
        CacheLine *peer = l2_[g].find(block);
        sim_assert(peer || fault_,
                   "directory sharer vector out of sync (invalidate)");
        if (want_data && peer && suppliesDataOnForward(peer->state)) {
            // Forward-with-invalidate: the sole-copy holder sends its
            // data straight to the requester before dying.
            supplied = true;
            ++dir_->stats().forwards;
            ++copybacksSupplied_;
        }
        if (faultFires(FaultPlan::Kind::DropInvalidate, block, g)) {
            // Invalidation lost in flight: the stale copy survives,
            // but the home already cleared the bit — it believes the
            // message landed.
            sharers.clear(g);
            return;
        }
        if (peer)
            invalidateForRemoteWrite(g, *peer, meta);
        if (faultFires(FaultPlan::Kind::DropInvalAck, block, g)) {
            // Delivered — the copy is gone — but the ack vanishes:
            // the home keeps a stale sharer bit for a dead copy.
            return;
        }
        ++dir_->stats().acksReceived;
        sharers.clear(g);
    });
    return supplied;
}

sim::Tick
Hierarchy::dirClaim(Addr block, unsigned group, bool upgrade,
                    LineMeta meta, sim::Tick now)
{
    const unsigned my_node = dir_->nodeOfGroup(group);
    const unsigned home = dir_->homeOf(block);
    const unsigned req_hops = dir_->hops(my_node, home);
    DirectoryStats &ds = dir_->stats();
    ++(upgrade ? ds.upgrades : ds.getM);
    dir_->chargeHops(my_node, home, 2);
    const sim::Tick contention =
        dirHomeAcquire(block, group, home, req_hops, meta, now) +
        dir_->linkTraverse(my_node, home, lat_.hop) +
        dir_->linkTraverse(home, my_node, lat_.hop);
    dirInvalidateSharers(block, group, false, meta);
    meta.sharers().set(group);
    meta.setOwner(static_cast<std::int32_t>(group));
    return lat_.directoryLookup + 2 * req_hops * lat_.hop + contention;
}

Hierarchy::Fetch
Hierarchy::dirFetch(Addr block, unsigned group, bool want_write,
                    LineMeta meta, sim::Tick now)
{
    const auto self = static_cast<std::int32_t>(group);
    const unsigned my_node = dir_->nodeOfGroup(group);
    const unsigned home = dir_->homeOf(block);
    const unsigned req_hops = dir_->hops(my_node, home);
    dir_->chargeHops(my_node, home, 2);
    DirectoryStats &ds = dir_->stats();
    ++(req_hops == 0 ? ds.localMisses : ds.remoteMisses);
    // Contended mode: win a home slot (NACK/retry/backoff), then
    // queue the request leg onto the interconnect links.
    sim::Tick contention =
        dirHomeAcquire(block, group, home, req_hops, meta, now) +
        dir_->linkTraverse(my_node, home, lat_.hop);

    bool peer_supplied = false;
    // The recorded owner whose copy supplies the data; -1 when the
    // home answers from memory, or when injected faults left a rogue
    // M copy that no owner record names (its data takes no hops).
    std::int32_t forwarder = -1;
    if (want_write) {
        ++ds.getM;
        const std::int32_t prev_owner = meta.owner();
        peer_supplied = dirInvalidateSharers(block, group, true, meta);
        if (peer_supplied)
            forwarder = prev_owner;
        meta.sharers().set(group);
        meta.setOwner(self);
    } else {
        ++ds.getS;
        const std::int32_t owner = meta.owner();
        if (owner >= 0 && owner != self) {
            const unsigned og = static_cast<unsigned>(owner);
            CacheLine *peer = l2_[og].find(block);
            sim_assert(peer || fault_,
                       "directory owner out of sync (forward)");
            if (peer && suppliesDataOnForward(peer->state)) {
                peer_supplied = true;
                forwarder = owner;
                ++ds.forwards;
                ++copybacksSupplied_;
                if (peer->state == CoherenceState::Modified) {
                    // MESI has no Owned: the dirty block also goes
                    // back to the home on the downgrade.
                    ++ds.writebacksToHome;
                }
                if (!faultFires(FaultPlan::Kind::KeepOwnerOnSnoop,
                                block, og)) {
                    peer->state = CoherenceState::Shared;
                }
            }
            // The home records the downgrade either way.
            meta.setOwner(-1);
        }
        const bool solo = meta.sharers().none();
        meta.sharers().set(group);
        if (solo)
            meta.setOwner(self);
    }

    // The response leg: home -> requester, or home -> forwarder ->
    // requester as a cache-to-cache transfer.
    sim::Tick data_leg = peer_supplied ? lat_.cacheToCache : lat_.memory;
    if (forwarder >= 0) {
        const unsigned fwd_node =
            dir_->nodeOfGroup(static_cast<unsigned>(forwarder));
        dir_->chargeHops(home, fwd_node, 1);
        dir_->chargeHops(fwd_node, my_node, 1);
        data_leg += (dir_->hops(home, fwd_node) +
                     dir_->hops(fwd_node, my_node)) *
                    lat_.hop;
        contention += dir_->linkTraverse(home, fwd_node, lat_.hop) +
                      dir_->linkTraverse(fwd_node, my_node, lat_.hop);
    } else {
        contention += dir_->linkTraverse(home, my_node, lat_.hop);
    }
    const sim::Tick latency = lat_.directoryLookup +
                              2 * req_hops * lat_.hop + data_leg +
                              contention;
    dir_->recordMissLatency(latency);
    const CoherenceState state =
        want_write            ? CoherenceState::Modified
        : meta.owner() == self ? CoherenceState::Exclusive
                               : CoherenceState::Shared;
    return {latency, peer_supplied, state};
}

void
Hierarchy::dirHandlePut(unsigned group, const CacheLine &victim,
                        LineMeta meta)
{
    ++dir_->stats().putNotices;
    if (victim.state == CoherenceState::Modified)
        ++dir_->stats().writebacksToHome;
    if (meta.owner() == static_cast<std::int32_t>(group))
        meta.setOwner(-1);
    meta.sharers().clear(group);
}

} // namespace middlesim::mem
