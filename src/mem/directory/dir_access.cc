/**
 * @file
 * The Hierarchy's directory-MESI access path.
 *
 * Transaction shapes (see DESIGN.md §3.14):
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
 *   Replacement:       PutS/PutE/PutM notice (dirHandlePut in
 *                      hierarchy.cc) keeps the vector exact.
 *
 * Latency: every home transaction pays directoryLookup plus hop-count
 * topology distance (ring or dimension-ordered XY mesh) each way; a
 * forward adds the home->owner and owner->requester legs and lands as
 * a cacheToCache transfer. Invalidation/ack fan-out overlaps the data
 * response, so it adds hops to the traffic accounting but not to the
 * critical path. With MachineConfig::dirOccupancy armed the request
 * additionally wins a home slot through the NACK/retry loop
 * (dirHomeAcquire) and queues on every interconnect link it crosses
 * (DESIGN.md §3.15).
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
    // attempts (livelock freedom, DESIGN.md §3.15).
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
        dir_->noteNack();
        if (attempt + 1 >= kDirRetryBound) {
            // Retry budget exhausted: starvation. Fail forward —
            // complete the transaction rather than hang — and raise
            // the signal the checker reports as `dir.livelock`.
            dir_->noteLivelockBreak();
            return extra;
        }
        dir_->noteRetry();
        const sim::Tick backoff =
            kDirNackBackoffBase
            << std::min(attempt, kDirNackBackoffCap);
        extra += round_trip + backoff;
    }
}

bool
Hierarchy::dirInvalidateSharers(Addr block, unsigned group,
                                bool want_data, LineMeta meta,
                                unsigned &inval_count)
{
    bool supplied = false;
    const unsigned home = dir_->homeOf(block);
    const GroupBits sharers = meta.sharers();
    const GroupBitsCopy targets(sharers);
    targets.bits().forEachSetExcept(group, [&](unsigned g) {
        ++dir_->invalidationsSent();
        ++inval_count;
        dir_->chargeHops(home, dir_->nodeOfGroup(g), 2);
        CacheLine *peer = l2_[g].find(block);
        sim_assert(peer || fault_,
                   "directory sharer vector out of sync (invalidate)");
        if (want_data && peer && suppliesDataOnForward(peer->state)) {
            // Forward-with-invalidate: the sole-copy holder sends its
            // data straight to the requester before dying.
            supplied = true;
            ++dir_->forwards();
            ++*copybacksSupplied_;
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
        ++dir_->acksReceived();
        sharers.clear(g);
    });
    return supplied;
}

AccessResult
Hierarchy::l2AccessDirectory(const MemRef &ref, sim::Tick now,
                             bool is_instr, bool want_write)
{
    CacheStats &st = stats_[ref.cpu];
    const unsigned group = groupOf(ref.cpu);
    CacheArray &l2 = l2_[group];
    const Addr block = l2.blockAddr(ref.addr);

    ++st.l2Accesses;
    if (trackComm_)
        recordTouched(meta_[block]);

    CacheLine *line = l2.find(ref.addr);
    if (line && (!want_write || canWrite(line->state))) {
        l2.touch(*line);
        ++st.l2Hits;
        return {lat_.l2Hit, ServedBy::L2, MissClass::None};
    }
    if (line && line->state == CoherenceState::Exclusive) {
        // Silent E->M upgrade: the directory already records this
        // group as owner; no message leaves the node.
        line->state = CoherenceState::Modified;
        l2.touch(*line);
        ++st.l2Hits;
        return {lat_.l2Hit, ServedBy::L2, MissClass::None};
    }

    const unsigned my_node = dir_->nodeOfGroup(group);
    const unsigned home = dir_->homeOf(block);
    const unsigned req_hops = dir_->hops(my_node, home);
    const LineMeta meta = meta_[block];

    if (line) {
        // Shared: ownership upgrade through the home.
        ++dir_->upgrades();
        dir_->chargeHops(my_node, home, 2);
        const sim::Tick contention =
            dirHomeAcquire(block, group, home, req_hops, meta, now) +
            dir_->linkTraverse(my_node, home, lat_.hop) +
            dir_->linkTraverse(home, my_node, lat_.hop);
        unsigned invals = 0;
        dirInvalidateSharers(block, group, false, meta, invals);
        meta.sharers().set(group);
        meta.setOwner(static_cast<std::int32_t>(group));
        line->state = CoherenceState::Modified;
        l2.touch(*line);
        ++st.upgrades;
        const sim::Tick latency = lat_.upgrade + lat_.directoryLookup +
                                  2 * req_hops * lat_.hop + contention;
        return {latency, ServedBy::UpgradeOnly, MissClass::None};
    }

    // L2 miss: GetS/GetM to the block's home.
    const MissClass mclass = classifyMiss(meta, group);
    bool peer_supplied = false;
    sim::Tick data_leg = lat_.memory;
    dir_->chargeHops(my_node, home, 2);
    if (req_hops == 0)
        ++dir_->localMisses();
    else
        ++dir_->remoteMisses();
    // Contended mode: win a home slot (NACK/retry/backoff), then
    // queue the request leg onto the interconnect links. The response
    // leg is charged per branch below — it runs home -> requester, or
    // along the forward path when an owner supplies the data.
    sim::Tick contention =
        dirHomeAcquire(block, group, home, req_hops, meta, now) +
        dir_->linkTraverse(my_node, home, lat_.hop);

    if (want_write) {
        ++dir_->getM();
        unsigned invals = 0;
        const std::int32_t prev_owner = meta.owner();
        peer_supplied =
            dirInvalidateSharers(block, group, true, meta, invals);
        if (peer_supplied) {
            // Data came owner->requester; add the forward legs.
            // (prev_owner can only be -1 here under injected faults
            // that left a rogue M copy; charge no hops then.)
            unsigned fwd_hops = 0;
            if (prev_owner >= 0) {
                const unsigned owner_node = dir_->nodeOfGroup(
                    static_cast<unsigned>(prev_owner));
                fwd_hops = dir_->hops(home, owner_node) +
                           dir_->hops(owner_node, my_node);
                dir_->chargeHops(home, owner_node, 1);
                dir_->chargeHops(owner_node, my_node, 1);
                contention +=
                    dir_->linkTraverse(home, owner_node, lat_.hop) +
                    dir_->linkTraverse(owner_node, my_node, lat_.hop);
            } else {
                contention +=
                    dir_->linkTraverse(home, my_node, lat_.hop);
            }
            data_leg = lat_.cacheToCache + fwd_hops * lat_.hop;
        } else {
            contention += dir_->linkTraverse(home, my_node, lat_.hop);
        }
        meta.sharers().set(group);
        meta.setOwner(static_cast<std::int32_t>(group));
    } else {
        ++dir_->getS();
        const std::int32_t owner = meta.owner();
        if (owner >= 0 && owner != static_cast<std::int32_t>(group)) {
            const unsigned og = static_cast<unsigned>(owner);
            CacheLine *peer = l2_[og].find(ref.addr);
            sim_assert(peer || fault_,
                       "directory owner out of sync (forward)");
            if (peer && suppliesDataOnForward(peer->state)) {
                peer_supplied = true;
                ++dir_->forwards();
                ++*copybacksSupplied_;
                if (peer->state == CoherenceState::Modified) {
                    // MESI has no Owned: the dirty block also goes
                    // back to the home on the downgrade.
                    ++dir_->writebacksToHome();
                }
                if (!faultFires(FaultPlan::Kind::KeepOwnerOnSnoop,
                                block, og)) {
                    peer->state = CoherenceState::Shared;
                }
                const unsigned owner_node = dir_->nodeOfGroup(og);
                const unsigned fwd_hops =
                    dir_->hops(home, owner_node) +
                    dir_->hops(owner_node, my_node);
                dir_->chargeHops(home, owner_node, 1);
                dir_->chargeHops(owner_node, my_node, 1);
                contention +=
                    dir_->linkTraverse(home, owner_node, lat_.hop) +
                    dir_->linkTraverse(owner_node, my_node, lat_.hop);
                data_leg = lat_.cacheToCache + fwd_hops * lat_.hop;
            }
            // The home records the downgrade either way.
            meta.setOwner(-1);
        }
        if (!peer_supplied)
            contention += dir_->linkTraverse(home, my_node, lat_.hop);
        const bool solo = meta.sharers().none();
        meta.sharers().set(group);
        if (solo)
            meta.setOwner(static_cast<std::int32_t>(group));
    }

    const sim::Tick latency = lat_.directoryLookup +
                              2 * req_hops * lat_.hop + data_leg +
                              contention;
    dir_->recordMissLatency(latency);
    ServedBy served;
    if (peer_supplied) {
        served = ServedBy::Peer;
        ++st.c2cTransfers;
        if (trackComm_)
            c2cPerLine_.add(block);
        if (timeline_)
            timeline_->add(now);
    } else {
        served = ServedBy::Memory;
    }

    switch (mclass) {
      case MissClass::Cold: ++st.missCold; break;
      case MissClass::Coherence: ++st.missCoherence; break;
      case MissClass::CapacityConflict: ++st.missCapacity; break;
      case MissClass::None: panic("miss without class"); break;
    }
    recordMissTail(ref, mclass, is_instr);

    CacheLine &victim = l2.victim(ref.addr);
    if (victim.valid())
        evictLine(group, victim, ref.cpu, now);
    CoherenceState install_state;
    if (want_write) {
        install_state = CoherenceState::Modified;
    } else {
        install_state =
            meta.owner() == static_cast<std::int32_t>(group)
                ? CoherenceState::Exclusive
                : CoherenceState::Shared;
    }
    l2.install(victim, ref.addr, install_state);
    meta.presence().set(group);

    return {latency, served, mclass};
}

AccessResult
Hierarchy::l2BlockStoreDirectory(const MemRef &ref, sim::Tick now)
{
    CacheStats &st = stats_[ref.cpu];
    const unsigned group = groupOf(ref.cpu);
    CacheArray &l2 = l2_[group];
    const Addr block = l2.blockAddr(ref.addr);

    ++st.l2Accesses;
    if (trackComm_)
        recordTouched(meta_[block]);

    CacheLine *line = l2.find(ref.addr);
    if (line && canWrite(line->state)) {
        // Streaming store: do not promote the line.
        ++st.l2Hits;
        return {lat_.l2Hit, ServedBy::L2, MissClass::None};
    }
    if (line && line->state == CoherenceState::Exclusive) {
        // Silent upgrade, as for a store hit.
        line->state = CoherenceState::Modified;
        ++st.l2Hits;
        return {lat_.l2Hit, ServedBy::L2, MissClass::None};
    }

    // Shared, or not present: claim ownership through the home. The
    // whole line is overwritten, so no data moves; a peer's dirty
    // copy is dropped, not copied back.
    const unsigned my_node = dir_->nodeOfGroup(group);
    const unsigned home = dir_->homeOf(block);
    const unsigned req_hops = dir_->hops(my_node, home);
    const LineMeta meta = meta_[block];
    if (line)
        ++dir_->upgrades();
    else
        ++dir_->getM();
    dir_->chargeHops(my_node, home, 2);
    const sim::Tick contention =
        dirHomeAcquire(block, group, home, req_hops, meta, now) +
        dir_->linkTraverse(my_node, home, lat_.hop) +
        dir_->linkTraverse(home, my_node, lat_.hop);
    unsigned invals = 0;
    dirInvalidateSharers(block, group, false, meta, invals);
    if (line) {
        line->state = CoherenceState::Modified;
        l2.touch(*line);
    } else {
        meta.everCached().set(group);
        meta.invalidated().clear(group);
        CacheLine &victim = l2.victim(ref.addr);
        if (victim.valid())
            evictLine(group, victim, ref.cpu, now);
        l2.installStreaming(victim, ref.addr, CoherenceState::Modified);
        meta.presence().set(group);
    }
    meta.sharers().set(group);
    meta.setOwner(static_cast<std::int32_t>(group));
    const sim::Tick latency = lat_.l2Hit + lat_.directoryLookup +
                              2 * req_hops * lat_.hop + contention;
    return {latency, ServedBy::L2, MissClass::None};
}

} // namespace middlesim::mem
