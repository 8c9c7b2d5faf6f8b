#include "mem/hierarchy.hh"

#include <bit>

#include "sim/log.hh"

namespace middlesim::mem
{

namespace
{

/** Validate the machine and return its L2 group count. */
unsigned
checkedGroupCount(const sim::MachineConfig &cfg)
{
    cfg.validate();
    // Block records carry one bit per L2 group; each protocol
    // declares how wide a machine it supports. The snooping bus keeps
    // its historical ceiling — every L2 observes every transaction,
    // and the model was only ever validated at bus scales — while the
    // directory's full-map vectors are width-parameterized up to a
    // sanity bound.
    if (cfg.protocol == sim::CoherenceProtocol::SnoopBus &&
        cfg.numL2s() > kMaxSnoopGroups) {
        fatal("hierarchy: ", cfg.numL2s(),
              " L2 groups exceed kMaxSnoopGroups=", kMaxSnoopGroups,
              " for the snooping bus; select --protocol=directory "
              "for many-core geometries");
    }
    if (cfg.numL2s() > kMaxDirectoryGroups) {
        fatal("hierarchy: ", cfg.numL2s(),
              " L2 groups exceed kMaxDirectoryGroups=",
              kMaxDirectoryGroups);
    }
    return cfg.numL2s();
}

} // namespace

Hierarchy::Hierarchy(const sim::MachineConfig &config,
                     const LatencyModel &latency, bool bus_contention)
    : cfg_(config), lat_(latency), bus_(bus_contention),
      meta_(checkedGroupCount(cfg_),
            cfg_.protocol == sim::CoherenceProtocol::DirectoryMesi)
{
    if (cfg_.protocol == sim::CoherenceProtocol::DirectoryMesi)
        dir_ = std::make_unique<DirectoryController>(cfg_);

    l1i_.reserve(cfg_.totalCpus);
    l1d_.reserve(cfg_.totalCpus);
    stats_.resize(cfg_.totalCpus);
    for (unsigned c = 0; c < cfg_.totalCpus; ++c) {
        l1i_.emplace_back(cfg_.l1i);
        l1d_.emplace_back(cfg_.l1d);
    }
    l2_.reserve(cfg_.numL2s());
    for (unsigned g = 0; g < cfg_.numL2s(); ++g)
        l2_.emplace_back(cfg_.l2);
}

AccessResult
Hierarchy::accessImpl(const MemRef &ref, sim::Tick now)
{
    if (traceSink_)
        traceSink_->ref(ref, now);
    if (sweepTap_)
        sweepTap_->access(ref);
    CacheStats &st = stats_[ref.cpu];

    switch (ref.type) {
      case AccessType::IFetch: {
        if (applyL1iHit(ref.cpu, ref.addr))
            return {lat_.l1Hit, ServedBy::L1, MissClass::None};
        ++st.ifetches;
        AccessResult res = l2Access(ref, now);
        CacheArray &l1 = l1i_[ref.cpu];
        CacheLine &frame = l1.victim(ref.addr);
        l1.install(frame, ref.addr, CoherenceState::Shared);
        return res;
      }
      case AccessType::Load: {
        ++st.loads;
        CacheArray &l1 = l1d_[ref.cpu];
        if (CacheLine *line = l1.find(ref.addr)) {
            l1.touch(*line);
            ++st.l1dHits;
            return {lat_.l1Hit, ServedBy::L1, MissClass::None};
        }
        AccessResult res = l2Access(ref, now);
        CacheLine &frame = l1.victim(ref.addr);
        l1.install(frame, ref.addr, CoherenceState::Shared);
        return res;
      }
      case AccessType::Store: {
        ++st.stores;
        // Write-through, no-write-allocate: the L1D copy (if any) is
        // updated in place; the store always proceeds to the L2.
        CacheArray &l1 = l1d_[ref.cpu];
        if (CacheLine *line = l1.find(ref.addr)) {
            l1.touch(*line);
            ++st.l1dHits;
        }
        return l2Access(ref, now);
      }
      case AccessType::Atomic: {
        ++st.atomics;
        // Atomics bypass the L1 and perform the RMW at the L2.
        return l2Access(ref, now);
      }
      case AccessType::BlockStore: {
        ++st.stores;
        ++st.blockStores;
        CacheArray &l1 = l1d_[ref.cpu];
        if (CacheLine *line = l1.find(ref.addr))
            l1.touch(*line);
        return l2Access(ref, now);
      }
    }
    panic("unreachable access type");
}

AccessResult
Hierarchy::l2Access(const MemRef &ref, sim::Tick now)
{
    const bool want_write = isWrite(ref.type);
    const bool block_store = ref.type == AccessType::BlockStore;
    CacheStats &st = stats_[ref.cpu];
    const unsigned group = groupOf(ref.cpu);
    CacheArray &l2 = l2_[group];
    const Addr block = l2.blockAddr(ref.addr);

    ++st.l2Accesses;
    if (trackComm_)
        recordTouched(meta_[block]);

    CacheLine *line = l2.find(ref.addr);
    if (line && (!want_write || canWrite(line->state()) ||
                 line->state() == CoherenceState::Exclusive)) {
        // A write to Exclusive is the directory's silent upgrade: no
        // message leaves the node (MOSI never grants Exclusive). A
        // block store streams into the line without promoting it.
        if (want_write)
            line->setState(CoherenceState::Modified);
        if (!block_store)
            l2.touch(*line);
        ++st.l2Hits;
        return {lat_.l2Hit, ServedBy::L2, MissClass::None};
    }

    const LineMeta meta = meta_[block];
    if (line || block_store) {
        // Claim: write permission without data. A block store
        // overwrites the whole line, so a peer's dirty copy is
        // dropped, not copied back.
        const sim::Tick cost =
            dir_ ? dirClaim(block, group, line != nullptr, meta, now)
                 : snoopClaim(block, group, meta, now);
        if (line) {
            line->setState(CoherenceState::Modified);
            l2.touch(*line);
        } else {
            meta.everCached().set(group);
            meta.invalidated().clear(group);
            CacheLine &victim = l2.victim(ref.addr);
            if (victim.valid())
                evictLine(group, victim, ref.cpu, now);
            l2.installStreaming(victim, ref.addr,
                                CoherenceState::Modified);
            meta.presence().set(group);
        }
        if (block_store)
            return {lat_.l2Hit + cost, ServedBy::L2, MissClass::None};
        ++st.upgrades;
        return {lat_.upgrade + cost, ServedBy::UpgradeOnly,
                MissClass::None};
    }

    // Fetch: a GetS or GetM miss.
    const MissClass mclass = classifyMiss(meta, group);
    const Fetch fetch = dir_ ? dirFetch(block, group, want_write, meta, now)
                             : snoopFetch(block, group, want_write, meta,
                                          now);
    if (fetch.peerSupplied) {
        ++st.c2cTransfers;
        if (trackComm_)
            c2cPerLine_.add(block);
        if (timeline_)
            timeline_->add(now);
    }
    // classifyMiss() yields exactly one of the three classes.
    const bool cold = mclass == MissClass::Cold;
    const bool coherence = mclass == MissClass::Coherence;
    ++(cold ? st.missCold : coherence ? st.missCoherence : st.missCapacity);
    for (Region &region : regions_) {
        if (ref.addr >= region.base &&
            ref.addr < region.base + region.bytes) {
            ++(cold        ? region.missCold
               : coherence ? region.missCoherence
                           : region.missCapacity);
            break;
        }
    }
    ++(ref.type == AccessType::IFetch ? st.instrMisses : st.dataMisses);

    CacheLine &victim = l2.victim(ref.addr);
    if (victim.valid())
        evictLine(group, victim, ref.cpu, now);
    l2.install(victim, ref.addr, fetch.state);
    meta.presence().set(group);
    return {fetch.latency,
            fetch.peerSupplied ? ServedBy::Peer : ServedBy::Memory,
            mclass};
}

sim::Tick
Hierarchy::snoopClaim(Addr block, unsigned group, LineMeta meta,
                      sim::Tick now)
{
    const GroupBitsCopy peers(meta.presence());
    peers.bits().forEachSetExcept(group, [&](unsigned g) {
        CacheLine *peer = l2_[g].find(block);
        sim_assert(peer, "presence mask out of sync (claim)");
        if (!faultFires(FaultPlan::Kind::DropInvalidate, block, g))
            invalidateForRemoteWrite(g, *peer, meta);
    });
    return bus_.acquire(now, lat_.busAddrOccupancy);
}

Hierarchy::Fetch
Hierarchy::snoopFetch(Addr block, unsigned group, bool want_write,
                      LineMeta meta, sim::Tick now)
{
    // The presence mask narrows the snoop to caches actually holding
    // the block instead of probing every L2 on the bus.
    bool peer_supplied = false;
    const GroupBitsCopy peers(meta.presence());
    peers.bits().forEachSetExcept(group, [&](unsigned g) {
        CacheLine *peer = l2_[g].find(block);
        sim_assert(peer, "presence mask out of sync (snoop)");
        if (isOwner(peer->state())) {
            peer_supplied = true;
            ++copybacksSupplied_;
        }
        if (want_write) {
            if (!faultFires(FaultPlan::Kind::DropInvalidate, block, g))
                invalidateForRemoteWrite(g, *peer, meta);
        } else if (!faultFires(FaultPlan::Kind::KeepOwnerOnSnoop, block,
                               g)) {
            peer->setState(peerAfterGetS(peer->state()));
        }
    });
    const sim::Tick queue = bus_.acquire(now, lat_.busOccupancy);
    return {(peer_supplied ? lat_.cacheToCache : lat_.memory) + queue,
            peer_supplied,
            want_write ? CoherenceState::Modified : CoherenceState::Shared};
}

MissClass
Hierarchy::classifyMiss(LineMeta meta, unsigned group)
{
    MissClass mclass;
    if (!meta.everCached().test(group)) {
        mclass = MissClass::Cold;
    } else if (meta.invalidated().test(group)) {
        mclass = MissClass::Coherence;
    } else {
        mclass = MissClass::CapacityConflict;
    }
    meta.everCached().set(group);
    meta.invalidated().clear(group);
    return mclass;
}

void
Hierarchy::recordTouched(LineMeta meta)
{
    if (!meta.touched()) {
        meta.setTouched(true);
        ++touchedCount_;
    }
}

void
Hierarchy::evictLine(unsigned group, CacheLine &victim, unsigned req_cpu,
                     sim::Tick now)
{
    if (needsWriteback(victim.state())) {
        ++stats_[req_cpu].writebacks;
        if (!dir_)
            bus_.acquire(now, lat_.busOccupancy);
    }
    const LineMeta meta = meta_.find(victim.tag());
    sim_assert(meta, "evicting a line with no metadata");
    // Replacements notify the home so the sharer vector stays exact.
    if (dir_)
        dirHandlePut(group, victim, meta);
    // Record replacement (not invalidation) as the removal cause.
    meta.invalidated().clear(group);
    meta.presence().clear(group);
    backInvalidateL1s(group, victim.tag());
    victim.setState(CoherenceState::Invalid);
}

void
Hierarchy::invalidateForRemoteWrite(unsigned group, CacheLine &line,
                                    LineMeta meta)
{
    ++invalidations_;
    meta.invalidated().set(group);
    meta.presence().clear(group);
    backInvalidateL1s(group, line.tag());
    line.setState(CoherenceState::Invalid);
}

void
Hierarchy::backInvalidateL1s(unsigned group, Addr block)
{
    if (faultFires(FaultPlan::Kind::SkipL1BackInvalidate, block, group))
        return;
    const unsigned first = group * cfg_.cpusPerL2;
    const unsigned last = first + cfg_.cpusPerL2;
    for (unsigned c = first; c < last && c < cfg_.totalCpus; ++c) {
        if (CacheLine *line = l1i_[c].find(block)) {
            line->setState(CoherenceState::Invalid);
            ++backInvalidations_;
        }
        if (CacheLine *line = l1d_[c].find(block)) {
            line->setState(CoherenceState::Invalid);
            ++backInvalidations_;
        }
    }
}

CacheStats
Hierarchy::aggregateRange(unsigned lo, unsigned hi) const
{
    sim_assert(lo <= hi && hi < cfg_.totalCpus, "bad CPU range");
    CacheStats out;
    for (unsigned c = lo; c <= hi; ++c)
        out.accumulate(stats_[c]);
    return out;
}

CacheStats
Hierarchy::aggregateAll() const
{
    return aggregateRange(0, cfg_.totalCpus - 1);
}

void
Hierarchy::resetStats()
{
    if (traceSink_)
        traceSink_->annotation(TraceAnnotation::StatsReset, 0, 0, 0);
    for (auto &st : stats_)
        st = CacheStats();
    bus_.reset();
    invalidations_ = 0;
    backInvalidations_ = 0;
    copybacksSupplied_ = 0;
    if (dir_)
        dir_->stats() = DirectoryStats();
}

void
Hierarchy::exportMetrics(sim::MetricSnapshot &snap) const
{
    snap.counters["mem.coherence.invalidations"] = invalidations_;
    snap.counters["mem.coherence.l1_back_invalidations"] =
        backInvalidations_;
    snap.counters["mem.coherence.copybacks_supplied"] = copybacksSupplied_;
    if (dir_)
        dir_->exportMetrics(snap);
}

void
Hierarchy::setCommunicationTracking(bool on)
{
    trackComm_ = on;
    if (!on)
        resetCommunicationTracking();
}

void
Hierarchy::resetCommunicationTracking()
{
    if (traceSink_)
        traceSink_->annotation(TraceAnnotation::CommTrackReset, 0, 0, 0);
    c2cPerLine_.reset();
    touchedCount_ = 0;
    meta_.forEach([](Addr, LineMeta meta) { meta.setTouched(false); });
}

void
Hierarchy::enableTimeline(sim::Tick bin_width, unsigned num_bins)
{
    timeline_ = std::make_unique<TimelineSampler>(bin_width, num_bins);
}

CoherenceState
Hierarchy::peekState(unsigned cpu, Addr addr) const
{
    const CacheLine *line = l2_[groupOf(cpu)].find(addr);
    return line ? line->state() : CoherenceState::Invalid;
}

void
Hierarchy::defineRegion(const std::string &name, Addr base,
                        std::uint64_t bytes)
{
    regions_.push_back({name, base, bytes, 0, 0, 0});
}

void
Hierarchy::resetRegionStats()
{
    if (traceSink_)
        traceSink_->annotation(TraceAnnotation::RegionStatsReset, 0, 0,
                               0);
    for (Region &region : regions_) {
        region.missCold = 0;
        region.missCoherence = 0;
        region.missCapacity = 0;
    }
}

void
Hierarchy::invalidateAll()
{
    if (traceSink_)
        traceSink_->annotation(TraceAnnotation::InvalidateAll, 0, 0, 0);
    if (observer_)
        observer_->onInvalidateAll();
    for (auto &c : l1i_)
        c.invalidateAll();
    for (auto &c : l1d_)
        c.invalidateAll();
    for (auto &c : l2_)
        c.invalidateAll();
    // Drop all removal-cause, presence and directory state (subsequent
    // misses classify as cold again) but keep communication-tracking
    // state, which is reset only by resetCommunicationTracking().
    std::vector<Addr> touched;
    meta_.forEach([&](Addr block, LineMeta meta) {
        if (meta.touched())
            touched.push_back(block);
    });
    meta_.clear();
    for (Addr block : touched)
        meta_[block].setTouched(true);
}

} // namespace middlesim::mem
