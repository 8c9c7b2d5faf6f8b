#include "jvm/jvm.hh"

#include <algorithm>

#include "sim/log.hh"

namespace middlesim::jvm
{

Jvm::Jvm(const JvmParams &params, sim::Rng rng)
    : params_(params), rng_(rng), heap_(params.heap)
{
    // JVM-internal shared state lives at the bottom of the old
    // generation so it occupies real, coherent addresses.
    allocTopLine_ = heap_.allocateOld(64);
    internalLock_ = &makeLock("jvm-internal");
}

mem::Addr
Jvm::allocate(unsigned tid, std::uint64_t bytes, exec::Burst *burst)
{
    bytes = (bytes + 15) & ~std::uint64_t{15};
    sim_assert(bytes <= params_.heap.tlabBytes,
               "allocation larger than a TLAB");
    if (tid >= tlabs_.size())
        tlabs_.resize(tid + 1);
    Tlab &tlab = tlabs_[tid];
    if (tlab.cursor + bytes > tlab.end) {
        // Slow path: CAS a fresh TLAB off the shared cursor.
        tlab.cursor = heap_.takeTlab();
        tlab.end = tlab.cursor + params_.heap.tlabBytes;
        if (burst)
            burst->atomic(allocTopLine_);
        ++stats_.tlabRefills;
        if (observer_)
            observer_->onTlabIssued(tid, tlab.cursor, tlab.end);
    }
    const mem::Addr addr = tlab.cursor;
    tlab.cursor += bytes;
    stats_.allocBytes += bytes;
    if (observer_)
        observer_->onAllocate(tid, addr, bytes);

    if (burst) {
        // Object initialization: header plus zeroing, one store per
        // touched line (capped for very large arrays).
        const std::uint64_t lines =
            std::min<std::uint64_t>((bytes + 63) / 64,
                                    params_.maxInitStores);
        for (std::uint64_t i = 0; i < lines; ++i)
            burst->blockStore(addr + i * 64);
    }
    return addr;
}

std::unique_ptr<exec::ThreadProgram>
Jvm::beginCollection()
{
    const std::uint64_t live =
        liveProvider_ ? liveProvider_() : heap_.pretenuredBytes();

    GcWork work;
    work.fromBase = heap_.newGenBase();
    work.youngUsed = heap_.youngUsed();
    work.survivorBytes =
        (static_cast<std::uint64_t>(
             params_.survivorFraction *
             static_cast<double>(work.youngUsed)) + 63) & ~std::uint64_t{63};
    work.rootScanInstr = params_.rootScanInstr;
    work.instrPerLine = params_.gcInstrPerLine;

    // The compaction trigger is evaluated against the paper-shape
    // old generation (heap minus the 400 MB young generation), not
    // the time-compressed one, so the 30-warehouse break lands where
    // the paper observed it.
    const std::uint64_t paper_young =
        std::min(params_.paperYoungBytes, params_.heap.heapBytes / 2);
    const double paper_old_capacity =
        static_cast<double>(params_.heap.heapBytes - paper_young);
    pendingMajor_ =
        static_cast<double>(heap_.oldUsed()) >
        params_.majorThreshold * paper_old_capacity;
    if (pendingMajor_) {
        // Mark-compact of the old generation: cost scales with the
        // data that must be examined and slid, time-compressed in
        // proportion to the young-generation compression.
        const double compress =
            static_cast<double>(params_.heap.newGenBytes) /
            static_cast<double>(params_.paperYoungBytes);
        work.compactBytes = std::max<std::uint64_t>(
            static_cast<std::uint64_t>(
                static_cast<double>(live) * compress) & ~63ULL,
            64);
        work.oldBase = heap_.oldGenBase();
    }

    // Survivors are copied into the survivor space at the top of the
    // young generation; only a small long-lived leakage promotes.
    work.toBase = heap_.newGenBase() + heap_.newGenCapacity() -
                  work.survivorBytes;
    pendingSurvivorBytes_ = work.survivorBytes;
    pendingPromoteBytes_ =
        (static_cast<std::uint64_t>(
             params_.promoteFraction *
             static_cast<double>(work.youngUsed)) + 63) &
        ~std::uint64_t{63};

    if (observer_)
        observer_->onCollectionBegin(work);
    return std::make_unique<GcProgram>(work, rng_.fork());
}

void
Jvm::endCollection(sim::Tick start, sim::Tick end)
{
    heap_.resetYoung();
    for (auto &tlab : tlabs_)
        tlab = Tlab();

    const std::uint64_t live =
        liveProvider_ ? liveProvider_() : heap_.pretenuredBytes();
    if (pendingMajor_) {
        heap_.compactOld(live);
        floatingBytes_ = 0;
        ++stats_.majorCollections;
    } else {
        // Long-lived leakage promotes; it accumulates as floating
        // garbage in the old generation until a major collection.
        if (pendingPromoteBytes_ > 0 &&
            heap_.oldUsed() + pendingPromoteBytes_ <
                heap_.oldGenCapacity()) {
            heap_.allocateOld(pendingPromoteBytes_);
            floatingBytes_ += pendingPromoteBytes_;
        }
        ++stats_.minorCollections;
    }

    GcRecord rec;
    rec.major = pendingMajor_;
    rec.start = start;
    rec.duration = end - start;
    // Heap in use after the collection: true live data plus, for
    // copying (minor) collections, survivor slack and floating
    // promoted garbage.
    const double used = static_cast<double>(
        live + floatingBytes_ + pendingSurvivorBytes_);
    rec.liveAfterMB =
        (pendingMajor_ ? static_cast<double>(live)
                       : used * params_.minorReportFactor) /
        (1024.0 * 1024.0);
    stats_.totalPause += rec.duration;
    stats_.liveAfterMB.add(rec.liveAfterMB);
    stats_.log.push_back(rec);
    stats_.pauseKcycles.add(rec.duration / 1000);
    pendingMajor_ = false;
    if (observer_)
        observer_->onCollectionEnd(rec.major);
}

exec::Lock &
Jvm::makeLock(const std::string &name)
{
    const mem::Addr line = heap_.allocateOld(64);
    locks_.push_back(std::make_unique<exec::Lock>(name, line));
    return *locks_.back();
}

void
Jvm::resetStats()
{
    stats_ = Stats();
}

} // namespace middlesim::jvm
