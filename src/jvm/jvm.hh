/**
 * @file
 * JVM facade: TLAB allocation, safepoint/GC orchestration, and Java
 * monitor creation.
 *
 * Allocation follows HotSpot's design: each thread bump-allocates
 * within a thread-local allocation buffer (TLAB); refills CAS on a
 * shared young-generation cursor (a hot shared line — one of the
 * JVM-internal contention points the paper hypothesizes). When the
 * young generation fills, the JVM requests a stop-the-world
 * collection, which core::System runs at the next safepoint.
 */

#ifndef JVM_JVM_HH
#define JVM_JVM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/program.hh"
#include "jvm/gc.hh"
#include "jvm/heap.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"
#include "stats/summary.hh"

namespace middlesim::jvm
{

/** JVM behavioral parameters. */
struct JvmParams
{
    HeapParams heap;
    /**
     * Fraction of young-generation bytes surviving a collection
     * (copied to the survivor space; determines collector work).
     */
    double survivorFraction = 0.03;
    /**
     * Fraction of young-generation bytes promoted to the old
     * generation per collection (long-lived leakage; most survivors
     * die within a few collections and never promote).
     */
    double promoteFraction = 0.012;
    /** Collector instructions per copied 64-byte line. */
    std::uint64_t gcInstrPerLine = 10;
    /** Root-scan instructions per collection. */
    std::uint64_t rootScanInstr = 60000;
    /**
     * Old-generation occupancy that triggers a major (mark-compact)
     * collection. The default reflects HotSpot 1.3.1's promotion-
     * reserve policy at the paper's heap shape: the collector
     * compacts once old-generation use approaches the headroom
     * needed to guarantee a full young-generation promotion.
     */
    double majorThreshold = 0.30;
    /** Cap on object-initialization stores recorded per allocation. */
    std::uint64_t maxInitStores = 3;
    /**
     * Measured heap-after-collection exceeds true live data after a
     * copying (minor) collection: survivor-space slack and floating
     * promoted garbage. Mark-compact reports tight values — the
     * switch produces the Figure 11 drop beyond ~30 warehouses.
     */
    double minorReportFactor = 1.18;
    /**
     * Young generation size the paper's collector costs are scaled
     * against (400 MB): compaction work in time-compressed runs is
     * scaled by newGenBytes / paperYoungBytes.
     */
    std::uint64_t paperYoungBytes = 400ULL << 20;
};

/**
 * Allocation/GC inspection hook (src/check/). Same contract as
 * mem::AccessObserver: optionally attached, read only, a single
 * not-taken branch when absent.
 */
class JvmObserver
{
  public:
    virtual ~JvmObserver() = default;

    /** Thread `tid` received a fresh TLAB spanning [base, end). */
    virtual void onTlabIssued(unsigned tid, mem::Addr base,
                              mem::Addr end) = 0;

    /** Thread `tid` bump-allocated `bytes` at `addr`. */
    virtual void onAllocate(unsigned tid, mem::Addr addr,
                            std::uint64_t bytes) = 0;

    /** A collection is starting with the given work description. */
    virtual void onCollectionBegin(const GcWork &work) = 0;

    /** The collection finished (`major` = mark-compact). */
    virtual void onCollectionEnd(bool major) = 0;
};

/** One completed collection (for timelines and Figure 11). */
struct GcRecord
{
    bool major = false;
    sim::Tick start = 0;
    sim::Tick duration = 0;
    /** Heap in use immediately after the collection (MB). */
    double liveAfterMB = 0.0;
};

/** The JVM: heap + allocator + collector + monitors. */
class Jvm
{
  public:
    Jvm(const JvmParams &params, sim::Rng rng);

    Heap &heap() { return heap_; }
    const Heap &heap() const { return heap_; }
    const JvmParams &params() const { return params_; }

    /**
     * Reserve a JVM thread id (indexes the thread's TLAB). Every
     * model thread that allocates must register exactly once.
     */
    unsigned registerThread() { return nextTid_++; }

    /**
     * Allocate `bytes` for thread `tid`. When `burst` is non-null the
     * allocation's memory traffic is recorded into it: initializing
     * stores for the new object and, on a TLAB refill, the CAS on the
     * shared young-generation cursor.
     */
    mem::Addr allocate(unsigned tid, std::uint64_t bytes,
                       exec::Burst *burst);

    /** True when the young generation has crossed the GC trigger. */
    bool gcRequested() const { return heap_.gcNeeded(); }

    /**
     * Long-lived bytes currently live, provided by the workload
     * (object trees, bean caches, session state). Determines major-
     * collection results and the Figure 11 series.
     */
    void
    setLiveBytesProvider(std::function<std::uint64_t()> provider)
    {
        liveProvider_ = std::move(provider);
    }

    /**
     * Start a collection: computes the work (minor, or major when the
     * old generation is past the threshold) and returns the collector
     * program to run during the safepoint.
     */
    std::unique_ptr<exec::ThreadProgram> beginCollection();

    /** Finish the collection started by beginCollection(). */
    void endCollection(sim::Tick start, sim::Tick end);

    /** Create a Java monitor whose lock word lives in the heap. */
    exec::Lock &makeLock(const std::string &name);

    /**
     * The JVM-internal global lock (code cache, monitor inflation,
     * ...). The paper attributes part of the idle-time growth to
     * contention inside the JVM; workloads acquire this briefly.
     */
    exec::Lock &internalLock() { return *internalLock_; }

    /** Cumulative allocation and GC statistics since the last reset. */
    struct Stats
    {
        std::uint64_t minorCollections = 0;
        std::uint64_t majorCollections = 0;
        sim::Tick totalPause = 0;
        stats::RunningStat liveAfterMB;
        std::vector<GcRecord> log;
        /** Bytes allocated (rounded to 16) and TLABs issued. */
        std::uint64_t allocBytes = 0;
        std::uint64_t tlabRefills = 0;
        /** Collection pauses, in thousands of cycles. */
        sim::HistogramMetric pauseKcycles;
    };

    const Stats &stats() const { return stats_; }
    void resetStats();

    /** Attach an allocation/GC invariant observer (nullptr detaches). */
    void setObserver(JvmObserver *obs) { observer_ = obs; }

  private:
    struct Tlab
    {
        mem::Addr cursor = 0;
        mem::Addr end = 0;
    };

    JvmParams params_;
    sim::Rng rng_;
    Heap heap_;
    std::vector<Tlab> tlabs_;
    std::function<std::uint64_t()> liveProvider_;

    std::vector<std::unique_ptr<exec::Lock>> locks_;
    exec::Lock *internalLock_;

    /** Shared young-generation allocation cursor line. */
    mem::Addr allocTopLine_;

    bool pendingMajor_ = false;
    std::uint64_t floatingBytes_ = 0;
    std::uint64_t pendingSurvivorBytes_ = 0;
    std::uint64_t pendingPromoteBytes_ = 0;
    unsigned nextTid_ = 0;
    Stats stats_;
    JvmObserver *observer_ = nullptr;
};

} // namespace middlesim::jvm

#endif // JVM_JVM_HH
