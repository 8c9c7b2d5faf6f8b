/**
 * @file
 * Java heap layout and bump allocation.
 *
 * Matches the configuration used throughout the paper: a 1424 MB heap
 * (the largest the authors' system supported) with a 400 MB new
 * generation, managed by a generational copying collector. The new
 * generation is carved into TLABs handed to threads from a shared
 * cursor; long-lived workload structures are pretenured directly into
 * the old generation.
 *
 * Addresses are model addresses only — no backing storage exists; the
 * memory hierarchy simulator operates on addresses alone.
 */

#ifndef JVM_HEAP_HH
#define JVM_HEAP_HH

#include <cstdint>

#include "mem/memref.hh"

namespace middlesim::jvm
{

/** Heap sizing parameters (defaults mirror the paper's tuning). */
struct HeapParams
{
    std::uint64_t heapBytes = 1424ULL << 20;
    std::uint64_t newGenBytes = 400ULL << 20;
    std::uint64_t tlabBytes = 16 * 1024;
    /**
     * Allocation beyond the GC trigger allowed while threads drain to
     * the safepoint.
     */
    std::uint64_t overshootBytes = 32ULL << 20;
};

/** Address-space bookkeeping for the modeled heap. */
class Heap
{
  public:
    explicit Heap(const HeapParams &params = HeapParams());

    static constexpr mem::Addr base = 0x2'0000'0000ULL;

    mem::Addr newGenBase() const { return base; }
    mem::Addr oldGenBase() const { return base + params_.newGenBytes; }

    std::uint64_t newGenCapacity() const { return params_.newGenBytes; }

    std::uint64_t
    oldGenCapacity() const
    {
        return params_.heapBytes - params_.newGenBytes;
    }

    /**
     * Take one TLAB from the young-generation cursor. Always
     * succeeds until the hard limit (trigger + overshoot); the caller
     * must honor gcNeeded() and reach a safepoint before the slack
     * runs out.
     */
    mem::Addr takeTlab();

    /** True once young allocation has crossed the GC trigger. */
    bool gcNeeded() const;

    /** Bytes allocated in the young generation since the last reset. */
    std::uint64_t youngUsed() const { return youngUsed_; }

    /** Empty the young generation (end of a young collection). */
    void resetYoung();

    /**
     * Allocate long-lived storage in the old generation (pretenured
     * workload structures, promoted survivors).
     */
    mem::Addr allocateOld(std::uint64_t bytes);

    std::uint64_t oldUsed() const { return oldUsed_; }

    /**
     * Mark everything allocated in the old generation so far as
     * permanent: compaction never reclaims below this floor. Workload
     * builders call this once after pretenuring their long-lived
     * structures.
     */
    void pretenureSeal() { oldFloor_ = oldUsed_; }

    std::uint64_t pretenuredBytes() const { return oldFloor_; }

    /**
     * Compact the old generation down to `live_bytes` (end of a major
     * collection). Pretenured regions allocated before the compaction
     * keep their addresses; only the bump cursor is reset, modeling
     * sliding compaction of the short-lived promoted data.
     */
    void compactOld(std::uint64_t live_bytes);

  private:
    HeapParams params_;
    std::uint64_t youngUsed_ = 0;
    std::uint64_t oldUsed_ = 0;
    /** Old-gen bytes protected from compaction (pretenured floor). */
    std::uint64_t oldFloor_ = 0;
};

} // namespace middlesim::jvm

#endif // JVM_HEAP_HH
