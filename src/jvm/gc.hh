/**
 * @file
 * Single-threaded generational copying garbage collector.
 *
 * Models the HotSpot 1.3.1 collector the paper ran: stop-the-world,
 * one collector thread, generational copying for the young generation
 * and mark-compact for the old generation. Two of the paper's
 * observations follow directly from this structure:
 *
 *  - During collection only one processor is active; all others sit
 *    idle (the "GC Idle" slice of Figure 5).
 *
 *  - The cache-to-cache transfer rate collapses to near zero during
 *    collections (Figure 10): the collector walks survivor objects
 *    scattered through a 400 MB from-space, and nearly all of those
 *    lines have long been evicted from every L2 — the copies are
 *    served by memory, not by peer caches.
 *
 * The collector is a ThreadProgram run exclusively during a safepoint
 * by core::System.
 */

#ifndef JVM_GC_HH
#define JVM_GC_HH

#include <cstdint>

#include "exec/program.hh"
#include "mem/memref.hh"
#include "sim/rng.hh"

namespace middlesim::jvm
{

/** Work description of one collection, computed by the Jvm facade. */
struct GcWork
{
    /** From-space scan base (young generation). */
    mem::Addr fromBase = 0;
    /** Bytes of young generation in use (survivors sampled from it). */
    std::uint64_t youngUsed = 0;
    /** Bytes surviving the collection (copied and promoted). */
    std::uint64_t survivorBytes = 0;
    /** To-space base (promotion region in the old generation). */
    mem::Addr toBase = 0;
    /** Old-generation bytes to compact (0 for young collections). */
    std::uint64_t compactBytes = 0;
    /** Old-generation scan base for the compaction phase. */
    mem::Addr oldBase = 0;
    /** Root-set scan instructions (thread stacks, statics). */
    std::uint64_t rootScanInstr = 150000;
    /** Instructions per 64-byte line copied. */
    std::uint64_t instrPerLine = 12;
};

/** The collector thread program; emits bursts until the GC is done. */
class GcProgram : public exec::ThreadProgram
{
  public:
    GcProgram(const GcWork &work, sim::Rng rng);

    exec::NextOp next(exec::Burst &burst, sim::Tick now) override;

  private:
    enum class Phase : std::uint8_t
    {
        Roots,
        Copy,
        Compact,
        Done,
    };

    void fillRootScan(exec::Burst &burst);
    void fillCopyChunk(exec::Burst &burst);
    void fillCompactChunk(exec::Burst &burst);

    GcWork work_;
    sim::Rng rng_;
    Phase phase_ = Phase::Roots;

    std::uint64_t copiedLines_ = 0;
    std::uint64_t totalCopyLines_;
    std::uint64_t compactedLines_ = 0;
    std::uint64_t totalCompactLines_;
    /** From-space stride between sampled survivor lines. */
    std::uint64_t survivorStride_;
};

} // namespace middlesim::jvm

#endif // JVM_GC_HH
