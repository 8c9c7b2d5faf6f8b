/**
 * @file
 * The zero-overhead-when-off recording interface of the reference
 * trace subsystem.
 *
 * The paper's apparatus was a two-stage pipeline: the Simics
 * full-system simulator produced interleaved per-CPU reference
 * streams (including OS activity), and the Sumo memory simulator
 * consumed them. TraceSink is the seam that recreates that split
 * here: the execution-driven layers (mem::Hierarchy, os::Scheduler,
 * core::System) call into an optionally-attached sink; when none is
 * attached the cost is a single predictable-not-taken branch. The
 * inline L1I-hit path (Hierarchy::fetchHitInPlace) hands its hits to
 * the sink too, so a recorded run keeps that path.
 *
 * Two record kinds flow through the sink:
 *  - ref(): every memory reference, in the exact global order the
 *    hierarchy processed it (the Systems here are single-threaded,
 *    so this order fully determines all hit/miss behavior), and
 *  - annotation(): sparse markers — GC/safepoint windows, execution
 *    mode switches, migrations, transaction boundaries, measurement
 *    and reset points — that let a replayer reproduce the measurement
 *    protocol and let tooling reconstruct a timeline.
 */

#ifndef MEM_TRACE_SINK_HH
#define MEM_TRACE_SINK_HH

#include <cstdint>

#include "mem/memref.hh"
#include "sim/ticks.hh"

namespace middlesim::mem
{

/** Kinds of sparse annotation records in a reference trace. */
enum class TraceAnnotation : std::uint8_t
{
    /** System::beginMeasurement() — measured interval starts. */
    MeasureBegin = 0,
    /** Stop-the-world collection begins (cpu = collector CPU). */
    GcBegin,
    /** Minor collection ends (arg = pause cycles). */
    GcEndMinor,
    /** Major collection ends (arg = pause cycles). */
    GcEndMajor,
    /** Safepoint begins: application threads drain off the CPUs. */
    SafepointBegin,
    /** Safepoint ends. */
    SafepointEnd,
    /** Execution mode changed on a CPU (arg = exec::ExecMode). */
    ModeSwitch,
    /** Scheduler migrated a thread to `cpu` (arg = tid). */
    Migration,
    /** A transaction completed on `cpu` (arg = transaction type). */
    TxBoundary,
    /** Instruction count of the measured interval (arg = count). */
    Instructions,
    /** Hierarchy::resetStats() — per-CPU cache stats zeroed. */
    StatsReset,
    /** Hierarchy::resetRegionStats(). */
    RegionStatsReset,
    /** Hierarchy::resetCommunicationTracking(). */
    CommTrackReset,
    /** Hierarchy::invalidateAll(). */
    InvalidateAll,
};

/** Number of TraceAnnotation values (timeline/count tables). */
inline constexpr unsigned numTraceAnnotations = 14;

/** Stable display name of an annotation kind. */
inline const char *
traceAnnotationName(TraceAnnotation a)
{
    switch (a) {
      case TraceAnnotation::MeasureBegin:     return "measure.begin";
      case TraceAnnotation::GcBegin:          return "gc.begin";
      case TraceAnnotation::GcEndMinor:       return "gc.end.minor";
      case TraceAnnotation::GcEndMajor:       return "gc.end.major";
      case TraceAnnotation::SafepointBegin:   return "safepoint.begin";
      case TraceAnnotation::SafepointEnd:     return "safepoint.end";
      case TraceAnnotation::ModeSwitch:       return "mode.switch";
      case TraceAnnotation::Migration:        return "sched.migrate";
      case TraceAnnotation::TxBoundary:       return "tx.done";
      case TraceAnnotation::Instructions:     return "instructions";
      case TraceAnnotation::StatsReset:       return "reset.stats";
      case TraceAnnotation::RegionStatsReset: return "reset.regions";
      case TraceAnnotation::CommTrackReset:   return "reset.comm";
      case TraceAnnotation::InvalidateAll:    return "invalidate.all";
    }
    return "unknown";
}

/** Receiver of a recorded reference stream (see file comment). */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** One memory reference, at simulated time `now`. */
    virtual void ref(const MemRef &ref, sim::Tick now) = 0;

    /** One sparse annotation record. */
    virtual void annotation(TraceAnnotation kind, unsigned cpu,
                            sim::Tick now, std::uint64_t arg) = 0;
};

} // namespace middlesim::mem

#endif // MEM_TRACE_SINK_HH
