/**
 * @file
 * TraceReplayer: drive recorded reference streams into memory-system
 * frontends without constructing CPU/OS/JVM/workload layers.
 *
 * This is the Sumo half of the paper's pipeline. Replay feeds each
 * recorded reference — in its original global order — into a
 * mem::Hierarchy and/or a mem::SweepSimulator, and re-executes the
 * measurement protocol from the recorded reset annotations (stats /
 * region / communication-tracking resets, invalidations, instruction
 * counts). Because every System is single-threaded and all hit/miss
 * behavior depends only on access order (never on latency), replaying
 * against an identically-configured hierarchy reproduces bit-identical
 * miss counts, classifications and footprints; replaying against a
 * *different* geometry answers what-if questions at a fraction of the
 * execution-driven cost.
 */

#ifndef TRACE_REPLAY_HH
#define TRACE_REPLAY_HH

#include <cstdint>
#include <memory>

#include "mem/hierarchy.hh"
#include "mem/sweep.hh"
#include "trace/reader.hh"

namespace middlesim::trace
{

/** Summary of one replay pass. */
struct ReplayCounts
{
    std::uint64_t refs = 0;
    std::uint64_t annotations = 0;
    /** Measured-interval instruction count (Instructions records). */
    std::uint64_t instructions = 0;
    /** Tick of the MeasureBegin mark (0 if none seen). */
    sim::Tick measureTick = 0;
    bool sawMeasureBegin = false;
    /** Tick of the last decoded record. */
    sim::Tick lastTick = 0;
};

/**
 * Geometry overrides for what-if replay. Zero-valued fields keep the
 * recorded configuration.
 */
struct ReplayOverrides
{
    /** Override L2 capacity (bytes). */
    std::uint64_t l2SizeBytes = 0;
    /** Override the number of CPUs sharing each L2 (Figure 16). */
    unsigned cpusPerL2 = 0;
};

/**
 * Build a hierarchy matching the trace header (plus overrides), with
 * the recorded regions defined and communication tracking restored.
 */
std::unique_ptr<mem::Hierarchy>
hierarchyFor(const TraceHeader &header,
             const ReplayOverrides &overrides = {});

/**
 * Replay every remaining record of `reader` into the given frontends
 * (either may be nullptr). Check reader.complete() afterwards: a
 * trace that fails validation mid-stream yields partial state that
 * must be discarded. Replays of one trace into different hierarchies
 * never interact, so each may run on its own thread with its own
 * reader over shared bytes (core::replayTraceSharing does).
 */
ReplayCounts replayTrace(TraceReader &reader, mem::Hierarchy *hierarchy,
                         mem::SweepSimulator *sweep);

} // namespace middlesim::trace

#endif // TRACE_REPLAY_HH
