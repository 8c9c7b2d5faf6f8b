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
 *
 * A replay decodes its trace once, into chunks of compact records,
 * and every frontend applies every chunk in trace order. With two or
 * more frontends and two or more replay threads (replayThreads()),
 * each frontend gets a worker of its own on a local pool, and the
 * chunks pass through a small fixed ring: a slot is refilled only
 * after every worker has applied it, and a worker that finds nothing
 * left to apply decodes the next chunks itself, so the faster workers
 * decode for the slowest. Otherwise the calling thread decodes each
 * chunk and applies it to each frontend in turn. The ring's size does
 * not depend on the trace.
 */

#ifndef TRACE_REPLAY_HH
#define TRACE_REPLAY_HH

#include <cstdint>
#include <memory>
#include <vector>

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

/** One replay target: a hierarchy, a sweep or both (either may be null). */
struct ReplayFrontend
{
    mem::Hierarchy *hierarchy = nullptr;
    mem::SweepSimulator *sweep = nullptr;
};

/**
 * Threads a replay may fan out to: the hardware threads, or 1 when
 * the caller already runs on a pool worker (sim::ThreadPool::onWorker)
 * and so must not start a pool under it.
 */
unsigned replayThreads();

/**
 * Replay every remaining record of `reader`, decoded once, into every
 * frontend (see file comment). Frontends must share no state, and
 * anything that may fatal(), such as building them, belongs to the
 * caller, never to a worker. Check reader.complete() afterwards: a
 * trace that fails validation mid-stream stops the decoding and
 * leaves every frontend with partial state that must be discarded.
 */
ReplayCounts replayTrace(TraceReader &reader,
                         const std::vector<ReplayFrontend> &frontends);

/** The same into one frontend. */
ReplayCounts replayTrace(TraceReader &reader, mem::Hierarchy *hierarchy,
                         mem::SweepSimulator *sweep);

} // namespace middlesim::trace

#endif // TRACE_REPLAY_HH
