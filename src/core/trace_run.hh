/**
 * @file
 * Record/replay glue between the experiment runner and src/trace/.
 *
 * A recorded trace is a content-addressed artifact: its file name is
 * derived from the same canonical ExperimentSpec key the RunCache
 * uses, so "record once" composes with "memoize once" — the trace of
 * a spec lives alongside its cached results and either can reproduce
 * the other's numbers.
 *
 * Workflow (wired through the figure drivers and bench/run_all):
 *   --trace-out=DIR  record every execution-driven leaf run into
 *                    DIR/trace-<hash>.mst (skipped when the file
 *                    already exists);
 *   --trace-in=DIR   satisfy Figure 12/13 cache sweeps by replaying
 *                    DIR's recording of the matching spec instead of
 *                    re-executing the workload/JVM/OS stack;
 *   MIDDLESIM_TRACE=DIR   both at once (record on miss, replay on
 *                    hit).
 */

#ifndef CORE_TRACE_RUN_HH
#define CORE_TRACE_RUN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"

namespace middlesim::core
{

/** Set the recording / replay directories ("" disables either). */
void configureTracing(const std::string &out_dir,
                      const std::string &in_dir);

const std::string &traceOutDir();
const std::string &traceInDir();

/** Content-addressed trace file name: "trace-<fnv1a64 hex>.mst". */
std::string traceFileName(const ExperimentSpec &spec);

/** DIR/trace-<hash>.mst for a spec. */
std::string traceFilePath(const std::string &dir,
                          const ExperimentSpec &spec);

/** The trace header describing `system` about to run `spec`. */
trace::TraceHeader traceHeaderFor(System &system,
                                  const ExperimentSpec &spec);

/**
 * Attach a file-backed recorder to `system` when --trace-out is
 * configured and no recording of this spec exists yet. Returns
 * nullptr (and records nothing) otherwise. The caller must call
 * finishTraceRecording() after the measured interval.
 */
std::unique_ptr<trace::TraceWriter>
beginTraceRecording(System &system, const ExperimentSpec &spec);

/**
 * Finalize a recording: append the measured instruction count,
 * detach the sink and atomically publish the trace file.
 */
void finishTraceRecording(std::unique_ptr<trace::TraceWriter> writer,
                          System &system, const ExperimentSpec &spec);

/** Execution-driven run with recording, plus comparison payloads. */
struct TraceRecordOutcome
{
    RunResult result;
    /** Post-measure per-CPU hierarchy stats (all CPUs). */
    std::vector<mem::CacheStats> perCpu;
    /** Aggregate over the application processor set. */
    mem::CacheStats aggregate;
    /** Per-line c2c transfer counts, sorted by line address. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> c2cLines;
    std::uint64_t touchedLines = 0;
    std::vector<mem::Hierarchy::Region> regions;
    /** The finished trace bytes (empty when recorded to `path`). */
    std::string traceData;
};

/**
 * Run `spec` execution-driven while recording it. With a non-empty
 * `path` the trace streams to that file; otherwise it is returned
 * in-memory in `traceData`. Independent of the --trace-out wiring
 * and of the RunCache.
 */
TraceRecordOutcome recordTraceRun(const ExperimentSpec &spec,
                                  const std::string &path = "");

/** Replay against a hierarchy rebuilt from the header (+overrides). */
struct HierarchyReplayOutcome
{
    bool valid = false;
    std::string error;
    trace::TraceHeader header;
    trace::ReplayCounts counts;

    std::vector<mem::CacheStats> perCpu;
    /** Aggregate over the recorded application processor set. */
    mem::CacheStats aggregate;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> c2cLines;
    std::uint64_t touchedLines = 0;
    std::vector<mem::Hierarchy::Region> regions;
};

HierarchyReplayOutcome
replayTraceHierarchy(std::string trace_data,
                     const trace::ReplayOverrides &overrides = {});

/** Replay against the paper's multi-size cache sweep (Figs 12/13). */
struct SweepReplayOutcome
{
    bool valid = false;
    std::string error;
    trace::TraceHeader header;
    trace::ReplayCounts counts;

    std::vector<mem::SweepResult> icache;
    std::vector<mem::SweepResult> dcache;
    std::uint64_t instructions = 0;
};

/**
 * One decode of the trace through the paper-sweep geometries, split
 * into P set slices (mem::SweepSimulator), one replay frontend each:
 * P is the largest power of two no larger than the replay threads
 * (trace::replayThreads) and the smallest set count. The slices'
 * counts sum, per geometry, to one unsliced simulator's; `counts` and
 * `instructions` cover the whole stream. On a malformed trace the
 * outcome carries the reader's error.
 */
SweepReplayOutcome replayTraceSweep(std::string trace_data);

/**
 * Figure 16 sharing study from one SMP recording, decoded once: one
 * hierarchy per sharing degree (cpusPerL2 override), each a replay
 * frontend with a worker of its own when more than one replay thread
 * is available (trace::replayTrace). The hierarchies never interact,
 * so outcome i is bit-identical to replayTraceHierarchy(trace,
 * {0, degrees[i]}), in degree order. On a malformed trace, every
 * outcome carries the reader's error. `reader` is the trace after its
 * header, which the caller may have read to choose the degrees.
 */
std::vector<HierarchyReplayOutcome>
replayTraceSharing(trace::TraceReader &reader,
                   const std::vector<unsigned> &degrees);

/** The same, taking the trace bytes over. */
std::vector<HierarchyReplayOutcome>
replayTraceSharing(std::string trace_data,
                   const std::vector<unsigned> &degrees);

} // namespace middlesim::core

#endif // CORE_TRACE_RUN_HH
