/**
 * @file
 * Experiment construction, measurement, and the multi-run
 * variability methodology.
 *
 * An ExperimentSpec names a workload, a machine shape and a
 * measurement interval; runExperiment() builds the system, warms it
 * up, measures a steady-state interval and returns a RunResult of
 * scalar observables. repeatedSpec() and runGrid() apply the
 * methodology of Alameldeen & Wood [2]: the same experiment is run
 * several times with perturbed seeds and every reported value
 * carries a standard deviation.
 *
 * Scaling note (documented in EXPERIMENTS.md): the JVM defaults here
 * shrink the new generation from the paper's 400 MB to 48 MB so that
 * collections occur within simulable intervals. Cache behavior is
 * unaffected (both sizes dwarf the caches); GC frequency and pause
 * fractions stay realistic; old-generation contents (which determine
 * the Figure 11 series) keep the paper's absolute sizes.
 */

#ifndef CORE_EXPERIMENT_HH
#define CORE_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/system.hh"
#include "stats/summary.hh"
#include "workload/ecperf.hh"
#include "workload/specjbb.hh"

namespace middlesim::core
{

/** Which benchmark to run. */
enum class WorkloadKind
{
    SpecJbb,
    Ecperf,
};

/** A complete description of one measured point. */
struct ExperimentSpec
{
    WorkloadKind workload = WorkloadKind::SpecJbb;

    /** Application processor-set size (psrset). */
    unsigned appCpus = 8;
    /** Processors in the machine. */
    unsigned totalCpus = 16;
    /** CPUs per shared L2 (1 = private; Figure 16 uses 2/4/8). */
    unsigned cpusPerL2 = 1;

    /** Coherence protocol (snooping bus or directory MESI). */
    sim::CoherenceProtocol protocol = sim::CoherenceProtocol::SnoopBus;
    /** NUMA nodes (directory protocol; 1 = flat UMA machine). */
    unsigned numaNodes = 1;
    /** Node interconnect (directory protocol): ring or 2-D mesh. */
    sim::Topology topology = sim::Topology::Ring;
    /** Home in-flight slots (0 = contention-free, DESIGN.md §3.14). */
    unsigned dirOccupancy = 0;

    /** Warehouses (SPECjbb) or Orders Injection Rate (ECperf);
     *  0 selects the auto rule (warehouses = appCpus, OIR = 8). */
    unsigned scale = 0;

    sim::Tick warmup = 15'000'000;
    sim::Tick measure = 35'000'000;
    std::uint64_t seed = 1;

    /** Enable per-line communication tracking (Figures 14/15). */
    bool trackCommunication = false;

    /** Machine/JVM/workload parameter overrides. */
    SystemConfig sys;
    workload::SpecJbbParams jbb;
    workload::EcperfParams ecperf;

    ExperimentSpec()
    {
        // Time-compressed new generation (see file comment).
        sys.jvm.heap.newGenBytes = 20ULL << 20;
        sys.jvm.heap.overshootBytes = 12ULL << 20;
    }

    /** Resolved scale (warehouses / OIR) after the auto rule. */
    unsigned resolvedScale() const;
};

/** Scalar observables of one run. */
struct RunResult
{
    double seconds = 0.0;
    std::uint64_t txTotal = 0;
    std::vector<std::uint64_t> txByType;
    double throughput = 0.0;

    cpu::CpiBreakdown cpi;
    os::ModeBreakdown modes;
    mem::CacheStats cache;

    std::uint64_t gcMinor = 0;
    std::uint64_t gcMajor = 0;
    sim::Tick gcPause = 0;
    double liveAfterMB = 0.0;

    /** ECperf only: bean cache hit rate over the measured interval. */
    double beanHitRate = 0.0;

    /**
     * Full observability snapshot of the run (counters, histograms,
     * series, event journal); shared so grid result vectors stay
     * cheap to copy.
     */
    std::shared_ptr<const sim::MetricSnapshot> metrics;

    /** Instructions per completed transaction (path length). */
    double pathLength() const;

    /** Fraction of app-CPU time spent in garbage collection. */
    double gcFraction() const;
};

/** A built workload (exactly one member is set). */
struct BuiltWorkload
{
    std::unique_ptr<workload::SpecJbbCompany> jbb;
    std::unique_ptr<workload::EcperfServer> ecperf;
};

/** Construct a System and its workload threads from a spec. */
std::unique_ptr<System> buildSystem(const ExperimentSpec &spec,
                                    BuiltWorkload &out);

/** Warm up, measure, and collect results. */
RunResult measure(System &system, const ExperimentSpec &spec,
                  BuiltWorkload &workload);

/** buildSystem + measure. */
RunResult runExperiment(const ExperimentSpec &spec);

/**
 * The spec of repetition r (0-based) of an experiment: identical to
 * `spec` except for a deterministically perturbed seed. Every figure
 * harness derives its seeds through this single function, so serial
 * and parallel execution agree bit-for-bit.
 */
ExperimentSpec repeatedSpec(const ExperimentSpec &spec, unsigned r);

/**
 * Run every spec as an isolated simulation (its own System, its own
 * Rng stream) and return the results in submission order. Points are
 * fanned out across the process-wide thread pool (MIDDLESIM_JOBS or
 * --jobs=N; default hardware concurrency); because each run is
 * self-contained and seed-derived, the results are byte-identical to
 * serial execution for any job count.
 *
 * Identical (spec, seed) points are deduplicated by content address
 * (core/cache.hh): each unique point simulates at most once per
 * process, and duplicates share the one RunResult + metrics snapshot.
 */
std::vector<RunResult> runGrid(const std::vector<ExperimentSpec> &specs);

/** Cumulative runGrid dedupe accounting since process start / reset. */
struct GridDedupeStats
{
    std::uint64_t requested = 0;
    std::uint64_t unique = 0;
};

GridDedupeStats gridDedupeStats();
void resetGridDedupeStats();

/** Summarize a metric over repeated runs. */
stats::RunningStat
summarize(const std::vector<RunResult> &results,
          const std::function<double(const RunResult &)> &metric);

} // namespace middlesim::core

#endif // CORE_EXPERIMENT_HH
