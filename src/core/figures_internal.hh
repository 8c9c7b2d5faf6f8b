/**
 * @file
 * Leaf simulation tasks shared by the figure harnesses and the
 * all-figures runner.
 *
 * Every figure ultimately consumes a small set of leaf payloads:
 * plain runGrid points (Figures 4-9/16) plus the custom-instrumented
 * runs below (timeline, live-memory, cache-sweep, communication).
 * Each cached*() function is a pure function of its arguments, is
 * safe to call from thread-pool workers, and is memoized through
 * core/cache.hh under the kind named in its comment — so run_all can
 * prefetch one deduplicated work queue and the individual harnesses
 * then assemble their figures entirely from memo hits.
 */

#ifndef CORE_FIGURES_INTERNAL_HH
#define CORE_FIGURES_INTERNAL_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/figures.hh"
#include "mem/sweep.hh"
#include "stats/distribution.hh"

namespace middlesim::core
{

/**
 * The base spec of every figure point: workload, application CPUs,
 * seed, every machine option (protocol, NUMA nodes, topology,
 * directory occupancy) and the time-scaled warmup/measure intervals.
 * Figures adjust the rest per point, so none drops an option.
 */
ExperimentSpec figureSpec(WorkloadKind kind, unsigned cpus,
                          const FigureOptions &opt);

/** A table cell or check detail: `v` at `prec` decimals. */
inline std::string
fmt(double v, int prec = 2)
{
    return stats::Table::num(v, prec);
}

inline ShapeCheck
check(const std::string &what, bool pass, const std::string &detail)
{
    return {what, pass, detail};
}

/** Figure 10 timeline run payload (cache kind "fig10"). */
struct Fig10Data
{
    /** Simulated time when measurement began. */
    sim::Tick t0 = 0;
    /** Copyback counts per absolute bin (width fig10BinWidth). */
    std::vector<std::uint64_t> bins;
    /** Collection windows: (start, end), in absolute ticks. */
    std::vector<std::pair<sim::Tick, sim::Tick>> gcWindows;
    std::string point;
    sim::MetricSnapshot snap;

    /** Field list (sim/serialize.hh) of the payload. */
    template <typename S, typename Self>
    static void
    fields(S &s, Self &d)
    {
        s.u64(d.t0);
        s.vecU64(d.bins);
        s.records(d.gcWindows, [](auto &s, auto &w) {
            s.u64(w.first);
            s.u64(w.second);
        });
        s.str(d.point);
        s.record(d.snap);
    }
};

/** Timeline bin width of Figure 10 (~1 ms at 248 MHz). */
inline constexpr sim::Tick fig10BinWidth = 250'000;

Fig10Data cachedFig10Data(const FigureOptions &opt);

/** One Figure 11 measurement (cache kind "live"). */
struct LivePoint
{
    double mb = 0.0;
    std::string point;
    sim::MetricSnapshot snap;

    template <typename S, typename Self>
    static void
    fields(S &s, Self &p)
    {
        s.f64(p.mb);
        s.str(p.point);
        s.record(p.snap);
    }
};

LivePoint cachedLivePoint(WorkloadKind kind, unsigned scale,
                          const FigureOptions &opt);

/** Figure 11 scale sweeps (index-aligned pairs of runs). */
const std::vector<unsigned> &fig11JbbScales();
const std::vector<unsigned> &fig11EcperfScales();

/** One Figure 12/13 uniprocessor sweep (cache kind "sweep"). */
struct SweepOutcome
{
    std::vector<mem::SweepResult> icache;
    std::vector<mem::SweepResult> dcache;
    std::uint64_t instructions = 0;
    std::string point;
    sim::MetricSnapshot snap;

    template <typename S, typename Self>
    static void
    fields(S &s, Self &o)
    {
        const auto result = [](auto &s, auto &r) {
            s.record(r.params);
            s.u64(r.accesses);
            s.u64(r.misses);
        };
        s.records(o.icache, result);
        s.records(o.dcache, result);
        s.u64(o.instructions);
        s.str(o.point);
        s.record(o.snap);
    }

    double
    imissPer1000(std::size_t i) const
    {
        return icache[i].missesPer1000(instructions);
    }

    double
    dmissPer1000(std::size_t i) const
    {
        return dcache[i].missesPer1000(instructions);
    }
};

SweepOutcome cachedSweepOutcome(WorkloadKind kind, unsigned scale,
                                const FigureOptions &opt);

/** One Figure 12/13 sweep: a workload at one scale. */
struct SweepRun
{
    WorkloadKind kind;
    unsigned scale;
};

/**
 * The Figure 12/13 sweeps, in this order: ECperf at injection rate
 * 8, then SPECjbb at 1, 10 and 25 warehouses.
 */
const std::vector<SweepRun> &fig12SweepRuns();

/** One Figure 14/15 communication run (cache kind "comm"). */
struct CommPoint
{
    stats::ConcentrationCurve curve{std::vector<std::uint64_t>{}};
    std::uint64_t touchedLines = 0;
    std::string point;
    sim::MetricSnapshot snap;

    /** The curve travels as its counts and is rebuilt from them. */
    template <typename S, typename Self>
    static void
    fields(S &s, Self &p)
    {
        std::vector<std::uint64_t> counts = p.curve.counts();
        s.vecU64(counts);
        if constexpr (!std::is_const_v<Self>)
            p.curve = stats::ConcentrationCurve(std::move(counts));
        s.u64(p.touchedLines);
        s.str(p.point);
        s.record(p.snap);
    }
};

CommPoint cachedCommFootprint(WorkloadKind kind, unsigned cpus,
                              unsigned scale, const FigureOptions &opt);

/** One Figure 14/15 communication run. */
struct CommRun
{
    WorkloadKind kind;
    unsigned cpus;
    unsigned scale;
};

/**
 * The Figure 14/15 runs, in this order: SPECjbb on 15 CPUs with 15
 * warehouses, then ECperf at rate 8 on the 8 of 16 processors the
 * paper binds the application server to.
 */
const std::vector<CommRun> &fig14CommRuns();

/** The flattened grid of the Figure 4-9 scaling sweep. */
std::vector<ExperimentSpec> scalingGridSpecs(const FigureOptions &opt);

/** The Figure 16 shared-cache grid. */
std::vector<ExperimentSpec> fig16GridSpecs(const FigureOptions &opt);

} // namespace middlesim::core

#endif // CORE_FIGURES_INTERNAL_HH
