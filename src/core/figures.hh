/**
 * @file
 * Figure-reproduction harnesses.
 *
 * One function per evaluation figure of the paper (Figures 4-16;
 * Figures 1-3 are block diagrams). Each returns the measured series,
 * the digitized paper series, a printable table, and the shape checks
 * that encode the paper's qualitative conclusions for that figure.
 * The bench binaries, the integration tests and the examples all
 * share these harnesses.
 */

#ifndef CORE_FIGURES_HH
#define CORE_FIGURES_HH

#include <compare>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/metrics_io.hh"
#include "stats/series.hh"
#include "stats/table.hh"

namespace middlesim::core
{

/** Effort knobs shared by all figure harnesses. */
struct FigureOptions
{
    /** Runs per measured point (variability methodology). */
    unsigned runs = 3;
    /** Scales warmup/measure intervals (tests use < 1). */
    double timeScale = 1.0;
    std::uint64_t seed = 1;

    /** Coherence protocol applied to every measured point. */
    sim::CoherenceProtocol protocol = sim::CoherenceProtocol::SnoopBus;
    /** NUMA node count (directory protocol; 1 = flat UMA machine). */
    unsigned numaNodes = 1;
    /** Interconnect topology (directory protocol; ring is default). */
    sim::Topology topology = sim::Topology::Ring;
    /** Home occupancy slots (0 = contention-free directory homes). */
    unsigned dirOccupancy = 0;

    /** Orders the per-figure memos, which key on every field. */
    auto operator<=>(const FigureOptions &) const = default;
};

/** One qualitative conclusion of the paper, checked on our data. */
struct ShapeCheck
{
    std::string what;
    bool pass = false;
    std::string detail;
};

/** Everything a figure reproduction produces. */
struct FigureResult
{
    std::string id;
    std::string title;
    std::vector<stats::Series> measured;
    std::vector<stats::Series> paperRef;
    stats::Table table;
    std::vector<ShapeCheck> checks;

    /**
     * Per-grid-point metric snapshots of every simulation the figure
     * consumed, keyed by pointName(). Serialized by --metrics-out.
     */
    MetricsMap metricsByPoint;

    bool
    allPass() const
    {
        for (const auto &c : checks) {
            if (!c.pass)
                return false;
        }
        return true;
    }
};

FigureResult runFig04(const FigureOptions &opt = {});
FigureResult runFig05(const FigureOptions &opt = {});
FigureResult runFig06(const FigureOptions &opt = {});
FigureResult runFig07(const FigureOptions &opt = {});
FigureResult runFig08(const FigureOptions &opt = {});
FigureResult runFig09(const FigureOptions &opt = {});
FigureResult runFig10(const FigureOptions &opt = {});
FigureResult runFig11(const FigureOptions &opt = {});
FigureResult runFig12(const FigureOptions &opt = {});
FigureResult runFig13(const FigureOptions &opt = {});
FigureResult runFig14(const FigureOptions &opt = {});
FigureResult runFig15(const FigureOptions &opt = {});
FigureResult runFig16(const FigureOptions &opt = {});

/**
 * The scaling sweep shared by Figures 4-9: both workloads measured at
 * the paper's processor counts. Cached per (options) within one
 * process so the six figures don't redo identical simulations.
 */
struct ScalingPoint
{
    unsigned cpus = 0;
    std::vector<RunResult> ecperf;
    std::vector<RunResult> jbb;
};

const std::vector<ScalingPoint> &scalingSweep(const FigureOptions &opt);

/** Metric snapshots of the scaling sweep's grid points. */
const MetricsMap &scalingSweepMetrics(const FigureOptions &opt);

} // namespace middlesim::core

#endif // CORE_FIGURES_HH
