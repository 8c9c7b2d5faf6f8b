#include "core/report.hh"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "check/checker.hh"
#include "core/cache.hh"
#include "core/metrics_io.hh"
#include "core/trace_run.hh"
#include "sim/log.hh"
#include "sim/threadpool.hh"

namespace middlesim::core
{

void
printFigure(const FigureResult &fig, std::ostream &os)
{
    os << "=== " << fig.id << ": " << fig.title << " ===\n\n";
    fig.table.print(os);
    os << "\nshape checks:\n";
    for (const auto &c : fig.checks) {
        os << "  [" << (c.pass ? "PASS" : "FAIL") << "] " << c.what
           << "  (" << c.detail << ")\n";
    }
    os << (fig.allPass() ? "=> all shape checks passed\n"
                         : "=> SOME SHAPE CHECKS FAILED\n");
}

sim::OptionTable
driverOptions(DriverOptions &d)
{
    FigureOptions &f = d.fig;
    return {
        {"", "MIDDLESIM_RUNS", "N", "runs per measured point (default 3)",
         sim::setUint(f.runs, 1)},
        {"", "MIDDLESIM_QUICK", "", "1: one run per point, 0.5x intervals",
         [&f](const std::string &v) {
             bool quick = false;
             const std::string want = sim::setSwitch(quick)(v);
             if (quick) {
                 f.runs = 1;
                 f.timeScale = 0.5;
             }
             return want;
         }},
        {"", "MIDDLESIM_TIMESCALE", "F",
         "scale every interval by F (default 1)",
         sim::setPositive(f.timeScale)},
        {"--protocol", "MIDDLESIM_PROTOCOL", "snoop|directory",
         "coherence protocol (default snoop)",
         sim::setChoice(f.protocol, sim::parseProtocol,
                        "snoop or directory")},
        {"--numa-nodes", "MIDDLESIM_NUMA_NODES", "N",
         "NUMA nodes (directory only)", sim::setUint(f.numaNodes, 1)},
        {"--topology", "MIDDLESIM_TOPOLOGY", "ring|mesh",
         "node interconnect (directory only)",
         sim::setChoice(f.topology, sim::parseTopology, "ring or mesh")},
        {"--dir-occupancy", "MIDDLESIM_DIR_OCCUPANCY", "N",
         "slots per home; 0 = contention-free",
         sim::setUint(f.dirOccupancy)},
        {"--jobs", "MIDDLESIM_JOBS", "N",
         "worker threads (default: all hardware threads)",
         sim::setUint(d.jobs, 1)},
        {"--cache-dir", "MIDDLESIM_CACHE", "PATH",
         "persist run results in PATH", sim::setText(d.cacheDir)},
        {"--no-cache", "", "", "skip the disk cache",
         sim::setSwitch(d.noCache)},
        {"--check", "MIDDLESIM_CHECK", "",
         "arm the invariant checkers (implies --no-cache)",
         sim::setSwitch(d.check)},
        {"--trace-out", "", "DIR", "record reference traces into DIR",
         sim::setText(d.traceOut)},
        {"--trace-in", "", "DIR", "replay the Fig 12/13 sweeps from DIR",
         sim::setText(d.traceIn)},
        {"", "MIDDLESIM_TRACE", "DIR",
         "both trace directories, unless a trace flag is given",
         sim::setText(d.traceBoth)},
    };
}

void
applyDriverOptions(const DriverOptions &d)
{
    if (d.jobs != 0)
        sim::ThreadPool::setGlobalJobs(d.jobs);
    check::setCheckingEnabled(d.check);
    RunCache::global().setDiskDir(d.noCache || d.check ? ""
                                                       : d.cacheDir);
    if (d.traceOut.empty() && d.traceIn.empty())
        configureTracing(d.traceBoth, d.traceBoth);
    else
        configureTracing(d.traceOut, d.traceIn);
}

int
figureMain(FigureResult (*harness)(const FigureOptions &), int argc,
           char **argv)
{
    DriverOptions d;
    std::string metrics_out;
    sim::OptionTable table = driverOptions(d);
    table.push_back({"--metrics-out", "", "PATH",
                     "write the figure's metrics document (JSON)",
                     sim::setText(metrics_out)});
    const std::string tool =
        std::filesystem::path(argv[0]).filename().string();
    sim::parseOptions(tool.c_str(), table, argc, argv);
    applyDriverOptions(d);

    // Opened before the simulation, so a bad path costs no work.
    std::ofstream metrics_os;
    if (!metrics_out.empty()) {
        metrics_os.open(metrics_out);
        if (!metrics_os)
            fatal(tool, ": cannot open '", metrics_out, "' for writing");
    }
    const FigureResult fig = harness(d.fig);
    printFigure(fig, std::cout);
    if (!metrics_out.empty())
        writeMetricsJson(metrics_os, fig.id, fig.metricsByPoint);
    return fig.allPass() ? 0 : 1;
}

} // namespace middlesim::core
