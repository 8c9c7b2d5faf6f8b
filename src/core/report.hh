/**
 * @file
 * Rendering of figure reproductions (tables + shape-check verdicts),
 * and the options every figure driver and run_all share.
 */

#ifndef CORE_REPORT_HH
#define CORE_REPORT_HH

#include <ostream>
#include <string>

#include "core/figures.hh"
#include "sim/args.hh"

namespace middlesim::core
{

/** Print one reproduced figure: header, table, checks, verdict. */
void printFigure(const FigureResult &fig, std::ostream &os);

/**
 * The settings of a figure driver or run_all: what to simulate
 * (`fig`) and how this process runs it.
 */
struct DriverOptions
{
    FigureOptions fig;
    /** Thread-pool workers (0 = hardware concurrency). */
    unsigned jobs = 0;
    /** Disk layer of the run cache ("" = in-process memo only). */
    std::string cacheDir;
    bool noCache = false;
    /** Arm the invariant checkers; implies noCache. */
    bool check = false;
    std::string traceOut;
    std::string traceIn;
    /** MIDDLESIM_TRACE: both directions, unless a trace flag is given. */
    std::string traceBoth;
};

/**
 * The option rows figureMain and run_all share, writing into `d`.
 * MIDDLESIM_QUICK=1 overrides MIDDLESIM_RUNS, and MIDDLESIM_TIMESCALE
 * overrides QUICK's time scale; each flag beats its variable.
 */
sim::OptionTable driverOptions(DriverOptions &d);

/**
 * Apply the process-wide part of `d`: the thread-pool size, checking
 * (which implies no disk cache, since a cached result was produced
 * without the checkers watching), the run cache's disk layer and the
 * trace directories.
 */
void applyDriverOptions(const DriverOptions &d);

/**
 * Standard main() body for the per-figure bench binaries: parses the
 * shared driver options plus `--metrics-out=PATH` (see `--help`),
 * runs the harness, prints the report, and returns 0 when every shape
 * check passes (1 otherwise).
 */
int figureMain(FigureResult (*harness)(const FigureOptions &), int argc,
               char **argv);

} // namespace middlesim::core

#endif // CORE_REPORT_HH
