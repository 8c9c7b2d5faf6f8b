#include "core/report.hh"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "check/checker.hh"
#include "core/cache.hh"
#include "core/metrics_io.hh"
#include "core/trace_run.hh"
#include "sim/args.hh"
#include "sim/log.hh"
#include "sim/threadpool.hh"

namespace middlesim::core
{

void
configureRunCache(const std::string &cache_dir, bool no_cache)
{
    if (no_cache) {
        RunCache::global().setDiskDir("");
        return;
    }
    if (!cache_dir.empty()) {
        RunCache::global().setDiskDir(cache_dir);
        return;
    }
    if (const char *env = std::getenv("MIDDLESIM_CACHE")) {
        if (*env != '\0')
            RunCache::global().setDiskDir(env);
    }
}

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

int
figureMain(FigureResult (*harness)(const FigureOptions &), int argc,
           char **argv)
{
    std::string metrics_out;
    std::string cache_dir;
    std::string trace_out;
    std::string trace_in;
    std::string protocol_flag;
    unsigned numa_nodes = 0;
    bool no_cache = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--jobs=", 0) == 0) {
            sim::ThreadPool::setGlobalJobs(static_cast<unsigned>(
                sim::parseUintFlag("figureMain", arg, 1)));
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            metrics_out = arg.substr(14);
            if (metrics_out.empty())
                fatal("figureMain: bad flag '", arg,
                           "' (want --metrics-out=PATH)");
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            cache_dir = arg.substr(12);
            if (cache_dir.empty())
                fatal("figureMain: bad flag '", arg,
                           "' (want --cache-dir=PATH)");
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            trace_out = arg.substr(12);
            if (trace_out.empty())
                fatal("figureMain: bad flag '", arg,
                           "' (want --trace-out=DIR)");
        } else if (arg.rfind("--trace-in=", 0) == 0) {
            trace_in = arg.substr(11);
            if (trace_in.empty())
                fatal("figureMain: bad flag '", arg,
                           "' (want --trace-in=DIR)");
        } else if (arg.rfind("--protocol=", 0) == 0) {
            protocol_flag = arg.substr(11);
            sim::CoherenceProtocol p;
            if (!sim::parseProtocol(protocol_flag, p))
                fatal("figureMain: bad flag '", arg,
                      "' (want --protocol=snoop|directory)");
        } else if (arg.rfind("--numa-nodes=", 0) == 0) {
            numa_nodes = static_cast<unsigned>(
                sim::parseUintFlag("figureMain", arg, 1));
        } else if (arg == "--no-cache") {
            no_cache = true;
        } else if (arg == "--check") {
            check::setCheckingEnabled(true);
        } else {
            fatal("figureMain: unknown flag '", arg,
                       "' (supported: --jobs=N, --metrics-out=PATH, "
                       "--cache-dir=PATH, --no-cache, --check, "
                       "--trace-out=DIR, --trace-in=DIR, "
                       "--protocol=snoop|directory, --numa-nodes=N)");
        }
    }
    // A cached result was produced without the checkers watching;
    // checking is only meaningful for runs that actually execute.
    if (check::checkingEnabled())
        no_cache = true;
    configureRunCache(cache_dir, no_cache);
    configureTracingFromFlags(trace_out, trace_in);

    FigureOptions opt = FigureOptions::fromEnv();
    if (!protocol_flag.empty())
        sim::parseProtocol(protocol_flag, opt.protocol);
    if (numa_nodes != 0)
        opt.numaNodes = numa_nodes;
    const FigureResult fig = harness(opt);
    printFigure(fig, std::cout);
    if (!metrics_out.empty()) {
        std::ofstream os(metrics_out);
        if (!os)
            fatal("figureMain: cannot open '", metrics_out,
                       "' for writing");
        writeMetricsJson(os, fig.id, fig.metricsByPoint);
    }
    return fig.allPass() ? 0 : 1;
}

} // namespace middlesim::core
