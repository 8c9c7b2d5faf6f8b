#include "core/run_all.hh"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cache.hh"
#include "core/figures_internal.hh"
#include "core/metrics_io.hh"
#include "core/report.hh"
#include "sim/args.hh"
#include "sim/log.hh"
#include "sim/metrics.hh"
#include "sim/threadpool.hh"

namespace middlesim::core
{

namespace
{

struct FigureJob
{
    const char *id;
    FigureResult (*harness)(const FigureOptions &);
};

constexpr FigureJob kFigures[] = {
    {"fig04", runFig04}, {"fig05", runFig05}, {"fig06", runFig06},
    {"fig07", runFig07}, {"fig08", runFig08}, {"fig09", runFig09},
    {"fig10", runFig10}, {"fig11", runFig11}, {"fig12", runFig12},
    {"fig13", runFig13}, {"fig14", runFig14}, {"fig15", runFig15},
    {"fig16", runFig16},
};

/**
 * One leaf simulation: its content address and a closure that runs it
 * through the RunCache, so the render phase finds it memoized.
 */
struct WorkItem
{
    std::string id;
    std::function<void()> run;
};

std::string
kindTag(WorkloadKind kind)
{
    return kind == WorkloadKind::Ecperf ? "ec" : "jbb";
}

void
addGridItems(std::vector<WorkItem> &items,
             const std::vector<ExperimentSpec> &specs)
{
    for (const ExperimentSpec &spec : specs) {
        items.push_back({"run:" + encodeSpecKey(spec),
                         [spec] { cachedRunExperiment(spec); }});
    }
}

/**
 * The leaf simulations figure `fig` consumes. Ids are content
 * addresses, so identical points requested by different figures
 * collapse to one unit of work.
 */
std::vector<WorkItem>
figureWork(const std::string &fig, const FigureOptions &opt)
{
    std::vector<WorkItem> items;
    if (fig >= "fig04" && fig <= "fig09") {
        addGridItems(items, scalingGridSpecs(opt));
    } else if (fig == "fig10") {
        items.push_back({"fig10:", [opt] { cachedFig10Data(opt); }});
    } else if (fig == "fig11") {
        for (unsigned s : fig11JbbScales()) {
            items.push_back({"live:jbb:" + std::to_string(s), [s, opt] {
                cachedLivePoint(WorkloadKind::SpecJbb, s, opt);
            }});
        }
        for (unsigned s : fig11EcperfScales()) {
            items.push_back({"live:ec:" + std::to_string(s), [s, opt] {
                cachedLivePoint(WorkloadKind::Ecperf, s, opt);
            }});
        }
    } else if (fig == "fig12" || fig == "fig13") {
        for (const SweepRun &r : fig12SweepRuns()) {
            items.push_back({"sweep:" + kindTag(r.kind) + ":" +
                                 std::to_string(r.scale),
                             [r, opt] {
                                 cachedSweepOutcome(r.kind, r.scale, opt);
                             }});
        }
    } else if (fig == "fig14" || fig == "fig15") {
        for (const CommRun &r : fig14CommRuns()) {
            items.push_back({"comm:" + kindTag(r.kind) + ":" +
                                 std::to_string(r.cpus) + ":" +
                                 std::to_string(r.scale),
                             [r, opt] {
                                 cachedCommFootprint(r.kind, r.cpus,
                                                     r.scale, opt);
                             }});
        }
    } else if (fig == "fig16") {
        addGridItems(items, fig16GridSpecs(opt));
    }
    return items;
}

void
writeStatsJson(std::ostream &os, std::uint64_t requested,
               std::uint64_t unique, double prefetch_seconds)
{
    const RunCache::Stats cs = RunCache::global().stats();
    const GridDedupeStats gs = gridDedupeStats();
    os << "{\n"
       << "  \"schema\": \"middlesim-runall-stats-v1\",\n"
       << "  \"requested_points\": " << requested << ",\n"
       << "  \"unique_points\": " << unique << ",\n"
       << "  \"dedupe_ratio\": "
       << sim::formatDouble(
              requested ? static_cast<double>(unique) /
                              static_cast<double>(requested)
                        : 1.0)
       << ",\n"
       << "  \"prefetch_seconds\": "
       << sim::formatDouble(prefetch_seconds) << ",\n"
       << "  \"grid_requested\": " << gs.requested << ",\n"
       << "  \"grid_unique\": " << gs.unique << ",\n"
       << "  \"cache_memory_hits\": " << cs.memoryHits << ",\n"
       << "  \"cache_disk_hits\": " << cs.diskHits << ",\n"
       << "  \"cache_misses\": " << cs.misses << ",\n"
       << "  \"cache_corrupt_misses\": " << cs.corruptMisses << ",\n"
       << "  \"cache_stores\": " << cs.stores << ",\n"
       << "  \"jobs_used\": " << sim::ThreadPool::global().jobs()
       << ",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << "\n"
       << "}\n";
}

} // namespace

int
runAllMain(int argc, char **argv)
{
    DriverOptions d;
    std::string metrics_dir;
    std::string stats_out;
    sim::OptionTable table = driverOptions(d);
    table.insert(
        table.end(),
        {{"--metrics-dir", "", "DIR",
          "write each figure's metrics document to DIR/<fig>.json",
          sim::setText(metrics_dir)},
         {"--stats-out", "", "PATH",
          "write dedupe and cache statistics (JSON) to PATH",
          sim::setText(stats_out)}});
    sim::parseOptions("run_all", table, argc, argv);
    applyDriverOptions(d);
    const FigureOptions &opt = d.fig;

    // Output paths fail here, before the work, not after it.
    if (!metrics_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(metrics_dir, ec);
        if (ec)
            fatal("run_all: cannot create '", metrics_dir,
                  "': ", ec.message());
    }
    std::ofstream stats_os;
    if (!stats_out.empty()) {
        stats_os.open(stats_out);
        if (!stats_os)
            fatal("run_all: cannot open '", stats_out,
                  "' for writing");
    }

    // Global work queue: every leaf every figure needs, deduplicated
    // by content address.
    std::vector<WorkItem> unique_items;
    std::uint64_t requested = 0;
    std::set<std::string> seen;
    for (const FigureJob &job : kFigures) {
        for (WorkItem &item : figureWork(job.id, opt)) {
            ++requested;
            if (seen.insert(item.id).second)
                unique_items.push_back(std::move(item));
        }
    }
    std::fprintf(stderr,
                 "run_all: %llu leaf points requested by 13 figures, "
                 "%zu unique after dedupe (jobs=%u)\n",
                 static_cast<unsigned long long>(requested),
                 unique_items.size(),
                 sim::ThreadPool::global().jobs());

    // Prefetch: one flat fan-out over the unique points. Leaf tasks
    // never submit nested pool work, so this cannot deadlock.
    const auto t_start = std::chrono::steady_clock::now();
    sim::ThreadPool::global().parallelFor(
        unique_items.size(),
        [&](std::size_t i) { unique_items[i].run(); });
    const double prefetch_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t_start)
            .count();
    std::fprintf(stderr, "run_all: prefetch done in %.2f s\n",
                 prefetch_seconds);

    // Render every figure (now assembled from memo hits), emitting
    // exactly what the individual drivers would print.
    bool all_pass = true;
    for (const FigureJob &job : kFigures) {
        const FigureResult fig = job.harness(opt);
        printFigure(fig, std::cout);
        all_pass = all_pass && fig.allPass();
        if (!metrics_dir.empty()) {
            const std::string path =
                metrics_dir + "/" + fig.id + ".json";
            std::ofstream os(path);
            if (!os)
                fatal("run_all: cannot open '", path,
                      "' for writing");
            writeMetricsJson(os, fig.id, fig.metricsByPoint);
        }
    }

    if (!stats_out.empty()) {
        writeStatsJson(stats_os, requested,
                       static_cast<std::uint64_t>(unique_items.size()),
                       prefetch_seconds);
    }
    return all_pass ? 0 : 1;
}

} // namespace middlesim::core
