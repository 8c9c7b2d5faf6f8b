#include "core/run_all.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
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
#include "fabric/coordinator.hh"
#include "fabric/worker.hh"
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
 * A RESULT payload is the item's per-run MetricSnapshot (the figure
 * data itself travels through the shared disk RunCache, not through
 * the protocol).
 */
std::string
packSnapshot(const sim::MetricSnapshot &snap)
{
    sim::ByteWriter w;
    encodeSnapshot(w, snap);
    return w.take();
}

void
addGridItems(std::vector<fabric::FabricItem> &items,
             const std::vector<ExperimentSpec> &specs)
{
    for (const ExperimentSpec &spec : specs) {
        items.push_back({"run:" + encodeSpecKey(spec), [spec] {
            const RunResult r = cachedRunExperiment(spec);
            return packSnapshot(r.metrics ? *r.metrics
                                          : sim::MetricSnapshot{});
        }});
    }
}

/**
 * The leaf simulations figure `fig` consumes. Ids are content
 * addresses, so identical points requested by different figures
 * collapse to one unit of work.
 */
std::vector<fabric::FabricItem>
figureWork(const std::string &fig, const FigureOptions &opt)
{
    std::vector<fabric::FabricItem> items;
    if (fig >= "fig04" && fig <= "fig09") {
        addGridItems(items, scalingGridSpecs(opt));
    } else if (fig == "fig10") {
        items.push_back({"fig10:", [opt] {
            return packSnapshot(cachedFig10Data(opt).snap);
        }});
    } else if (fig == "fig11") {
        for (unsigned s : fig11JbbScales()) {
            items.push_back({"live:jbb:" + std::to_string(s), [s, opt] {
                return packSnapshot(
                    cachedLivePoint(WorkloadKind::SpecJbb, s, opt)
                        .snap);
            }});
        }
        for (unsigned s : fig11EcperfScales()) {
            items.push_back({"live:ec:" + std::to_string(s), [s, opt] {
                return packSnapshot(
                    cachedLivePoint(WorkloadKind::Ecperf, s, opt)
                        .snap);
            }});
        }
    } else if (fig == "fig12" || fig == "fig13") {
        items.push_back({"sweep:ec:8", [opt] {
            return packSnapshot(
                cachedSweepOutcome(WorkloadKind::Ecperf, 8, opt).snap);
        }});
        for (unsigned s : {1u, 10u, 25u}) {
            items.push_back({"sweep:jbb:" + std::to_string(s),
                             [s, opt] {
                return packSnapshot(
                    cachedSweepOutcome(WorkloadKind::SpecJbb, s, opt)
                        .snap);
            }});
        }
    } else if (fig == "fig14" || fig == "fig15") {
        items.push_back({"comm:jbb:15:15", [opt] {
            return packSnapshot(
                cachedCommFootprint(WorkloadKind::SpecJbb, 15, 15, opt)
                    .snap);
        }});
        items.push_back({"comm:ec:8:8", [opt] {
            return packSnapshot(
                cachedCommFootprint(WorkloadKind::Ecperf, 8, 8, opt)
                    .snap);
        }});
    } else if (fig == "fig16") {
        addGridItems(items, fig16GridSpecs(opt));
    }
    return items;
}

/** Fabric-mode figures folded into the stats JSON and stderr log. */
struct FabricSummary
{
    unsigned workersRequested = 0;
    fabric::FabricStats stats;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t decodeFailures = 0;
};

void
writeStatsJson(std::ostream &os, std::uint64_t requested,
               std::uint64_t unique, double prefetch_seconds,
               const FabricSummary *fab)
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
       << "  \"cache_stores\": " << cs.stores << ",\n";
    if (fab) {
        const fabric::FabricStats &fs = fab->stats;
        os << "  \"fabric\": {\n"
           << "    \"workers_requested\": " << fab->workersRequested
           << ",\n"
           << "    \"workers_spawned\": " << fs.workersSpawned
           << ",\n"
           << "    \"executed\": " << fs.executed << ",\n"
           << "    \"inline_runs\": " << fs.inlineRuns << ",\n"
           << "    \"requeues\": " << fs.requeues << ",\n"
           << "    \"stale_results\": " << fs.staleResults << ",\n"
           << "    \"duplicate_results\": " << fs.duplicateResults
           << ",\n"
           << "    \"worker_deaths\": " << fs.workerDeaths << ",\n"
           << "    \"worker_seconds\": "
           << sim::formatDouble(fs.workerSeconds) << ",\n"
           << "    \"result_decode_failures\": "
           << fab->decodeFailures << ",\n"
           << "    \"cache_hits\": " << fab->cacheHits << ",\n"
           << "    \"cache_misses\": " << fab->cacheMisses << ",\n"
           << "    \"cache_requeues\": " << fs.requeues << "\n"
           << "  },\n";
    }
    os << "  \"jobs_used\": " << sim::ThreadPool::global().jobs()
       << ",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << "\n"
       << "}\n";
}

/** mkdtemp() a throwaway artifact-plane directory for --fabric. */
std::string
makeTempCacheDir()
{
    std::error_code ec;
    std::filesystem::path base =
        std::filesystem::temp_directory_path(ec);
    if (ec)
        base = "/tmp";
    std::string templ = (base / "middlesim-fabric-XXXXXX").string();
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
        fatal("run_all: cannot create fabric cache dir '", templ,
              "'");
    }
    return std::string(buf.data());
}

} // namespace

RunAllQueue
buildRunAllQueue(const FigureOptions &opt)
{
    RunAllQueue queue;
    std::set<std::string> seen;
    for (const FigureJob &job : kFigures) {
        for (fabric::FabricItem &item : figureWork(job.id, opt)) {
            ++queue.requested;
            if (seen.insert(item.id).second)
                queue.items.push_back(std::move(item));
        }
    }
    return queue;
}

int
runAllMain(int argc, char **argv)
{
    DriverOptions d;
    std::string metrics_dir;
    std::string stats_out;
    std::string fabric_worker_cmd;
    std::string fabric_metrics_out;
    bool fabric_worker = false;
    unsigned fabric_workers = 0;
    sim::OptionTable table = driverOptions(d);
    table.insert(
        table.end(),
        {{"--metrics-dir", "", "DIR",
          "write each figure's metrics document to DIR/<fig>.json",
          sim::setText(metrics_dir)},
         {"--stats-out", "", "PATH",
          "write dedupe and cache statistics (JSON) to PATH",
          sim::setText(stats_out)},
         {"--fabric", "", "N",
          "prefetch through N worker processes instead of threads",
          sim::setUint(fabric_workers, 1)},
         {"--fabric-worker", "", "",
          "serve the fabric's worker side on stdin/stdout (spawned "
          "by the coordinator)",
          sim::setSwitch(fabric_worker)},
         {"--fabric-worker-cmd", "", "CMD",
          "attach each worker by running /bin/sh -c CMD",
          sim::setText(fabric_worker_cmd)},
         {"--fabric-metrics-out", "", "PATH",
          "write the metric snapshots merged from the workers to PATH",
          sim::setText(fabric_metrics_out)}});
    sim::parseOptions("run_all", table, argc, argv);

    if (fabric_workers > 0 && fabric_worker)
        fatal("run_all: --fabric=N and --fabric-worker are mutually "
              "exclusive (the coordinator spawns workers itself)");
    if (fabric_workers > 0 && (d.noCache || d.check)) {
        fatal("run_all: --fabric needs the disk cache as its shared "
              "artifact plane; it cannot combine with --no-cache or "
              "--check");
    }
    if (fabric_workers > 0 &&
        (!d.traceOut.empty() || !d.traceIn.empty())) {
        fatal("run_all: --fabric does not combine with --trace-out/"
              "--trace-in (trace recording is per-process)");
    }
    if (fabric_workers == 0 && !fabric_worker_cmd.empty())
        fatal("run_all: --fabric-worker-cmd requires --fabric=N");
    if (fabric_workers == 0 && !fabric_metrics_out.empty())
        fatal("run_all: --fabric-metrics-out requires --fabric=N");
    applyDriverOptions(d);
    const FigureOptions &opt = d.fig;

    // Worker side of the fabric: same queue, leases in on stdin,
    // results out on stdout. Everything else about this process is
    // driven by the coordinator.
    if (fabric_worker) {
        RunAllQueue queue = buildRunAllQueue(opt);
        return fabric::runWorker(queue.items);
    }

    // Global work queue: every leaf every figure needs, deduplicated
    // by content address.
    RunAllQueue queue = buildRunAllQueue(opt);
    std::vector<fabric::FabricItem> &unique_items = queue.items;
    const std::uint64_t requested = queue.requested;
    std::fprintf(stderr,
                 "run_all: %llu leaf points requested by 13 figures, "
                 "%zu unique after dedupe (jobs=%u)\n",
                 static_cast<unsigned long long>(requested),
                 unique_items.size(),
                 sim::ThreadPool::global().jobs());

    FabricSummary fab;
    sim::MetricSnapshot fabric_merged;
    std::string temp_cache_dir;
    const auto t_start = std::chrono::steady_clock::now();
    if (fabric_workers > 0) {
        // Sharded prefetch: the workers execute the queue and persist
        // artifacts into the shared disk cache; RESULT frames carry
        // only the per-item metric snapshots merged below.
        std::string disk = RunCache::global().diskDir();
        if (disk.empty()) {
            temp_cache_dir = makeTempCacheDir();
            disk = temp_cache_dir;
            RunCache::global().setDiskDir(disk);
        }
        fabric::FabricOptions fopt;
        fopt.workers = fabric_workers;
        if (!fabric_worker_cmd.empty()) {
            fopt.workerCommand = fabric_worker_cmd;
        } else {
            // The worker must build the same queue: it inherits the
            // environment, and the machine settings as resolved here.
            fopt.workerArgv = {
                fabric::selfExePath(), "--fabric-worker",
                "--cache-dir=" + disk,
                std::string("--protocol=") + sim::toString(opt.protocol),
                "--numa-nodes=" + std::to_string(opt.numaNodes),
                std::string("--topology=") + sim::toString(opt.topology),
                "--dir-occupancy=" + std::to_string(opt.dirOccupancy)};
        }
        std::fprintf(stderr,
                     "run_all: fabric: %u worker(s), artifact plane "
                     "'%s'\n",
                     fabric_workers, disk.c_str());

        std::vector<std::string> payloads(unique_items.size());
        std::vector<char> have(unique_items.size(), 0);
        fab.workersRequested = fabric_workers;
        fab.stats = fabric::runCoordinator(
            unique_items, fopt,
            [&](std::size_t index, const std::string &payload) {
                payloads[index] = payload;
                have[index] = 1;
            });

        // Merge in index order: byte-identical regardless of which
        // worker finished which item when.
        for (std::size_t i = 0; i < payloads.size(); ++i) {
            if (!have[i]) {
                ++fab.decodeFailures;
                continue;
            }
            sim::ByteReader r(payloads[i]);
            const sim::MetricSnapshot snap = decodeSnapshot(r);
            if (!r.atEnd()) {
                ++fab.decodeFailures;
                continue;
            }
            fabric_merged.merge(snap);
        }
    } else {
        // Prefetch: one flat fan-out over the unique points. Leaf
        // tasks never submit nested pool work, so this cannot
        // deadlock.
        sim::ThreadPool::global().parallelFor(
            unique_items.size(),
            [&](std::size_t i) { unique_items[i].run(); });
    }
    const double prefetch_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t_start)
            .count();
    if (fabric_workers > 0) {
        std::fprintf(stderr,
                     "run_all: fabric: %llu on workers, %llu inline, "
                     "%llu requeued, %llu worker death(s) in %.2f s\n",
                     static_cast<unsigned long long>(
                         fab.stats.executed),
                     static_cast<unsigned long long>(
                         fab.stats.inlineRuns),
                     static_cast<unsigned long long>(
                         fab.stats.requeues),
                     static_cast<unsigned long long>(
                         fab.stats.workerDeaths),
                     prefetch_seconds);
    } else {
        std::fprintf(stderr, "run_all: prefetch done in %.2f s\n",
                     prefetch_seconds);
    }

    // Render every figure (now assembled from memo hits), emitting
    // exactly what the individual drivers would print. In fabric mode
    // the artifacts come off the shared disk cache, so stdout is
    // deterministic for any worker count, loss, or arrival order.
    const RunCache::Stats cs_before_render =
        RunCache::global().stats();
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

    if (fabric_workers > 0) {
        // The fabric.cache.* family: how the coordinator's render
        // phase fared against the artifact plane the workers filled.
        const RunCache::Stats cs = RunCache::global().stats();
        fab.cacheHits = (cs.memoryHits + cs.diskHits) -
                        (cs_before_render.memoryHits +
                         cs_before_render.diskHits);
        fab.cacheMisses = cs.misses - cs_before_render.misses;
        sim::MetricRegistry fabric_registry;
        fabric_registry.counter("fabric.cache.hits")
            .set(fab.cacheHits);
        fabric_registry.counter("fabric.cache.misses")
            .set(fab.cacheMisses);
        fabric_registry.counter("fabric.cache.requeues")
            .set(fab.stats.requeues);
        fabric_merged.merge(fabric_registry.snapshot());
    }

    if (!fabric_metrics_out.empty()) {
        std::ofstream os(fabric_metrics_out);
        if (!os)
            fatal("run_all: cannot open '", fabric_metrics_out,
                  "' for writing");
        os << "{\n  \"schema\": \"middlesim-fabric-metrics-v1\",\n"
           << "  \"items\": " << unique_items.size() << ",\n"
           << "  \"merged\":\n";
        fabric_merged.writeJson(os, 2);
        os << "\n}\n";
    }

    if (!stats_out.empty()) {
        std::ofstream os(stats_out);
        if (!os)
            fatal("run_all: cannot open '", stats_out,
                  "' for writing");
        writeStatsJson(os, requested,
                       static_cast<std::uint64_t>(unique_items.size()),
                       prefetch_seconds,
                       fabric_workers > 0 ? &fab : nullptr);
    }

    if (!temp_cache_dir.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(temp_cache_dir, ec);
    }
    return all_pass ? 0 : 1;
}

} // namespace middlesim::core
