#include "core/experiment.hh"

#include <atomic>
#include <map>

#include "core/cache.hh"
#include "core/metrics_io.hh"
#include "core/trace_run.hh"
#include "sim/log.hh"
#include "sim/threadpool.hh"

namespace middlesim::core
{

namespace
{
/** Process-wide dedupe accounting (reported by run_all / benches). */
std::atomic<std::uint64_t> gridRequested{0};
std::atomic<std::uint64_t> gridUnique{0};
} // namespace

GridDedupeStats
gridDedupeStats()
{
    return {gridRequested.load(), gridUnique.load()};
}

void
resetGridDedupeStats()
{
    gridRequested = 0;
    gridUnique = 0;
}

unsigned
ExperimentSpec::resolvedScale() const
{
    if (scale != 0)
        return scale;
    return workload == WorkloadKind::SpecJbb ? appCpus : 8;
}

double
RunResult::pathLength() const
{
    return txTotal ? static_cast<double>(cpi.instructions) /
                     static_cast<double>(txTotal)
                   : 0.0;
}

double
RunResult::gcFraction() const
{
    const double total = seconds;
    if (total <= 0.0)
        return 0.0;
    return sim::ticksToSeconds(gcPause) / total;
}

std::unique_ptr<System>
buildSystem(const ExperimentSpec &spec, BuiltWorkload &out)
{
    SystemConfig cfg = spec.sys;
    cfg.machine.totalCpus = spec.totalCpus;
    cfg.machine.appCpus = spec.appCpus;
    cfg.machine.cpusPerL2 = spec.cpusPerL2;
    cfg.machine.protocol = spec.protocol;
    cfg.machine.numaNodes = spec.numaNodes;
    cfg.machine.topology = spec.topology;
    cfg.machine.dirOccupancy = spec.dirOccupancy;

    auto system = std::make_unique<System>(cfg, spec.seed);
    if (check::checkingEnabled())
        system->enableChecking(check::defaultCheckOptions());
    if (spec.trackCommunication)
        system->memory().setCommunicationTracking(true);

    // Address-space regions for miss attribution diagnostics.
    mem::Hierarchy &hmem = system->memory();
    const jvm::Heap &heap = system->vm().heap();
    hmem.defineRegion("young-gen", heap.newGenBase(),
                      heap.newGenCapacity());
    hmem.defineRegion("kernel-data", os::KernelModel::dataBase,
                      0x1'0000'0000ULL);
    hmem.defineRegion("stacks", 0x3'0000'0000ULL, 0x1'0000'0000ULL);

    if (spec.workload == WorkloadKind::SpecJbb) {
        workload::SpecJbbParams params = spec.jbb;
        params.warehouses = spec.resolvedScale();
        out.jbb = workload::buildSpecJbb(params, system->vm(),
                                         system->forkRng());
        for (auto &thread : out.jbb->makeThreads())
            system->addProgram(std::move(thread));
    } else {
        workload::EcperfParams params = spec.ecperf;
        params.injectionRate = spec.resolvedScale();
        out.ecperf = workload::buildEcperf(params, system->vm(),
                                           system->kernel(),
                                           spec.appCpus,
                                           system->forkRng());
        hmem.defineRegion("bean-slab", out.ecperf->beanSlabBase(),
                          out.ecperf->beanSlabBytes());
        hmem.defineRegion("sessions", out.ecperf->sessionBase(),
                          out.ecperf->sessionBytes());
        for (auto &thread : out.ecperf->makeThreads())
            system->addProgram(std::move(thread));
    }
    hmem.defineRegion("old-gen", heap.oldGenBase(),
                      heap.oldGenCapacity());
    return system;
}

RunResult
measure(System &system, const ExperimentSpec &spec,
        BuiltWorkload &workload)
{
    system.run(spec.warmup);
    system.beginMeasurement();
    system.memory().resetRegionStats();
    if (workload.ecperf)
        workload.ecperf->beanCache().resetStats();
    if (spec.trackCommunication)
        system.memory().resetCommunicationTracking();
    system.run(spec.measure);

    RunResult res;
    res.seconds = system.measuredSeconds();
    res.txTotal = system.txTotal();
    const unsigned num_types =
        spec.workload == WorkloadKind::SpecJbb
            ? workload::jbbNumTxTypes
            : workload::ecperfNumTxTypes;
    for (unsigned t = 0; t < num_types; ++t)
        res.txByType.push_back(system.txCount(t));
    res.throughput = system.throughput();
    res.cpi = system.appCpi();
    res.modes = system.appModes();
    res.cache = system.appCacheStats();

    const jvm::Jvm::Stats &gc = system.vm().stats();
    res.gcMinor = gc.minorCollections;
    res.gcMajor = gc.majorCollections;
    res.gcPause = gc.totalPause;
    res.liveAfterMB = gc.liveAfterMB.count()
                          ? gc.liveAfterMB.mean()
                          : static_cast<double>(
                                system.vm().heap().oldUsed()) /
                                (1024.0 * 1024.0);
    if (workload.ecperf)
        res.beanHitRate = workload.ecperf->beanCache().hitRate();
    res.metrics = std::make_shared<sim::MetricSnapshot>(
        collectMetrics(system, spec, workload));
    // With checking armed, audit the complete cache state before the
    // system is torn down (fail-fast aborts here on a violation).
    if (check::Checker *ck = system.checker())
        ck->finalize(system.now());
    return res;
}

RunResult
runExperiment(const ExperimentSpec &spec)
{
    BuiltWorkload workload;
    auto system = buildSystem(spec, workload);
    // Record-while-running when --trace-out is configured (a no-op
    // sink attachment otherwise): recording only observes, so the
    // RunResult is byte-identical with tracing on or off.
    auto writer = beginTraceRecording(*system, spec);
    RunResult res = measure(*system, spec, workload);
    finishTraceRecording(std::move(writer), *system, spec);
    return res;
}

ExperimentSpec
repeatedSpec(const ExperimentSpec &spec, unsigned r)
{
    ExperimentSpec s = spec;
    s.seed = spec.seed + 0x1000 * (r + 1);
    return s;
}

std::vector<RunResult>
runGrid(const std::vector<ExperimentSpec> &specs)
{
    // Dedupe identical (spec, seed) points by content address: each
    // unique point simulates once (through the run cache); every
    // requester of a duplicate receives the same RunResult and shares
    // the same metrics snapshot.
    std::vector<std::size_t> firstIndex;
    std::vector<std::size_t> uniqueOf(specs.size());
    std::map<std::string, std::size_t> byKey;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto [it, inserted] =
            byKey.emplace(encodeSpecKey(specs[i]), firstIndex.size());
        if (inserted)
            firstIndex.push_back(i);
        uniqueOf[i] = it->second;
    }
    gridRequested += specs.size();
    gridUnique += firstIndex.size();

    std::vector<RunResult> uniqueResults(firstIndex.size());
    sim::ThreadPool::global().parallelFor(
        firstIndex.size(), [&](std::size_t u) {
            uniqueResults[u] = cachedRunExperiment(specs[firstIndex[u]]);
        });

    std::vector<RunResult> results(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        results[i] = uniqueResults[uniqueOf[i]];
    return results;
}

stats::RunningStat
summarize(const std::vector<RunResult> &results,
          const std::function<double(const RunResult &)> &metric)
{
    stats::RunningStat stat;
    for (const RunResult &r : results)
        stat.add(metric(r));
    return stat;
}

} // namespace middlesim::core
