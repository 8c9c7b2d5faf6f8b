#include "core/metrics_io.hh"

namespace middlesim::core
{

std::string
pointName(const ExperimentSpec &spec)
{
    std::string name =
        spec.workload == WorkloadKind::SpecJbb ? "jbb" : "ecperf";
    name += "/app=" + std::to_string(spec.appCpus);
    name += "/total=" + std::to_string(spec.totalCpus);
    name += "/l2x" + std::to_string(spec.cpusPerL2);
    name += "/scale=" + std::to_string(spec.resolvedScale());
    // Non-default protocol/topology only, so every point name of the
    // existing snooping-bus corpus is unchanged.
    if (spec.protocol != sim::CoherenceProtocol::SnoopBus)
        name += std::string("/") + sim::toString(spec.protocol);
    if (spec.numaNodes != 1)
        name += "/numa=" + std::to_string(spec.numaNodes);
    if (spec.topology != sim::Topology::Ring)
        name += std::string("/") + sim::toString(spec.topology);
    if (spec.dirOccupancy != 0)
        name += "/occ=" + std::to_string(spec.dirOccupancy);
    name += "/seed=" + std::to_string(spec.seed);
    return name;
}

namespace
{

/** Every counter of a stats record, as `prefix.<metric name>`. */
template <typename Stats>
void
exportCounters(sim::MetricRegistry &reg, const std::string &prefix,
               const Stats &stats)
{
    for (const auto &[name, counter] : Stats::counters)
        reg.counter(prefix + "." + name).set(stats.*counter);
}

} // namespace

sim::MetricSnapshot
collectMetrics(System &system, const ExperimentSpec &spec,
               const BuiltWorkload &workload)
{
    sim::MetricRegistry &reg = system.metrics();

    const cpu::CpiBreakdown cpi = system.appCpi();
    exportCounters(reg, "cpu.app", cpi);
    reg.gauge("cpu.app.cpi").set(cpi.cpi());
    exportCounters(reg, "os.modes.app", system.appModes());
    exportCounters(reg, "os.modes.all", system.scheduler().allModes());
    reg.counter("os.sched.context_switches")
        .set(system.scheduler().contextSwitches());
    exportCounters(reg, "mem.app", system.appCacheStats());
    exportCounters(reg, "mem.all", system.memory().aggregateAll());

    const mem::Bus &bus = system.memory().bus();
    reg.counter("mem.bus.transactions").set(bus.transactions());
    reg.counter("mem.bus.busy_cycles").set(bus.busyCycles());
    reg.counter("mem.bus.queue_delay").set(bus.totalQueueDelay());

    for (const auto &region : system.memory().regions()) {
        const std::string prefix = "mem.region." + region.name;
        reg.counter(prefix + ".miss_cold").set(region.missCold);
        reg.counter(prefix + ".miss_coherence")
            .set(region.missCoherence);
        reg.counter(prefix + ".miss_capacity").set(region.missCapacity);
    }

    const jvm::Jvm::Stats &gc = system.vm().stats();
    reg.counter("jvm.gc.minor").set(gc.minorCollections);
    reg.counter("jvm.gc.major").set(gc.majorCollections);
    reg.counter("jvm.gc.pause_cycles").set(gc.totalPause);
    reg.gauge("jvm.heap.old_used_mb")
        .set(static_cast<double>(system.vm().heap().oldUsed()) /
             (1024.0 * 1024.0));

    const unsigned num_types =
        spec.workload == WorkloadKind::SpecJbb
            ? workload::jbbNumTxTypes
            : workload::ecperfNumTxTypes;
    for (unsigned t = 0; t < num_types; ++t) {
        reg.counter("workload.tx.type" + std::to_string(t))
            .set(system.txCount(t));
    }
    reg.counter("workload.tx.total").set(system.txTotal());
    reg.gauge("workload.throughput").set(system.throughput());
    if (workload.ecperf) {
        const auto &bc = workload.ecperf->beanCache();
        reg.counter("workload.beancache.hits").set(bc.hits());
        reg.counter("workload.beancache.misses").set(bc.misses());
        reg.counter("workload.beancache.evictions")
            .set(bc.evictions());
        reg.gauge("workload.beancache.hit_rate").set(bc.hitRate());
    }
    if (workload.jbb) {
        reg.counter("workload.jbb.outstanding_orders")
            .set(workload.jbb->outstandingOrders());
    }

    reg.gauge("sys.measured_seconds").set(system.measuredSeconds());

    return reg.snapshot();
}

void
writeMetricsJson(std::ostream &os, const std::string &figure,
                 const MetricsMap &points)
{
    os << "{\n  \"schema\": \"" << metricsSchemaVersion
       << "\",\n  \"figure\": \"" << sim::jsonEscape(figure)
       << "\",\n  \"points\": {";
    bool first = true;
    for (const auto &[name, snap] : points) {
        os << (first ? "\n" : ",\n") << "    \""
           << sim::jsonEscape(name) << "\":\n";
        snap.writeJson(os, 4);
        first = false;
    }
    if (!first)
        os << '\n' << "  ";
    os << "}\n}\n";
}

} // namespace middlesim::core
