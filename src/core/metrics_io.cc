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
exportCounters(std::map<std::string, std::uint64_t> &out,
               const std::string &prefix, const Stats &stats)
{
    for (const auto &[name, counter] : Stats::counters)
        out[prefix + "." + name] = stats.*counter;
}

} // namespace

sim::MetricSnapshot
collectMetrics(System &system, const ExperimentSpec &spec,
               const BuiltWorkload &workload)
{
    sim::MetricSnapshot snap;
    auto &counters = snap.counters;
    auto &gauges = snap.gauges;

    const cpu::CpiBreakdown cpi = system.appCpi();
    exportCounters(counters, "cpu.app", cpi);
    gauges["cpu.app.cpi"] = cpi.cpi();
    exportCounters(counters, "os.modes.app", system.appModes());
    exportCounters(counters, "os.modes.all",
                   system.scheduler().allModes());
    counters["os.sched.context_switches"] =
        system.scheduler().contextSwitches();
    counters["os.sched.migrations"] = system.scheduler().migrations();
    exportCounters(counters, "mem.app", system.appCacheStats());
    exportCounters(counters, "mem.all", system.memory().aggregateAll());
    system.memory().exportMetrics(snap);

    const mem::Bus &bus = system.memory().bus();
    counters["mem.bus.transactions"] = bus.transactions();
    counters["mem.bus.busy_cycles"] = bus.busyCycles();
    counters["mem.bus.queue_delay"] = bus.totalQueueDelay();

    for (const auto &region : system.memory().regions()) {
        const std::string prefix = "mem.region." + region.name;
        counters[prefix + ".miss_cold"] = region.missCold;
        counters[prefix + ".miss_coherence"] = region.missCoherence;
        counters[prefix + ".miss_capacity"] = region.missCapacity;
    }

    const jvm::Jvm::Stats &gc = system.vm().stats();
    counters["jvm.gc.minor"] = gc.minorCollections;
    counters["jvm.gc.major"] = gc.majorCollections;
    counters["jvm.gc.pause_cycles"] = gc.totalPause;
    counters["jvm.alloc.bytes"] = gc.allocBytes;
    counters["jvm.tlab.refills"] = gc.tlabRefills;
    snap.histograms["jvm.gc.pause_kcycles"] = gc.pauseKcycles;
    gauges["jvm.heap.old_used_mb"] =
        static_cast<double>(system.vm().heap().oldUsed()) /
        (1024.0 * 1024.0);

    const unsigned num_types =
        spec.workload == WorkloadKind::SpecJbb
            ? workload::jbbNumTxTypes
            : workload::ecperfNumTxTypes;
    for (unsigned t = 0; t < num_types; ++t)
        counters["workload.tx.type" + std::to_string(t)] = system.txCount(t);
    counters["workload.tx.total"] = system.txTotal();
    gauges["workload.throughput"] = system.throughput();
    if (workload.ecperf) {
        const auto &bc = workload.ecperf->beanCache();
        counters["workload.beancache.hits"] = bc.hits();
        counters["workload.beancache.misses"] = bc.misses();
        counters["workload.beancache.evictions"] = bc.evictions();
        gauges["workload.beancache.hit_rate"] = bc.hitRate();
    }
    if (workload.jbb) {
        counters["workload.jbb.outstanding_orders"] =
            workload.jbb->outstandingOrders();
    }

    gauges["sys.measured_seconds"] = system.measuredSeconds();
    snap.series = system.series();
    snap.events = system.journal().events();
    snap.eventsDropped = system.journal().dropped();
    return snap;
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
