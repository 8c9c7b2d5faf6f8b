#include "core/trace_run.hh"

#include <filesystem>

#include "core/cache.hh"
#include "core/metrics_io.hh"
#include "sim/log.hh"
#include "trace/reader.hh"

namespace middlesim::core
{

namespace
{

/** Tracing directories; set once at driver startup, then read-only. */
std::string gTraceOut;
std::string gTraceIn;

/** Copy the comparison payloads out of a post-replay hierarchy. */
template <typename Outcome>
void
collectHierarchyState(const mem::Hierarchy &h, unsigned total_cpus,
                      unsigned app_cpus, Outcome &out)
{
    out.perCpu.reserve(total_cpus);
    for (unsigned c = 0; c < total_cpus; ++c)
        out.perCpu.push_back(h.cpuStats(c));
    out.aggregate = h.aggregateRange(0, app_cpus - 1);
    out.c2cLines = h.c2cPerLine().sortedItems();
    out.touchedLines = h.touchedLines();
    out.regions = h.regions();
}

} // namespace

void
configureTracing(const std::string &out_dir, const std::string &in_dir)
{
    gTraceOut = out_dir;
    gTraceIn = in_dir;
    if (!gTraceOut.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(gTraceOut, ec);
        if (ec) {
            warn("trace: cannot create '", gTraceOut,
                 "': ", ec.message());
            gTraceOut.clear();
        }
    }
}

const std::string &
traceOutDir()
{
    return gTraceOut;
}

const std::string &
traceInDir()
{
    return gTraceIn;
}

std::string
traceFileName(const ExperimentSpec &spec)
{
    const std::string key = encodeSpecKey(spec);
    return "trace-" + sim::hashHex(sim::fnv1a64("trace\x1f" + key)) +
           trace::traceFileExt;
}

std::string
traceFilePath(const std::string &dir, const ExperimentSpec &spec)
{
    return dir + "/" + traceFileName(spec);
}

trace::TraceHeader
traceHeaderFor(System &system, const ExperimentSpec &spec)
{
    const mem::Hierarchy &h = system.memory();
    trace::TraceHeader header;
    header.specKey = encodeSpecKey(spec);
    header.label = pointName(spec);
    const sim::MachineConfig &m = h.config();
    header.totalCpus = m.totalCpus;
    header.appCpus = m.appCpus;
    header.cpusPerL2 = m.cpusPerL2;
    header.protocol = m.protocol;
    header.numaNodes = m.numaNodes;
    header.topology = m.topology;
    header.dirOccupancy = m.dirOccupancy;
    header.l1i = m.l1i;
    header.l1d = m.l1d;
    header.l2 = m.l2;
    header.latency = h.latency();
    header.busContention = spec.sys.busContention;
    header.trackCommunication = spec.trackCommunication;
    header.seed = spec.seed;
    header.warmupTicks = spec.warmup;
    header.measureTicks = spec.measure;
    for (const mem::Hierarchy::Region &region : h.regions())
        header.regions.push_back(
            {region.name, region.base, region.bytes});
    return header;
}

std::unique_ptr<trace::TraceWriter>
beginTraceRecording(System &system, const ExperimentSpec &spec)
{
    if (gTraceOut.empty())
        return nullptr;
    const std::string path = traceFilePath(gTraceOut, spec);
    if (trace::traceFileExists(path))
        return nullptr; // record once: the artifact already exists
    auto writer = std::make_unique<trace::TraceWriter>(
        traceHeaderFor(system, spec), path);
    system.setTraceSink(writer.get());
    return writer;
}

void
finishTraceRecording(std::unique_ptr<trace::TraceWriter> writer,
                     System &system, const ExperimentSpec &spec)
{
    if (!writer)
        return;
    writer->annotation(mem::TraceAnnotation::Instructions, 0,
                       system.now(), system.appCpi().instructions);
    system.setTraceSink(nullptr);
    const std::uint64_t refs = writer->refCount();
    if (writer->close()) {
        inform("trace: recorded ", refs, " refs for ",
               pointName(spec), " -> ",
               traceFilePath(gTraceOut, spec));
    } else {
        warn("trace: failed to write '",
             traceFilePath(gTraceOut, spec), "'");
    }
}

TraceRecordOutcome
recordTraceRun(const ExperimentSpec &spec, const std::string &path)
{
    BuiltWorkload workload;
    auto system = buildSystem(spec, workload);

    std::unique_ptr<trace::TraceWriter> writer;
    if (path.empty()) {
        writer = std::make_unique<trace::TraceWriter>(
            traceHeaderFor(*system, spec));
    } else {
        writer = std::make_unique<trace::TraceWriter>(
            traceHeaderFor(*system, spec), path);
    }
    system->setTraceSink(writer.get());

    TraceRecordOutcome out;
    out.result = measure(*system, spec, workload);
    writer->annotation(mem::TraceAnnotation::Instructions, 0,
                       system->now(), out.result.cpi.instructions);
    system->setTraceSink(nullptr);

    const mem::Hierarchy &h = system->memory();
    collectHierarchyState(h, spec.totalCpus, spec.appCpus, out);
    if (path.empty()) {
        out.traceData = writer->take();
    } else if (!writer->close()) {
        fatal("trace: failed to write '", path, "'");
    }
    return out;
}

HierarchyReplayOutcome
replayTraceHierarchy(std::string trace_data,
                     const trace::ReplayOverrides &overrides)
{
    HierarchyReplayOutcome out;
    trace::TraceReader reader(std::move(trace_data));
    if (!reader.ok()) {
        out.error = reader.error();
        return out;
    }
    out.header = reader.header();
    auto hierarchy = trace::hierarchyFor(out.header, overrides);
    out.counts = trace::replayTrace(reader, hierarchy.get(), nullptr);
    if (!reader.complete()) {
        out.error = reader.error();
        return out;
    }
    const sim::MachineConfig &m = hierarchy->config();
    collectHierarchyState(*hierarchy, m.totalCpus, out.header.appCpus,
                          out);
    out.valid = true;
    return out;
}

SweepReplayOutcome
replayTraceSweep(std::string trace_data)
{
    SweepReplayOutcome out;
    trace::TraceReader reader(std::move(trace_data));
    if (!reader.ok()) {
        out.error = reader.error();
        return out;
    }
    out.header = reader.header();
    mem::SweepSimulator sweep{mem::SweepSimulator::paperSweep()};
    out.counts = trace::replayTrace(reader, nullptr, &sweep);
    if (!reader.complete()) {
        out.error = reader.error();
        return out;
    }
    out.icache = sweep.icacheResults();
    out.dcache = sweep.dcacheResults();
    out.instructions = sweep.instructions();
    out.valid = true;
    return out;
}

std::vector<HierarchyReplayOutcome>
replayTraceSharing(std::string trace_data,
                   const std::vector<unsigned> &degrees)
{
    std::vector<HierarchyReplayOutcome> outs(degrees.size());
    trace::TraceReader reader(std::move(trace_data));
    if (!reader.ok()) {
        for (HierarchyReplayOutcome &out : outs)
            out.error = reader.error();
        return outs;
    }

    std::vector<std::unique_ptr<mem::Hierarchy>> hierarchies;
    std::vector<mem::Hierarchy *> raw;
    hierarchies.reserve(degrees.size());
    raw.reserve(degrees.size());
    for (std::size_t i = 0; i < degrees.size(); ++i) {
        outs[i].header = reader.header();
        hierarchies.push_back(trace::hierarchyFor(
            reader.header(), trace::ReplayOverrides{0, degrees[i]}));
        raw.push_back(hierarchies.back().get());
    }

    const trace::ReplayCounts counts =
        trace::replayTraceFanout(reader, raw, nullptr);
    if (!reader.complete()) {
        for (HierarchyReplayOutcome &out : outs)
            out.error = reader.error();
        return outs;
    }
    for (std::size_t i = 0; i < degrees.size(); ++i) {
        outs[i].counts = counts;
        const sim::MachineConfig &m = hierarchies[i]->config();
        collectHierarchyState(*hierarchies[i], m.totalCpus,
                              outs[i].header.appCpus, outs[i]);
        outs[i].valid = true;
    }
    return outs;
}

} // namespace middlesim::core
