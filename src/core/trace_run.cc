#include "core/trace_run.hh"

#include <algorithm>
#include <bit>
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

/**
 * Fill `out` from `hierarchy`, into which every record of `reader`
 * (counted in `counts`) was replayed; a reader that did not complete
 * gives its error instead.
 */
void
finishReplay(const trace::TraceReader &reader,
             const trace::ReplayCounts &counts,
             const mem::Hierarchy &hierarchy, HierarchyReplayOutcome &out)
{
    out.header = reader.header();
    out.counts = counts;
    if (!reader.complete()) {
        out.error = reader.error();
        return;
    }
    collectHierarchyState(hierarchy, hierarchy.config().totalCpus,
                          out.header.appCpus, out);
    out.valid = true;
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
    auto hierarchy = trace::hierarchyFor(reader.header(), overrides);
    const trace::ReplayCounts counts =
        trace::replayTrace(reader, hierarchy.get(), nullptr);
    finishReplay(reader, counts, *hierarchy, out);
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

    // One sweep per set slice, each a frontend of the replay, built
    // here: the constructor can fatal(), which must not run on a
    // worker.
    const std::vector<sim::CacheParams> configs =
        mem::SweepSimulator::paperSweep();
    const auto slices = static_cast<unsigned>(std::bit_floor(
        std::min<std::uint64_t>(
            trace::replayThreads(),
            mem::stackdist::RefinementSweep::maxSlices(configs))));
    std::vector<mem::SweepSimulator> sweeps;
    sweeps.reserve(slices);
    std::vector<trace::ReplayFrontend> frontends;
    for (unsigned s = 0; s < slices; ++s) {
        sweeps.emplace_back(configs, s, slices);
        frontends.push_back({nullptr, &sweeps.back()});
    }
    out.counts = trace::replayTrace(reader, frontends);
    if (!reader.complete()) {
        out.error = reader.error();
        return out;
    }

    // Each geometry's counts are the slices' sums; every slice counted
    // the whole stream's instructions.
    out.icache = sweeps[0].icacheResults();
    out.dcache = sweeps[0].dcacheResults();
    for (unsigned s = 1; s < slices; ++s) {
        for (std::size_t i = 0; i < configs.size(); ++i) {
            out.icache[i].accesses += sweeps[s].icacheResults()[i].accesses;
            out.icache[i].misses += sweeps[s].icacheResults()[i].misses;
            out.dcache[i].accesses += sweeps[s].dcacheResults()[i].accesses;
            out.dcache[i].misses += sweeps[s].dcacheResults()[i].misses;
        }
    }
    out.instructions = sweeps[0].instructions();
    out.valid = true;
    return out;
}

std::vector<HierarchyReplayOutcome>
replayTraceSharing(trace::TraceReader &reader,
                   const std::vector<unsigned> &degrees)
{
    std::vector<HierarchyReplayOutcome> outs(degrees.size());
    if (!reader.ok()) {
        for (HierarchyReplayOutcome &out : outs)
            out.error = reader.error();
        return outs;
    }

    // hierarchyFor() can fatal(), which exits the process: build every
    // hierarchy here, never on a worker. Each table then grows on a
    // worker of its own, so its slot array moves into a mapping and
    // doubles by remapping (mem::TableWords).
    std::vector<std::unique_ptr<mem::Hierarchy>> hierarchies;
    std::vector<trace::ReplayFrontend> frontends;
    for (unsigned degree : degrees) {
        hierarchies.push_back(trace::hierarchyFor(
            reader.header(), trace::ReplayOverrides{0, degree}));
        hierarchies.back()->mapBlockTableArrays();
        frontends.push_back({hierarchies.back().get(), nullptr});
    }
    const trace::ReplayCounts counts = trace::replayTrace(reader, frontends);
    for (std::size_t i = 0; i < degrees.size(); ++i)
        finishReplay(reader, counts, *hierarchies[i], outs[i]);
    return outs;
}

std::vector<HierarchyReplayOutcome>
replayTraceSharing(std::string trace_data,
                   const std::vector<unsigned> &degrees)
{
    trace::TraceReader reader(std::move(trace_data));
    return replayTraceSharing(reader, degrees);
}

} // namespace middlesim::core
