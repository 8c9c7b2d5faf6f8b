#include "core/trace_tool.hh"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/metrics_io.hh"
#include "core/trace_run.hh"
#include "sim/args.hh"
#include "sim/log.hh"
#include "trace/reader.hh"

namespace middlesim::core
{

namespace
{

/** The settings of every subcommand; each option table writes here. */
struct ToolOptions
{
    /** record */
    ExperimentSpec spec;
    std::string out;
    /** timeline */
    std::uint64_t limit = 100;
    /** replay */
    std::uint64_t l2Kb = 0;
    trace::ReplayOverrides overrides;
};

sim::OptionTable
recordOptions(ToolOptions &o)
{
    ExperimentSpec &spec = o.spec;
    return {
        {"--out", "", "FILE", "write the recording to FILE (required)",
         sim::setText(o.out)},
        {"--workload", "", "specjbb|ecperf", "workload (default specjbb)",
         [&spec](const std::string &v) {
             if (v == "specjbb")
                 spec.workload = WorkloadKind::SpecJbb;
             else if (v == "ecperf")
                 spec.workload = WorkloadKind::Ecperf;
             else
                 return std::string("specjbb or ecperf");
             return std::string();
         }},
        {"--app-cpus", "", "N", "application CPUs (default 1)",
         sim::setUint(spec.appCpus)},
        {"--total-cpus", "", "N", "machine CPUs (default 1)",
         sim::setUint(spec.totalCpus)},
        {"--cpus-per-l2", "", "N", "CPUs sharing each L2 (default 1)",
         sim::setUint(spec.cpusPerL2)},
        {"--scale", "", "N",
         "warehouses / injection rate (default 0: auto)",
         sim::setUint(spec.scale)},
        {"--seed", "", "N", "RNG seed (default 1)", sim::setU64(spec.seed)},
        {"--warmup", "", "T", "warmup ticks (default 2000000)",
         sim::setU64(spec.warmup)},
        {"--measure", "", "T", "measured ticks (default 4000000)",
         sim::setU64(spec.measure)},
        {"--track-comm", "", "", "track per-line communication",
         sim::setSwitch(spec.trackCommunication)},
    };
}

sim::OptionTable
timelineOptions(ToolOptions &o)
{
    return {{"--limit", "", "N", "annotations to print (default 100)",
             sim::setU64(o.limit)}};
}

sim::OptionTable
replayOptions(ToolOptions &o)
{
    return {
        {"--l2-kb", "", "N", "replay with an N KB L2",
         sim::setU64(o.l2Kb, UINT64_MAX >> 10)},
        {"--cpus-per-l2", "", "N", "replay with N CPUs per L2",
         sim::setUint(o.overrides.cpusPerL2)},
    };
}

int
usage(std::FILE *to, int status)
{
    ToolOptions o;
    std::fprintf(
        to,
        "usage: middlesim-trace <command> [args]\n"
        "  info FILE                  header + record counts\n"
        "  validate FILE              structural validation\n"
        "  timeline FILE [options]    annotation timeline\n"
        "  record [options]           execution-driven run to --out\n"
        "  replay FILE [options]      miss breakdown of a replay\n"
        "  sweep FILE                 Figure 12/13 cache sweep\n"
        "  sharing FILE               Figure 16 shared-L2 what-if\n"
        "timeline options:\n%s"
        "record options:\n%s"
        "replay options:\n%s",
        sim::optionsHelp(timelineOptions(o)).c_str(),
        sim::optionsHelp(recordOptions(o)).c_str(),
        sim::optionsHelp(replayOptions(o)).c_str());
    return status;
}

/** Load a trace file or fail loudly. */
std::string
loadTrace(const std::string &path)
{
    std::string data;
    if (!trace::readTraceFile(path, data))
        fatal("middlesim-trace: cannot read '", path, "'");
    return data;
}

void
printHeader(const trace::TraceHeader &h)
{
    std::printf("format:     %s\n", trace::traceMagic);
    std::printf("label:      %s\n",
                h.label.empty() ? "(none)" : h.label.c_str());
    std::printf("spec key:   %zu bytes%s\n", h.specKey.size(),
                h.specKey.empty() ? " (not spec-driven)" : "");
    std::printf("machine:    %u cpus (%u app), %u per L2\n",
                h.totalCpus, h.appCpus, h.cpusPerL2);
    std::printf("caches:     L1i %llu KB / L1d %llu KB / L2 %llu KB "
                "(%u-way, %u B blocks)\n",
                static_cast<unsigned long long>(h.l1i.sizeBytes >> 10),
                static_cast<unsigned long long>(h.l1d.sizeBytes >> 10),
                static_cast<unsigned long long>(h.l2.sizeBytes >> 10),
                h.l2.assoc, h.l2.blockBytes);
    std::printf("intervals:  warmup %llu, measure %llu ticks\n",
                static_cast<unsigned long long>(h.warmupTicks),
                static_cast<unsigned long long>(h.measureTicks));
    std::printf("seed:       %llu\n",
                static_cast<unsigned long long>(h.seed));
    std::printf("comm track: %s\n", h.trackCommunication ? "on" : "off");
    for (const trace::TraceRegion &r : h.regions) {
        std::printf("region:     %-12s base 0x%llx, %llu MB\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.base),
                    static_cast<unsigned long long>(r.bytes >> 20));
    }
}

int
cmdInfo(const std::string &path)
{
    trace::TraceReader reader(loadTrace(path));
    if (!reader.ok())
        fatal("middlesim-trace: '", path, "': ", reader.error());
    printHeader(reader.header());
    if (!reader.drain())
        fatal("middlesim-trace: '", path, "': ", reader.error());
    std::printf("refs:       %llu\n",
                static_cast<unsigned long long>(reader.refCount()));
    std::printf("annotations:%llu\n",
                static_cast<unsigned long long>(
                    reader.annotationCount()));
    const std::vector<std::uint64_t> &counts =
        reader.annotationCounts();
    for (std::size_t k = 0; k < counts.size(); ++k) {
        if (counts[k] == 0)
            continue;
        std::printf("  %-18s %llu\n",
                    mem::traceAnnotationName(
                        static_cast<mem::TraceAnnotation>(k)),
                    static_cast<unsigned long long>(counts[k]));
    }
    return 0;
}

int
cmdValidate(const std::string &path)
{
    std::string data;
    if (!trace::readTraceFile(path, data)) {
        std::fprintf(stderr, "INVALID %s: cannot read file\n",
                     path.c_str());
        return 1;
    }
    trace::TraceReader reader(std::move(data));
    if (!reader.ok() || !reader.drain()) {
        std::fprintf(stderr, "INVALID %s: %s\n", path.c_str(),
                     reader.error().c_str());
        return 1;
    }
    std::printf("OK %s: %llu refs, %llu annotations\n", path.c_str(),
                static_cast<unsigned long long>(reader.refCount()),
                static_cast<unsigned long long>(
                    reader.annotationCount()));
    return 0;
}

int
cmdTimeline(const std::string &path, std::uint64_t limit)
{
    trace::TraceReader reader(loadTrace(path));
    if (!reader.ok())
        fatal("middlesim-trace: '", path, "': ", reader.error());
    trace::TraceRecord rec;
    std::uint64_t shown = 0;
    while (reader.next(rec)) {
        if (rec.isRef)
            continue;
        if (shown++ >= limit) {
            std::printf("... (--limit=%llu reached)\n",
                        static_cast<unsigned long long>(limit));
            break;
        }
        std::printf("%12llu  cpu%-3u %-16s arg=%llu\n",
                    static_cast<unsigned long long>(rec.tick), rec.ref.cpu,
                    mem::traceAnnotationName(rec.kind),
                    static_cast<unsigned long long>(rec.arg));
    }
    if (!reader.ok())
        fatal("middlesim-trace: '", path, "': ", reader.error());
    return 0;
}

int
cmdRecord(const ExperimentSpec &spec, const std::string &out)
{
    if (out.empty())
        fatal("middlesim-trace: record requires --out=FILE");
    const TraceRecordOutcome rec = recordTraceRun(spec, out);
    std::printf("recorded %s -> %s\n", pointName(spec).c_str(),
                out.c_str());
    std::printf("  instructions: %llu\n",
                static_cast<unsigned long long>(
                    rec.result.cpi.instructions));
    std::printf("  throughput:   %.1f tx/s\n", rec.result.throughput);
    return 0;
}

void
printMissBreakdown(const mem::CacheStats &s, std::uint64_t touched)
{
    std::printf("  L2 accesses:  %llu (%llu hits)\n",
                static_cast<unsigned long long>(s.l2Accesses),
                static_cast<unsigned long long>(s.l2Hits));
    std::printf("  L2 misses:    %llu  (cold %llu, coherence %llu, "
                "capacity %llu)\n",
                static_cast<unsigned long long>(s.l2Misses()),
                static_cast<unsigned long long>(s.missCold),
                static_cast<unsigned long long>(s.missCoherence),
                static_cast<unsigned long long>(s.missCapacity));
    std::printf("  c2c/upgrades: %llu / %llu\n",
                static_cast<unsigned long long>(s.c2cTransfers),
                static_cast<unsigned long long>(s.upgrades));
    if (touched)
        std::printf("  touched lines:%llu\n",
                    static_cast<unsigned long long>(touched));
}

int
cmdReplay(const std::string &path, const trace::ReplayOverrides &overrides)
{
    HierarchyReplayOutcome out =
        replayTraceHierarchy(loadTrace(path), overrides);
    if (!out.valid)
        fatal("middlesim-trace: '", path, "': ", out.error);
    std::printf("replayed %llu refs, %llu annotations (%s)\n",
                static_cast<unsigned long long>(out.counts.refs),
                static_cast<unsigned long long>(out.counts.annotations),
                out.header.label.c_str());
    printMissBreakdown(out.aggregate, out.touchedLines);
    return 0;
}

int
cmdSweep(const std::string &path)
{
    const SweepReplayOutcome out = replayTraceSweep(loadTrace(path));
    if (!out.valid)
        fatal("middlesim-trace: '", path, "': ", out.error);
    std::printf("replayed %llu refs (%s), %llu instructions\n",
                static_cast<unsigned long long>(out.counts.refs),
                out.header.label.c_str(),
                static_cast<unsigned long long>(out.instructions));
    std::printf("%10s %14s %14s\n", "size", "imiss/1000", "dmiss/1000");
    for (std::size_t i = 0; i < out.icache.size(); ++i) {
        std::printf(
            "%7llu KB %14.3f %14.3f\n",
            static_cast<unsigned long long>(
                out.icache[i].params.sizeBytes >> 10),
            out.icache[i].missesPer1000(out.instructions),
            out.dcache[i].missesPer1000(out.instructions));
    }
    return 0;
}

void
printSharingRow(unsigned share, const HierarchyReplayOutcome &out,
                const std::string &path)
{
    if (!out.valid)
        fatal("middlesim-trace: '", path, "': ", out.error);
    const mem::CacheStats &s = out.aggregate;
    std::printf("%8u %12llu %12llu %12llu %12llu\n", share,
                static_cast<unsigned long long>(s.l2Misses()),
                static_cast<unsigned long long>(s.missCoherence),
                static_cast<unsigned long long>(s.missCapacity),
                static_cast<unsigned long long>(s.c2cTransfers));
}

int
cmdSharing(const std::string &path)
{
    // The header and every degree's replay read one copy of the bytes.
    const auto data = std::make_shared<const std::string>(loadTrace(path));
    const trace::TraceReader probe(data);
    if (!probe.ok())
        fatal("middlesim-trace: '", path, "': ", probe.error());
    const unsigned total = probe.header().totalCpus;
    std::vector<unsigned> degrees;
    for (unsigned share = 1; share <= total; share *= 2) {
        if (total % share == 0)
            degrees.push_back(share);
    }

    std::printf("%8s %12s %12s %12s %12s\n", "cpusPerL2", "misses",
                "coherence", "capacity", "c2c");
    const std::vector<HierarchyReplayOutcome> outs =
        replayTraceSharing(data, degrees);
    for (std::size_t i = 0; i < degrees.size(); ++i)
        printSharingRow(degrees[i], outs[i], path);
    return 0;
}

} // namespace

int
traceToolMain(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr, 1);
    const std::string cmd = argv[1];
    if (cmd == "--help")
        return usage(stdout, 0);
    ToolOptions o;
    if (cmd == "record") {
        o.spec.appCpus = o.spec.totalCpus = 1;
        o.spec.warmup = 2'000'000;
        o.spec.measure = 4'000'000;
        sim::parseOptions("middlesim-trace record", recordOptions(o), argc,
                          argv, 2);
        return cmdRecord(o.spec, o.out);
    }
    if (argc < 3)
        return usage(stderr, 1);

    // FILE comes first; "replay --help" still reaches the table.
    const std::string path = argv[2];
    const int first = path == "--help" ? 2 : 3;
    if (cmd == "timeline") {
        sim::parseOptions("middlesim-trace timeline", timelineOptions(o),
                          argc, argv, first);
        return cmdTimeline(path, o.limit);
    }
    if (cmd == "replay") {
        sim::parseOptions("middlesim-trace replay", replayOptions(o), argc,
                          argv, first);
        o.overrides.l2SizeBytes = o.l2Kb << 10;
        return cmdReplay(path, o.overrides);
    }
    int (*const cmdFile)(const std::string &) =
        cmd == "info"       ? cmdInfo
        : cmd == "validate" ? cmdValidate
        : cmd == "sweep"    ? cmdSweep
        : cmd == "sharing"  ? cmdSharing
                            : nullptr;
    if (!cmdFile || argc > 3)
        return usage(stderr, 1);
    if (path == "--help")
        return usage(stdout, 0);
    return cmdFile(path);
}

} // namespace middlesim::core
