#include "core/trace_tool.hh"

#include <climits>
#include <cstdint>
#include <cstdio>
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

int
usage()
{
    std::fprintf(
        stderr,
        "usage: middlesim-trace <command> [args]\n"
        "  info FILE                  header + record counts\n"
        "  validate FILE              structural validation\n"
        "  timeline FILE [--limit=N]  annotation timeline\n"
        "  record --out=FILE [--workload=specjbb|ecperf --app-cpus=N\n"
        "         --total-cpus=N --cpus-per-l2=N --scale=N --seed=N\n"
        "         --warmup=T --measure=T --track-comm]\n"
        "  replay FILE [--l2-kb=N --cpus-per-l2=N]\n"
        "  sweep FILE                 Figure 12/13 cache sweep\n"
        "  sharing FILE               Figure 16 shared-L2 what-if\n");
    return 1;
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

/** Strict value of a numeric `--flag=N`, at most `hi`. */
std::uint64_t
numFlag(const std::string &arg, std::uint64_t hi = UINT_MAX)
{
    return sim::parseUintFlag("middlesim-trace", arg, 0, hi);
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

/** Parse the shared spec flags of `record`. */
ExperimentSpec
specFromFlags(const std::vector<std::string> &flags, std::string &out)
{
    ExperimentSpec spec;
    spec.appCpus = 1;
    spec.totalCpus = 1;
    spec.warmup = 2'000'000;
    spec.measure = 4'000'000;
    for (const std::string &arg : flags) {
        if (arg.rfind("--out=", 0) == 0) {
            out = arg.substr(6);
        } else if (arg.rfind("--workload=", 0) == 0) {
            const std::string kind = arg.substr(11);
            if (kind == "specjbb")
                spec.workload = WorkloadKind::SpecJbb;
            else if (kind == "ecperf")
                spec.workload = WorkloadKind::Ecperf;
            else
                fatal("middlesim-trace: unknown workload '", kind, "'");
        } else if (arg.rfind("--app-cpus=", 0) == 0) {
            spec.appCpus = static_cast<unsigned>(numFlag(arg));
        } else if (arg.rfind("--total-cpus=", 0) == 0) {
            spec.totalCpus = static_cast<unsigned>(numFlag(arg));
        } else if (arg.rfind("--cpus-per-l2=", 0) == 0) {
            spec.cpusPerL2 = static_cast<unsigned>(numFlag(arg));
        } else if (arg.rfind("--scale=", 0) == 0) {
            spec.scale = static_cast<unsigned>(numFlag(arg));
        } else if (arg.rfind("--seed=", 0) == 0) {
            spec.seed = numFlag(arg, UINT64_MAX);
        } else if (arg.rfind("--warmup=", 0) == 0) {
            spec.warmup = numFlag(arg, UINT64_MAX);
        } else if (arg.rfind("--measure=", 0) == 0) {
            spec.measure = numFlag(arg, UINT64_MAX);
        } else if (arg == "--track-comm") {
            spec.trackCommunication = true;
        } else {
            fatal("middlesim-trace: unknown record flag '", arg, "'");
        }
    }
    return spec;
}

int
cmdRecord(const std::vector<std::string> &flags)
{
    std::string out;
    const ExperimentSpec spec = specFromFlags(flags, out);
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
cmdReplay(const std::string &path,
          const std::vector<std::string> &flags)
{
    trace::ReplayOverrides overrides;
    for (const std::string &arg : flags) {
        if (arg.rfind("--l2-kb=", 0) == 0)
            overrides.l2SizeBytes = numFlag(arg, UINT64_MAX >> 10) << 10;
        else if (arg.rfind("--cpus-per-l2=", 0) == 0)
            overrides.cpusPerL2 = static_cast<unsigned>(numFlag(arg));
        else
            fatal("middlesim-trace: unknown replay flag '", arg, "'");
    }
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
    // One decode of the recording feeds every sharing degree.
    std::string data = loadTrace(path);
    trace::TraceReader probe{std::string(data)};
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
        replayTraceSharing(std::move(data), degrees);
    for (std::size_t i = 0; i < degrees.size(); ++i)
        printSharingRow(degrees[i], outs[i], path);
    return 0;
}

} // namespace

int
traceToolMain(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    std::vector<std::string> rest;
    for (int i = 2; i < argc; ++i)
        rest.emplace_back(argv[i]);

    if (cmd == "record")
        return cmdRecord(rest);
    if (rest.empty())
        return usage();

    const std::string path = rest.front();
    rest.erase(rest.begin());
    if (cmd == "info" && rest.empty())
        return cmdInfo(path);
    if (cmd == "validate" && rest.empty())
        return cmdValidate(path);
    if (cmd == "timeline") {
        std::uint64_t limit = 100;
        for (const std::string &arg : rest) {
            if (arg.rfind("--limit=", 0) == 0)
                limit = numFlag(arg, UINT64_MAX);
            else
                fatal("middlesim-trace: unknown timeline flag '", arg,
                      "'");
        }
        return cmdTimeline(path, limit);
    }
    if (cmd == "replay")
        return cmdReplay(path, rest);
    if (cmd == "sweep" && rest.empty())
        return cmdSweep(path);
    if (cmd == "sharing" && rest.empty())
        return cmdSharing(path);
    return usage();
}

} // namespace middlesim::core
