/**
 * @file
 * middlesim_stress: seeded randomized invariant-stress driver.
 *
 * Each seed draws a random machine geometry (CPU count, L2 sharing
 * degree, cache sizes and associativities) and hammers it with a
 * random reference stream — or a short execution-driven workload
 * snippet — with every invariant checker armed in collection mode.
 *
 * Two operating regimes:
 *  - --inject=none (default): everything must check clean. Any
 *    violation is a real protocol bug; it is shrunk to a minimal
 *    `.mst` repro and the driver exits nonzero.
 *  - --inject=<fault>: a deterministic mem::FaultPlan defect is armed
 *    and every seed MUST be caught; the violating stream is shrunk
 *    via ddmin to a minimal replayable repro and re-verified. A seed
 *    the checkers miss is a checker bug and fails the run.
 *
 * The wall-clock budget (--budget) bounds total work: seeds that do
 * not fit are skipped and reported, never silently dropped.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "check/shrink.hh"
#include "core/experiment.hh"
#include "core/trace_run.hh"
#include "mem/fault.hh"
#include "sim/args.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

using namespace middlesim;

namespace
{

struct Options
{
    unsigned seeds = 25;
    std::uint64_t seed0 = 1;
    /** Wall-clock budget in seconds (0 = unlimited). */
    double budget = 60.0;
    /** Synthetic references per seed. */
    unsigned refs = 20000;
    /** Directory for minimized `.mst` repros ("" = don't write). */
    std::string out;
    mem::FaultPlan::Kind inject = mem::FaultPlan::Kind::None;
    /** "synthetic", "workload" or "both". */
    std::string mode = "synthetic";
    /** Replay a shrunken `.mst` repro instead of stressing. */
    std::string repro;
    /** Fault-plan parameters for --repro (explorer repros use 1/0). */
    std::uint64_t injectPeriod = 1;
    std::uint64_t injectSalt = 0;
};

/** Exit statuses of --repro replay (documented for CI scripting). */
enum ReproStatus
{
    /** The replay re-fired an invariant: the repro is live. */
    kReproRefired = 0,
    /** The replay checked clean: the repro is stale. */
    kReproClean = 2,
    /** The file failed `.mst` validation. */
    kReproInvalid = 3,
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    const sim::OptionTable table = {
        {"--seeds", "", "N", "seeds to run (default 25)",
         sim::setUint(opt.seeds)},
        {"--seed0", "", "N", "first seed (default 1)", sim::setU64(opt.seed0)},
        {"--budget", "", "SECONDS", "time budget (default 60s; 0 = none)",
         sim::setSeconds(opt.budget)},
        {"--refs", "", "N", "references per seed (default 20000)",
         sim::setUint(opt.refs, 1)},
        {"--out", "", "DIR", "write minimized .mst repros into DIR",
         sim::setText(opt.out)},
        {"--inject", "", "KIND", "arm a fault every seed must catch",
         sim::setChoice(opt.inject, mem::parseFaultKind,
                        mem::faultKindNames)},
        {"--inject-period", "", "N", "fault period (default 1)",
         sim::setU64(opt.injectPeriod)},
        {"--inject-salt", "", "N", "fault salt (default 0)",
         sim::setU64(opt.injectSalt)},
        {"--mode", "", "MODE", "synthetic, workload or both",
         [&opt](const std::string &v) {
             if (v != "synthetic" && v != "workload" && v != "both")
                 return std::string("synthetic, workload or both");
             opt.mode = v;
             return std::string();
         }},
        {"--repro", "", "FILE.mst", "replay a repro instead of stressing",
         sim::setText(opt.repro)},
    };
    sim::parseOptions("middlesim_stress", table, argc, argv);
    return opt;
}

/** A random divisor of `n`; proper (< n) when `proper` is set. */
unsigned
randomDivisor(sim::Rng &rng, unsigned n, bool proper)
{
    std::vector<unsigned> divs;
    for (unsigned d = 1; d <= n; ++d) {
        if (n % d == 0 && !(proper && d == n))
            divs.push_back(d);
    }
    return divs[rng.uniform(divs.size())];
}

/**
 * A random machine for this seed. Injected faults need at least two
 * L2 groups to create cross-group coherence traffic, so inject runs
 * draw only geometries with a proper sharing degree. Roughly half of
 * the geometries run the directory MESI protocol (with a random NUMA
 * node count dividing the group count, a random ring/mesh topology
 * and a random home-occupancy depth); drop-ack is a directory-only
 * defect and nack-storm a contended-home-only defect, so those runs
 * always draw the machines that can express them.
 */
trace::TraceHeader
randomGeometry(sim::Rng &rng, std::uint64_t seed, bool need_groups,
               mem::FaultPlan::Kind inject)
{
    static const unsigned cpuChoices[] = {1, 2, 4, 8, 16};
    static const std::uint64_t l1Sizes[] = {4096, 8192, 16384};
    static const unsigned l1Assoc[] = {1, 2, 4};
    static const std::uint64_t l2Sizes[] = {32768, 65536, 131072,
                                            262144};
    static const unsigned l2Assoc[] = {1, 2, 4, 8};

    trace::TraceHeader h;
    h.specKey = "";
    h.label = "stress-seed" + std::to_string(seed);
    h.totalCpus =
        need_groups ? cpuChoices[1 + rng.uniform(4)]
                    : cpuChoices[rng.uniform(5)];
    h.appCpus = h.totalCpus;
    h.cpusPerL2 = randomDivisor(rng, h.totalCpus, need_groups);
    const bool directory =
        inject == mem::FaultPlan::Kind::DropInvalAck ||
        inject == mem::FaultPlan::Kind::NackStorm ||
        rng.chance(0.5);
    if (directory) {
        h.protocol = sim::CoherenceProtocol::DirectoryMesi;
        h.numaNodes =
            randomDivisor(rng, h.totalCpus / h.cpusPerL2, false);
        if (rng.chance(0.5))
            h.topology = sim::Topology::Mesh;
        static const unsigned occChoices[] = {0, 1, 2, 4};
        h.dirOccupancy = occChoices[rng.uniform(4)];
        if (inject == mem::FaultPlan::Kind::NackStorm &&
            h.dirOccupancy == 0)
            h.dirOccupancy = 1;
    }
    h.l1i = {l1Sizes[rng.uniform(3)],
             l1Assoc[rng.uniform(3)], 64};
    h.l1d = {l1Sizes[rng.uniform(3)],
             l1Assoc[rng.uniform(3)], 64};
    h.l2 = {l2Sizes[rng.uniform(4)], l2Assoc[rng.uniform(4)], 64};
    h.seed = seed;
    return h;
}

/**
 * A random interleaved reference stream: a small hot set every CPU
 * shares (coherence churn) plus a cold pool larger than the L2
 * (evictions and conflict misses), with occasional whole-hierarchy
 * invalidations.
 */
std::vector<trace::TraceRecord>
randomStream(sim::Rng &rng, const trace::TraceHeader &h, unsigned refs)
{
    constexpr mem::Addr hotBase = 0x1000'0000ULL;
    constexpr mem::Addr coldBase = 0x2000'0000ULL;
    const unsigned hotBlocks = 32 + static_cast<unsigned>(
        rng.uniform(97));
    const unsigned l2Blocks =
        static_cast<unsigned>(h.l2.sizeBytes / 64);
    const unsigned coldBlocks =
        std::min(2 * l2Blocks, 4096u);

    std::vector<trace::TraceRecord> out;
    out.reserve(refs);
    sim::Tick t = 1000;
    for (unsigned i = 0; i < refs; ++i) {
        t += 1 + rng.uniform(50);
        if (rng.uniform(8192) == 0) {
            trace::TraceRecord rec;
            rec.isRef = false;
            rec.kind = mem::TraceAnnotation::InvalidateAll;
            rec.tick = t;
            out.push_back(rec);
            continue;
        }
        trace::TraceRecord rec;
        rec.tick = t;
        rec.ref.cpu = static_cast<unsigned>(
            rng.uniform(h.totalCpus));
        mem::Addr block;
        if (rng.chance(0.6))
            block = hotBase + 64 * rng.uniform(hotBlocks);
        else
            block = coldBase + 64 * rng.uniform(coldBlocks);
        const std::uint64_t roll = rng.uniform(100);
        if (roll < 50)
            rec.ref.type = mem::AccessType::Load;
        else if (roll < 75)
            rec.ref.type = mem::AccessType::Store;
        else if (roll < 85)
            rec.ref.type = mem::AccessType::IFetch;
        else if (roll < 90)
            rec.ref.type = mem::AccessType::Atomic;
        else
            rec.ref.type = mem::AccessType::BlockStore;
        rec.ref.addr =
            rec.ref.type == mem::AccessType::BlockStore
                ? block
                : block + 8 * rng.uniform(8);
        out.push_back(rec);
    }
    return out;
}

/** True for invariants a memory-only trace replay can reproduce. */
bool
memReplayable(const std::string &invariant)
{
    for (const char *prefix :
         {"mosi.", "value.", "incl.", "meta.", "check.", "classify.",
          "dir.", "proto."}) {
        if (invariant.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

struct Tally
{
    unsigned ran = 0;
    unsigned clean = 0;
    unsigned caught = 0;
    unsigned failures = 0;
    unsigned skipped = 0;
};

/** Ready-to-paste command line reproducing this seed's run. */
std::string
rerunCommand(std::uint64_t seed, const char *mode, const Options &opt)
{
    std::string cmd = "middlesim_stress --seeds=1 --seed0=" +
                      std::to_string(seed) +
                      " --refs=" + std::to_string(opt.refs) +
                      " --mode=" + mode;
    if (opt.inject != mem::FaultPlan::Kind::None)
        cmd += std::string(" --inject=") + mem::toString(opt.inject);
    if (!opt.out.empty())
        cmd += " --out=" + opt.out;
    return cmd;
}

/** Ready-to-paste command line replaying a written repro. */
std::string
replayCommand(const std::string &repro, const mem::FaultPlan *fault)
{
    std::string cmd = "middlesim_stress --repro=" + repro;
    if (fault && fault->kind != mem::FaultPlan::Kind::None) {
        cmd += std::string(" --inject=") + mem::toString(fault->kind);
        cmd += " --inject-period=" + std::to_string(fault->period);
        cmd += " --inject-salt=" + std::to_string(fault->salt);
    }
    return cmd;
}

/**
 * Shrink a violating stream, re-verify the minimal repro and write it
 * out. @return false if shrinking failed to reproduce the violation.
 */
bool
shrinkAndReport(const char *what, const char *mode, std::uint64_t seed,
                const trace::TraceHeader &header,
                std::vector<trace::TraceRecord> records,
                const mem::FaultPlan *fault, const Options &opt)
{
    check::ShrinkResult r =
        check::shrinkToMinimal(header, std::move(records), fault);
    if (!r.reproduced) {
        std::printf("stress: seed %llu %s -> VIOLATION did not "
                    "reproduce on replay (unshrinkable)\n",
                    static_cast<unsigned long long>(seed), what);
        std::printf("stress: rerun: %s\n",
                    rerunCommand(seed, mode, opt).c_str());
        return false;
    }
    const std::string again =
        check::violatedInvariant(header, r.records, fault);
    if (again != r.invariant) {
        std::printf("stress: seed %llu %s -> shrink verification "
                    "FAILED (wanted %s, got %s)\n",
                    static_cast<unsigned long long>(seed), what,
                    r.invariant.c_str(),
                    again.empty() ? "clean" : again.c_str());
        std::printf("stress: rerun: %s\n",
                    rerunCommand(seed, mode, opt).c_str());
        return false;
    }
    std::string repro;
    if (!opt.out.empty()) {
        repro = check::writeRepro(opt.out, seed, header, r);
        if (repro.empty())
            warn("middlesim_stress: cannot write repro into '",
                 opt.out, "'");
    }
    std::printf("stress: seed %llu %s -> CAUGHT %s "
                "(shrunk %zu -> %zu records, %u probes)%s%s\n",
                static_cast<unsigned long long>(seed), what,
                r.invariant.c_str(), r.originalCount,
                r.records.size(), r.probes,
                repro.empty() ? "" : " repro=",
                repro.c_str());
    std::printf("stress: rerun: %s\n",
                rerunCommand(seed, mode, opt).c_str());
    if (!repro.empty())
        std::printf("stress: replay: %s\n",
                    replayCommand(repro, fault).c_str());
    return true;
}

/** One synthetic-stream seed. */
void
runSyntheticSeed(std::uint64_t seed, const Options &opt, Tally &tally)
{
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
    const bool inject = opt.inject != mem::FaultPlan::Kind::None;
    const trace::TraceHeader header =
        randomGeometry(rng, seed, inject, opt.inject);
    const std::vector<trace::TraceRecord> records =
        randomStream(rng, header, opt.refs);

    mem::FaultPlan plan;
    const mem::FaultPlan *fault = nullptr;
    if (inject) {
        plan.kind = opt.inject;
        plan.period = 2 + rng.uniform(3);
        plan.salt = rng.next();
        fault = &plan;
    }

    ++tally.ran;
    const std::string invariant =
        check::violatedInvariant(header, records, fault);
    char geom[160];
    std::snprintf(geom, sizeof geom,
                  "synthetic cpus=%u/l2x%u %s/n%u/%s/occ%u "
                  "l1=%lluK/%u l2=%lluK/%u",
                  header.totalCpus, header.cpusPerL2,
                  sim::toString(header.protocol), header.numaNodes,
                  sim::toString(header.topology), header.dirOccupancy,
                  static_cast<unsigned long long>(
                      header.l1d.sizeBytes / 1024),
                  header.l1d.assoc,
                  static_cast<unsigned long long>(
                      header.l2.sizeBytes / 1024),
                  header.l2.assoc);
    if (invariant.empty()) {
        ++tally.clean;
        if (inject) {
            ++tally.failures;
            std::printf("stress: seed %llu %s -> MISSED injected "
                        "fault %s (checker did not fire)\n",
                        static_cast<unsigned long long>(seed), geom,
                        mem::toString(opt.inject));
            std::printf("stress: rerun: %s\n",
                        rerunCommand(seed, "synthetic", opt).c_str());
        } else {
            std::printf("stress: seed %llu %s refs=%u -> clean\n",
                        static_cast<unsigned long long>(seed), geom,
                        opt.refs);
        }
        return;
    }
    ++tally.caught;
    if (!inject)
        ++tally.failures;
    if (!shrinkAndReport(geom, "synthetic", seed, header, records,
                         fault, opt))
        ++tally.failures;
}

/** One execution-driven workload-snippet seed. */
void
runWorkloadSeed(std::uint64_t seed, const Options &opt, Tally &tally)
{
    sim::Rng rng(seed * 0xd1b54a32d192ed03ULL + 0x5eed);
    const bool inject = opt.inject != mem::FaultPlan::Kind::None;

    core::ExperimentSpec spec;
    spec.workload = core::WorkloadKind::SpecJbb;
    spec.scale = 1;
    static const unsigned cpuChoices[] = {1, 2, 4};
    spec.totalCpus =
        inject ? cpuChoices[1 + rng.uniform(2)]
               : cpuChoices[rng.uniform(3)];
    spec.appCpus = spec.totalCpus;
    spec.cpusPerL2 = randomDivisor(rng, spec.totalCpus, inject);
    if (opt.inject == mem::FaultPlan::Kind::DropInvalAck ||
        opt.inject == mem::FaultPlan::Kind::NackStorm ||
        rng.chance(0.5)) {
        spec.protocol = sim::CoherenceProtocol::DirectoryMesi;
        spec.numaNodes =
            randomDivisor(rng, spec.totalCpus / spec.cpusPerL2, false);
        if (rng.chance(0.5))
            spec.topology = sim::Topology::Mesh;
        static const unsigned occChoices[] = {0, 1, 2, 4};
        spec.dirOccupancy = occChoices[rng.uniform(4)];
        if (opt.inject == mem::FaultPlan::Kind::NackStorm &&
            spec.dirOccupancy == 0)
            spec.dirOccupancy = 1;
    }
    spec.seed = seed;
    spec.warmup = 200'000;
    spec.measure = 600'000;
    // A tiny young generation forces collections inside the snippet
    // so the GC-window and JVM checkers actually exercise.
    spec.sys.jvm.heap.newGenBytes = 2ULL << 20;
    spec.sys.jvm.heap.overshootBytes = 2ULL << 20;

    core::BuiltWorkload workload;
    auto system = core::buildSystem(spec, workload);
    check::CheckOptions copts;
    copts.failFast = false;
    copts.maxViolations = 16;
    system->enableChecking(copts);

    mem::FaultPlan plan;
    const mem::FaultPlan *fault = nullptr;
    if (inject) {
        plan.kind = opt.inject;
        // Workload snippets share far fewer blocks across groups than
        // synthetic streams; match every block so any cross-group
        // write exercises the defect.
        plan.period = 1;
        plan.salt = rng.next();
        system->memory().setFaultPlan(&plan);
        fault = &plan;
    }

    trace::TraceHeader header = core::traceHeaderFor(*system, spec);
    trace::TraceWriter writer(header);
    system->setTraceSink(&writer);
    core::measure(*system, spec, workload);
    system->setTraceSink(nullptr);
    system->memory().setFaultPlan(nullptr);

    ++tally.ran;
    const check::CheckReport &report = system->checker()->report();
    char geom[96];
    std::snprintf(geom, sizeof geom,
                  "workload jbb:1 cpus=%u/l2x%u %s/n%u/%s/occ%u",
                  spec.totalCpus, spec.cpusPerL2,
                  sim::toString(spec.protocol), spec.numaNodes,
                  sim::toString(spec.topology), spec.dirOccupancy);
    if (report.clean()) {
        ++tally.clean;
        if (inject) {
            // An injected fault a short snippet never tickles is not
            // a checker bug (synthetic streams are the guaranteed
            // trigger); report it, don't fail.
            std::printf("stress: seed %llu %s -> injected fault %s "
                        "not exercised\n",
                        static_cast<unsigned long long>(seed), geom,
                        mem::toString(opt.inject));
        } else {
            std::printf("stress: seed %llu %s -> clean "
                        "(%llu refs checked)\n",
                        static_cast<unsigned long long>(seed), geom,
                        static_cast<unsigned long long>(
                            report.refsChecked));
        }
        return;
    }
    ++tally.caught;
    if (!inject)
        ++tally.failures;
    const check::Violation &first = report.violations().front();
    if (!memReplayable(first.invariant)) {
        // OS/JVM-layer invariants need the full system, which a
        // memory-only replay cannot rebuild; report without a trace.
        std::printf("stress: seed %llu %s -> CAUGHT %s (%s; "
                    "not trace-shrinkable)\n",
                    static_cast<unsigned long long>(seed), geom,
                    first.invariant.c_str(), first.detail.c_str());
        std::printf("stress: rerun: %s\n",
                    rerunCommand(seed, "workload", opt).c_str());
        return;
    }
    trace::TraceReader reader(writer.take());
    std::vector<trace::TraceRecord> records =
        check::collectRecords(reader);
    if (!reader.complete()) {
        std::printf("stress: seed %llu %s -> CAUGHT %s but recorded "
                    "trace invalid: %s\n",
                    static_cast<unsigned long long>(seed), geom,
                    first.invariant.c_str(), reader.error().c_str());
        std::printf("stress: rerun: %s\n",
                    rerunCommand(seed, "workload", opt).c_str());
        ++tally.failures;
        return;
    }
    if (!shrinkAndReport(geom, "workload", seed, header,
                         std::move(records), fault, opt))
        ++tally.failures;
}

/**
 * Replay a shrunken `.mst` repro under full checking. The exit code
 * tells CI scripts whether the repro is still live: kReproRefired (0)
 * when an invariant fired again, kReproClean (2) when the trace now
 * checks clean (stale repro), kReproInvalid (3) for a broken file.
 */
int
replayRepro(const Options &opt)
{
    std::string text;
    if (!trace::readTraceFile(opt.repro, text)) {
        std::printf("stress: repro %s -> cannot read file\n",
                    opt.repro.c_str());
        return kReproInvalid;
    }
    trace::TraceReader reader(text);
    std::vector<trace::TraceRecord> records =
        check::collectRecords(reader);
    if (!reader.complete()) {
        std::printf("stress: repro %s -> invalid trace: %s\n",
                    opt.repro.c_str(), reader.error().c_str());
        return kReproInvalid;
    }

    mem::FaultPlan plan;
    const mem::FaultPlan *fault = nullptr;
    if (opt.inject != mem::FaultPlan::Kind::None) {
        plan.kind = opt.inject;
        plan.period = opt.injectPeriod;
        plan.salt = opt.injectSalt;
        fault = &plan;
    }

    const trace::TraceHeader &header = reader.header();
    const std::string invariant =
        check::violatedInvariant(header, records, fault);
    if (invariant.empty()) {
        std::printf("stress: repro %s (%zu records, cpus=%u/l2x%u"
                    "%s%s) -> CLEAN: invariant did not re-fire\n",
                    opt.repro.c_str(), records.size(),
                    header.totalCpus, header.cpusPerL2,
                    fault ? " inject=" : "",
                    fault ? mem::toString(opt.inject) : "");
        return kReproClean;
    }
    std::printf("stress: repro %s (%zu records, cpus=%u/l2x%u%s%s) "
                "-> re-fired %s\n",
                opt.repro.c_str(), records.size(), header.totalCpus,
                header.cpusPerL2, fault ? " inject=" : "",
                fault ? mem::toString(opt.inject) : "",
                invariant.c_str());
    return kReproRefired;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    if (!opt.repro.empty())
        return replayRepro(opt);

    const auto t0 = std::chrono::steady_clock::now();
    const auto overBudget = [&] {
        if (opt.budget <= 0.0)
            return false;
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count() > opt.budget;
    };

    Tally tally;
    for (unsigned i = 0; i < opt.seeds; ++i) {
        const std::uint64_t seed = opt.seed0 + i;
        if (overBudget()) {
            tally.skipped = opt.seeds - i;
            break;
        }
        if (opt.mode == "synthetic" || opt.mode == "both")
            runSyntheticSeed(seed, opt, tally);
        if (opt.mode == "workload" || opt.mode == "both")
            runWorkloadSeed(seed, opt, tally);
    }

    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("stress: %u runs (%u clean, %u caught, %u failures) "
                "in %.1f s%s\n",
                tally.ran, tally.clean, tally.caught, tally.failures,
                elapsed,
                tally.skipped
                    ? (" [" + std::to_string(tally.skipped) +
                       " seeds skipped: budget exhausted]")
                          .c_str()
                    : "");
    if (tally.skipped && tally.ran == 0) {
        std::printf("stress: budget too small to run any seed\n");
        return 1;
    }
    return tally.failures ? 1 : 0;
}
