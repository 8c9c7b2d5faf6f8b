/**
 * @file
 * middlesim_explore: exhaustive coherence-interleaving explorer.
 *
 * Enumerates every schedulable interleaving of a small-geometry
 * per-CPU reference stream (DPOR-pruned; --no-dpor for the naive
 * enumeration) with all memory invariant checkers armed on every
 * path, and emits a `middlesim-explore-v1` JSON report. With
 * --inject=<fault> a deterministic mem::FaultPlan defect (period 1,
 * salt 0 unless overridden) is armed and MUST be found — not
 * probabilistically, but because some interleaving that triggers it
 * is guaranteed to be explored; the violating schedule is ddmin-shrunk
 * and written as a standard `.mst` repro replayable with
 * `middlesim_stress --repro=...` or `middlesim-trace replay`.
 *
 * Exit status: 0 = explored as expected (clean without --inject,
 * found with --inject); 1 = a real protocol bug (violation without
 * --inject), an injected defect the exploration missed, or bad usage.
 */

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "check/checker.hh"
#include "check/shrink.hh"
#include "explore/explorer.hh"
#include "mem/fault.hh"
#include "sim/args.hh"
#include "sim/config.hh"
#include "sim/log.hh"

using namespace middlesim;

namespace
{

struct Options
{
    unsigned cpus = 2;
    unsigned cpusPerL2 = 1;
    sim::CoherenceProtocol protocol = sim::CoherenceProtocol::SnoopBus;
    unsigned numaNodes = 1;
    sim::Topology topology = sim::Topology::Ring;
    unsigned dirOccupancy = 0;
    unsigned blocks = 2;
    /** Total references, dealt round-robin over the CPUs. */
    unsigned refs = 12;
    std::uint64_t seed = 1;
    unsigned depthBudget = 0;
    std::uint64_t maxExecutions = 0;
    unsigned jobs = 1;
    bool dpor = true;
    bool timing = false;
    mem::FaultPlan::Kind inject = mem::FaultPlan::Kind::None;
    std::uint64_t injectPeriod = 1;
    std::uint64_t injectSalt = 0;
    /** Directory for the minimized `.mst` repro ("" = don't write). */
    std::string out;
    /** JSON report path ("" = stdout). */
    std::string report;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto num = [&](std::uint64_t lo = 0,
                             std::uint64_t hi = UINT_MAX) {
            return sim::parseUintFlag("middlesim_explore", arg, lo, hi);
        };
        if (arg.rfind("--cpus=", 0) == 0) {
            opt.cpus = static_cast<unsigned>(num(1, 8));
        } else if (arg.rfind("--cpus-per-l2=", 0) == 0) {
            opt.cpusPerL2 = static_cast<unsigned>(num(1));
        } else if (arg.rfind("--protocol=", 0) == 0) {
            if (!sim::parseProtocol(arg.substr(11), opt.protocol))
                fatal("middlesim_explore: unknown --protocol value '",
                      arg.substr(11), "' (want snoop or directory)");
        } else if (arg.rfind("--numa-nodes=", 0) == 0) {
            opt.numaNodes = static_cast<unsigned>(num(1));
        } else if (arg.rfind("--topology=", 0) == 0) {
            if (!sim::parseTopology(arg.substr(11), opt.topology))
                fatal("middlesim_explore: unknown --topology value '",
                      arg.substr(11), "' (want ring or mesh)");
        } else if (arg.rfind("--dir-occupancy=", 0) == 0) {
            opt.dirOccupancy = static_cast<unsigned>(num());
        } else if (arg.rfind("--blocks=", 0) == 0) {
            opt.blocks = static_cast<unsigned>(num(1));
        } else if (arg.rfind("--refs=", 0) == 0) {
            opt.refs = static_cast<unsigned>(num());
        } else if (arg.rfind("--seed=", 0) == 0) {
            opt.seed = num(0, UINT64_MAX);
        } else if (arg.rfind("--depth-budget=", 0) == 0) {
            opt.depthBudget = static_cast<unsigned>(num());
        } else if (arg.rfind("--max-executions=", 0) == 0) {
            opt.maxExecutions = num(0, UINT64_MAX);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opt.jobs = static_cast<unsigned>(num(1));
        } else if (arg == "--no-dpor") {
            opt.dpor = false;
        } else if (arg == "--timing") {
            opt.timing = true;
        } else if (arg.rfind("--inject=", 0) == 0) {
            if (!mem::parseFaultKind(arg.substr(9), opt.inject))
                fatal("middlesim_explore: unknown --inject value '",
                      arg.substr(9), "' (want ", mem::faultKindNames,
                      ")");
        } else if (arg.rfind("--inject-period=", 0) == 0) {
            opt.injectPeriod = num(0, UINT64_MAX);
        } else if (arg.rfind("--inject-salt=", 0) == 0) {
            opt.injectSalt = num(0, UINT64_MAX);
        } else if (arg.rfind("--out=", 0) == 0) {
            opt.out = arg.substr(6);
        } else if (arg.rfind("--report=", 0) == 0) {
            opt.report = arg.substr(9);
        } else {
            fatal("middlesim_explore: unknown flag '", arg,
                  "' (supported: --cpus=N, --cpus-per-l2=N, "
                  "--protocol=snoop|directory, --numa-nodes=N, "
                  "--topology=ring|mesh, --dir-occupancy=N, "
                  "--blocks=N, --refs=N, --seed=N, --depth-budget=N, "
                  "--max-executions=N, --jobs=N, --no-dpor, --timing, "
                  "--inject=KIND, --inject-period=N, --inject-salt=N, "
                  "--out=DIR, --report=FILE)");
        }
    }
    if (opt.cpus % opt.cpusPerL2 != 0)
        fatal("middlesim_explore: --cpus-per-l2 must divide --cpus");
    const unsigned groups = opt.cpus / opt.cpusPerL2;
    if (groups % opt.numaNodes != 0)
        fatal("middlesim_explore: --numa-nodes must divide the L2 "
              "group count (", groups, ")");
    if (opt.numaNodes != 1 &&
        opt.protocol != sim::CoherenceProtocol::DirectoryMesi)
        fatal("middlesim_explore: --numa-nodes>1 needs "
              "--protocol=directory");
    if (opt.inject == mem::FaultPlan::Kind::DropInvalAck &&
        opt.protocol != sim::CoherenceProtocol::DirectoryMesi)
        fatal("middlesim_explore: --inject=drop-ack is a directory "
              "defect; add --protocol=directory");
    if ((opt.topology != sim::Topology::Ring ||
         opt.dirOccupancy != 0) &&
        opt.protocol != sim::CoherenceProtocol::DirectoryMesi)
        fatal("middlesim_explore: --topology=mesh/--dir-occupancy "
              "need --protocol=directory");
    if (opt.inject == mem::FaultPlan::Kind::NackStorm &&
        opt.dirOccupancy == 0)
        fatal("middlesim_explore: --inject=nack-storm is a contended-"
              "home defect; add --protocol=directory "
              "--dir-occupancy=N (N >= 1)");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    check::setCheckingEnabled(false);

    const trace::TraceHeader header = explore::exploreHeader(
        opt.cpus, opt.cpusPerL2, opt.seed, opt.protocol,
        opt.numaNodes, opt.topology, opt.dirOccupancy);
    const explore::Streams streams =
        explore::makeStreams(opt.cpus, opt.blocks, opt.refs, opt.seed);

    mem::FaultPlan plan;
    const mem::FaultPlan *fault = nullptr;
    const bool inject = opt.inject != mem::FaultPlan::Kind::None;
    if (inject) {
        plan.kind = opt.inject;
        plan.period = opt.injectPeriod;
        plan.salt = opt.injectSalt;
        fault = &plan;
    }

    explore::ExploreOptions eopts;
    eopts.depthBudget = opt.depthBudget;
    eopts.dpor = opt.dpor;
    eopts.jobs = opt.jobs;
    eopts.maxExecutionsPerBranch = opt.maxExecutions;

    const auto t0 = std::chrono::steady_clock::now();
    const explore::ExploreResult result =
        explore::explore(header, streams, fault, eopts);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    explore::ReportConfig rc;
    rc.cpus = opt.cpus;
    rc.cpusPerL2 = opt.cpusPerL2;
    rc.protocol = opt.protocol;
    rc.numaNodes = opt.numaNodes;
    rc.topology = opt.topology;
    rc.dirOccupancy = opt.dirOccupancy;
    rc.blocks = opt.blocks;
    rc.refs = opt.refs;
    rc.seed = opt.seed;
    rc.inject = mem::toString(opt.inject);
    rc.depthBudget = opt.depthBudget;
    rc.dpor = opt.dpor;
    if (opt.timing)
        rc.wallSeconds = wall;

    if (result.foundViolation && !opt.out.empty()) {
        check::ShrinkResult sr;
        sr.reproduced = true;
        sr.invariant = result.invariant;
        sr.records = result.repro;
        rc.reproPath =
            check::writeRepro(opt.out, opt.seed, header, sr);
        if (rc.reproPath.empty())
            warn("middlesim_explore: cannot write repro into '",
                 opt.out, "'");
    }

    const std::string json = explore::reportJson(result, rc);
    if (opt.report.empty()) {
        std::fputs(json.c_str(), stdout);
    } else {
        std::ofstream file(opt.report,
                           std::ios::binary | std::ios::trunc);
        file << json;
        file.flush();
        if (!file.good())
            fatal("middlesim_explore: cannot write report '",
                  opt.report, "'");
    }

    std::fprintf(
        stderr,
        "explore: %llu interleavings (naive %llu%s, %.3gx pruned) "
        "%llu refs checked in %.2f s%s\n",
        static_cast<unsigned long long>(result.stats.executions),
        static_cast<unsigned long long>(result.naive),
        result.naiveSaturated ? "+" : "",
        result.pruningRatio(),
        static_cast<unsigned long long>(result.stats.refsChecked),
        wall, result.stats.truncated ? " [TRUNCATED]" : "");
    if (result.foundViolation) {
        std::fprintf(
            stderr,
            "explore: VIOLATION %s (%s)\n"
            "explore: schedule %zu refs, repro %zu refs%s%s\n",
            result.invariant.c_str(), result.detail.c_str(),
            result.schedule.size(), result.repro.size(),
            rc.reproPath.empty() ? "" : " -> ",
            rc.reproPath.c_str());
        if (!rc.reproPath.empty() && inject) {
            std::fprintf(
                stderr,
                "explore: replay: middlesim_stress --repro=%s "
                "--inject=%s --inject-period=%llu "
                "--inject-salt=%llu\n",
                rc.reproPath.c_str(), mem::toString(opt.inject),
                static_cast<unsigned long long>(opt.injectPeriod),
                static_cast<unsigned long long>(opt.injectSalt));
        } else if (!rc.reproPath.empty()) {
            std::fprintf(stderr,
                         "explore: replay: middlesim_stress "
                         "--repro=%s\n",
                         rc.reproPath.c_str());
        }
    }

    if (inject && !result.foundViolation) {
        std::fprintf(stderr,
                     "explore: injected fault %s NOT found%s\n",
                     mem::toString(opt.inject),
                     result.stats.truncated
                         ? " (exploration truncated)"
                         : " — checker or explorer bug");
        return 1;
    }
    if (!inject && result.foundViolation)
        return 1;
    return 0;
}
