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
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

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
    bool noDpor = false;
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
    const sim::OptionTable table = {
        {"--cpus", "", "N", "CPUs (default 2)", sim::setUint(opt.cpus, 1, 8)},
        {"--cpus-per-l2", "", "N", "CPUs per L2 (default 1)",
         sim::setUint(opt.cpusPerL2, 1)},
        {"--protocol", "", "snoop|directory", "coherence protocol",
         sim::setChoice(opt.protocol, sim::parseProtocol,
                        "snoop or directory")},
        {"--numa-nodes", "", "N", "NUMA nodes (directory only)",
         sim::setUint(opt.numaNodes, 1)},
        {"--topology", "", "ring|mesh", "node interconnect (directory only)",
         sim::setChoice(opt.topology, sim::parseTopology, "ring or mesh")},
        {"--dir-occupancy", "", "N", "slots per home (directory only)",
         sim::setUint(opt.dirOccupancy)},
        {"--blocks", "", "N", "distinct blocks (default 2)",
         sim::setUint(opt.blocks, 1)},
        {"--refs", "", "N", "references over all CPUs (default 12)",
         sim::setUint(opt.refs)},
        {"--seed", "", "N", "stream seed (default 1)", sim::setU64(opt.seed)},
        {"--depth-budget", "", "N", "longest schedule prefix (0 = all)",
         sim::setUint(opt.depthBudget)},
        {"--max-executions", "", "N", "paths per root subtree (0 = all)",
         sim::setU64(opt.maxExecutions)},
        {"--jobs", "", "N", "threads over root subtrees (default 1)",
         sim::setUint(opt.jobs, 1)},
        {"--no-dpor", "", "", "enumerate without DPOR pruning",
         sim::setSwitch(opt.noDpor)},
        {"--timing", "", "", "report wall-clock seconds",
         sim::setSwitch(opt.timing)},
        {"--inject", "", "KIND", "arm a fault the exploration must find",
         sim::setChoice(opt.inject, mem::parseFaultKind,
                        mem::faultKindNames)},
        {"--inject-period", "", "N", "fault period (default 1)",
         sim::setU64(opt.injectPeriod)},
        {"--inject-salt", "", "N", "fault salt (default 0)",
         sim::setU64(opt.injectSalt)},
        {"--out", "", "DIR", "write the minimized .mst repro into DIR",
         sim::setText(opt.out)},
        {"--report", "", "FILE", "write the JSON report to FILE",
         sim::setText(opt.report)},
    };
    sim::parseOptions("middlesim_explore", table, argc, argv);
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
    eopts.dpor = !opt.noDpor;
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
    rc.dpor = !opt.noDpor;
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
