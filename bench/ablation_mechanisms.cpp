/**
 * @file
 * Ablation study: which modeled mechanism produces which paper
 * behavior?
 *
 * DESIGN.md attributes each reproduced observation to a specific
 * mechanism (TTL bean cache -> super-linear scaling, kernel netstack
 * contention -> system-time growth, OS background activity -> the
 * 1-CPU copyback floor, bus utilization -> CPI growth, access
 * locality -> SPECjbb's moderate miss rates). This bench disables
 * each mechanism in isolation and verifies that the corresponding
 * behavior weakens or disappears — i.e., the reproduction is causal,
 * not coincidental.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "sim/args.hh"

using namespace middlesim;
using core::ExperimentSpec;
using core::RunResult;
using core::WorkloadKind;

namespace
{

int failures = 0;

void
verdict(const char *what, bool pass, double base, double ablated)
{
    std::printf("  [%s] %-52s base=%.3f ablated=%.3f\n",
                pass ? "PASS" : "FAIL", what, base, ablated);
    if (!pass)
        ++failures;
}

ExperimentSpec
spec(WorkloadKind kind, unsigned cpus, double ts)
{
    ExperimentSpec s;
    s.workload = kind;
    s.appCpus = cpus;
    s.seed = 17;
    s.warmup = static_cast<sim::Tick>(15e6 * ts);
    s.measure = static_cast<sim::Tick>(35e6 * ts);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    sim::parseOptions("ablation_mechanisms",
                      {{"", "MIDDLESIM_QUICK", "",
                        "1: half-length intervals",
                        sim::setSwitch(quick)}},
                      argc, argv);
    const double ts = quick ? 0.5 : 1.0;

    std::printf("=== ablation: mechanism -> behavior ===\n\n");

    // 1. Object-level (bean) cache -> ECperf path-length reduction.
    {
        ExperimentSpec base = spec(WorkloadKind::Ecperf, 8, ts);
        ExperimentSpec ab = base;
        ab.ecperf.beanTtl = 1; // cache entries expire immediately
        const RunResult rb = core::runExperiment(base);
        const RunResult ra = core::runExperiment(ab);
        std::printf("1. disable the object-level bean cache "
                    "(Section 4.4 mechanism)\n");
        verdict("bean hit rate collapses", ra.beanHitRate < 0.02,
                rb.beanHitRate, ra.beanHitRate);
        verdict("path length per BBop rises",
                ra.pathLength() > 1.05 * rb.pathLength(),
                rb.pathLength(), ra.pathLength());
        verdict("throughput drops", ra.throughput < rb.throughput,
                rb.throughput, ra.throughput);
    }

    // 2. Kernel netstack contention -> ECperf system-time growth.
    {
        ExperimentSpec base = spec(WorkloadKind::Ecperf, 15, ts);
        ExperimentSpec ab = base;
        ab.sys.spinBase = 0; // contended kernel mutexes cost nothing
        const RunResult rb = core::runExperiment(base);
        const RunResult ra = core::runExperiment(ab);
        const double sys_b = rb.modes.fraction(rb.modes.system);
        const double sys_a = ra.modes.fraction(ra.modes.system);
        std::printf("\n2. remove kernel lock spin cost "
                    "(Figure 5 system-time driver)\n");
        verdict("system-time share shrinks at 15 CPUs",
                sys_a < sys_b - 0.03, sys_b, sys_a);
    }

    // 3. OS background activity -> nonzero c2c at one app CPU.
    {
        ExperimentSpec base = spec(WorkloadKind::SpecJbb, 1, ts);
        base.scale = 1;
        ExperimentSpec ab = base;
        ab.sys.osBackground = false;
        const RunResult rb = core::runExperiment(base);
        const RunResult ra = core::runExperiment(ab);
        std::printf("\n3. remove OS background threads "
                    "(Figure 8's 1-CPU floor)\n");
        verdict("copybacks vanish without the OS",
                ra.cache.c2cTransfers == 0 &&
                    rb.cache.c2cTransfers > 0,
                static_cast<double>(rb.cache.c2cTransfers),
                static_cast<double>(ra.cache.c2cTransfers));
    }

    // 4. Bus contention -> CPI growth at scale.
    {
        ExperimentSpec base = spec(WorkloadKind::SpecJbb, 15, ts);
        ExperimentSpec ab = base;
        ab.sys.busContention = false;
        const RunResult rb = core::runExperiment(base);
        const RunResult ra = core::runExperiment(ab);
        std::printf("\n4. remove bus queueing "
                    "(Figure 6 CPI-growth driver)\n");
        verdict("CPI falls without bus contention",
                ra.cpi.cpi() < rb.cpi.cpi(), rb.cpi.cpi(),
                ra.cpi.cpi());
    }

    // 5. Warehouse access locality -> SPECjbb's moderate miss rate.
    {
        ExperimentSpec base = spec(WorkloadKind::SpecJbb, 8, ts);
        ExperimentSpec ab = base;
        ab.jbb.hotLeafProb = 0.0; // uniform table access
        ab.jbb.warmLeafProb = 0.0;
        const RunResult rb = core::runExperiment(base);
        const RunResult ra = core::runExperiment(ab);
        auto mpki = [](const RunResult &r) {
            return 1000.0 * static_cast<double>(r.cache.dataMisses) /
                   static_cast<double>(r.cpi.instructions);
        };
        std::printf("\n5. remove table access locality "
                    "(working sets 'fit well in 1 MB' claim)\n");
        verdict("data miss rate explodes under uniform access",
                mpki(ra) > 1.3 * mpki(rb), mpki(rb), mpki(ra));
    }

    // 6. Scheduler affinity -> private-cache effectiveness.
    {
        ExperimentSpec base = spec(WorkloadKind::SpecJbb, 8, ts);
        base.totalCpus = 8;
        base.scale = 25;
        ExperimentSpec ab = base;
        ab.sys.rechoose = 0; // free migration
        const RunResult rb = core::runExperiment(base);
        const RunResult ra = core::runExperiment(ab);
        auto mpki = [](const RunResult &r) {
            return 1000.0 * static_cast<double>(r.cache.dataMisses) /
                   static_cast<double>(r.cpi.instructions);
        };
        std::printf("\n6. remove scheduler cache affinity "
                    "(Figure 16 substrate)\n");
        verdict("migration churn raises the miss rate",
                mpki(ra) > 1.05 * mpki(rb), mpki(rb), mpki(ra));
    }

    std::printf("\n%s\n", failures == 0
                              ? "=> all ablations behave as designed"
                              : "=> SOME ABLATIONS FAILED");
    return failures == 0 ? 0 : 1;
}
