/**
 * @file
 * End-to-end System integration tests: time, accounting conservation,
 * safepoints, measurement windows.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/metrics_io.hh"
#include "core/system.hh"
#include "mem/access_observer.hh"

using namespace middlesim;
using core::BuiltWorkload;
using core::ExperimentSpec;
using core::System;
using core::WorkloadKind;

namespace
{

ExperimentSpec
tinySpec(WorkloadKind kind, unsigned cpus, unsigned scale = 0)
{
    ExperimentSpec spec;
    spec.workload = kind;
    spec.appCpus = cpus;
    spec.scale = scale;
    spec.warmup = 2'000'000;
    spec.measure = 6'000'000;
    spec.seed = 11;
    return spec;
}

/** Pass-through observer: counts references and changes nothing. */
class CountingObserver : public mem::AccessObserver
{
  public:
    void preAccess(const mem::MemRef &, sim::Tick) override { ++refs; }
    void postAccess(const mem::MemRef &, const mem::AccessResult &,
                    sim::Tick) override
    {
    }

    std::uint64_t refs = 0;
};

// Each stats record's counters table must name every field: a new
// field breaks the build here until the table, and so the lockstep
// comparison, the RunResult payload and the metrics export, covers it.
template <typename Stats>
constexpr bool tableCoversRecord =
    std::size(Stats::counters) * sizeof(std::uint64_t) == sizeof(Stats);
static_assert(tableCoversRecord<mem::CacheStats>);
static_assert(tableCoversRecord<cpu::CpiBreakdown>);
static_assert(tableCoversRecord<os::ModeBreakdown>);

/** Every counter of a stats record, in table order. */
template <typename Stats>
std::vector<std::uint64_t>
fields(const Stats &s)
{
    std::vector<std::uint64_t> values;
    for (const auto &[name, counter] : Stats::counters)
        values.push_back(s.*counter);
    return values;
}

/** One System of a lockstep pair, optionally observed. */
struct LockstepSide
{
    LockstepSide(const ExperimentSpec &spec, CountingObserver *obs)
        : system(core::buildSystem(spec, workload))
    {
        system->memory().setAccessObserver(obs);
    }

    BuiltWorkload workload;
    std::unique_ptr<System> system;
};

/** Require two Systems to agree on every per-CPU statistic. */
void
expectSameCpus(System &plain, System &observed)
{
    EXPECT_EQ(plain.now(), observed.now());
    for (unsigned c = 0; c < plain.config().machine.totalCpus; ++c) {
        SCOPED_TRACE("cpu " + std::to_string(c));
        EXPECT_EQ(plain.core(c).now(), observed.core(c).now());
        EXPECT_EQ(fields(plain.memory().cpuStats(c)),
                  fields(observed.memory().cpuStats(c)));
        EXPECT_EQ(fields(plain.core(c).breakdown()),
                  fields(observed.core(c).breakdown()));
        EXPECT_EQ(fields(plain.scheduler().modes(c)),
                  fields(observed.scheduler().modes(c)));
    }
}

/**
 * Run `spec` plain and with a pass-through access observer, in the
 * same steps, and require identical results. The observer forces
 * every reference through Hierarchy::access(); the plain run applies
 * L1I hits in place. The observer must also see every reference the
 * plain run counted.
 */
void
expectLockstep(const ExperimentSpec &spec)
{
    CountingObserver obs;
    LockstepSide plain(spec, nullptr);
    LockstepSide observed(spec, &obs);

    plain.system->run(spec.warmup);
    observed.system->run(spec.warmup);
    expectSameCpus(*plain.system, *observed.system);

    plain.system->beginMeasurement();
    observed.system->beginMeasurement();
    obs.refs = 0;
    for (unsigned step = 0; step < 3; ++step) {
        plain.system->run(spec.measure / 3);
        observed.system->run(spec.measure / 3);
        SCOPED_TRACE("measure step " + std::to_string(step));
        expectSameCpus(*plain.system, *observed.system);
    }
    EXPECT_EQ(plain.system->txTotal(), observed.system->txTotal());

    const mem::CacheStats all = plain.system->memory().aggregateAll();
    EXPECT_EQ(obs.refs,
              all.ifetches + all.loads + all.stores + all.atomics);
    EXPECT_GT(all.l1iHits, 0u);

    std::ostringstream plain_json, observed_json;
    core::collectMetrics(*plain.system, spec, plain.workload)
        .writeJson(plain_json);
    core::collectMetrics(*observed.system, spec, observed.workload)
        .writeJson(observed_json);
    EXPECT_EQ(plain_json.str(), observed_json.str());
}

ExperimentSpec
lockstepSpec()
{
    ExperimentSpec spec;
    spec.warmup = 1'000'000;
    spec.measure = 3'000'000;
    spec.seed = 5;
    return spec;
}

} // namespace

TEST(System, TimeAdvancesInWindows)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 2);
    BuiltWorkload w;
    auto sys = core::buildSystem(spec, w);
    EXPECT_EQ(sys->now(), 0u);
    sys->run(100'000);
    EXPECT_GE(sys->now(), 100'000u);
    // Whole windows only.
    EXPECT_EQ(sys->now() % sys->config().window, 0u);
}

TEST(System, TransactionsComplete)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 2);
    BuiltWorkload w;
    auto sys = core::buildSystem(spec, w);
    sys->run(5'000'000);
    EXPECT_GT(sys->txTotal(), 100u);
    std::uint64_t by_type = 0;
    for (unsigned t = 0; t < workload::jbbNumTxTypes; ++t)
        by_type += sys->txCount(t);
    EXPECT_EQ(by_type, sys->txTotal());
}

TEST(System, ModeTimeIsConserved)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 4);
    BuiltWorkload w;
    auto sys = core::buildSystem(spec, w);
    sys->run(spec.warmup);
    sys->beginMeasurement();
    sys->run(spec.measure);
    // Per app CPU, accounted modes cover the measured wall time
    // (small slack for ops straddling the final window).
    const os::ModeBreakdown modes = sys->appModes();
    const double per_cpu =
        static_cast<double>(modes.total()) / spec.appCpus;
    EXPECT_NEAR(per_cpu, static_cast<double>(spec.measure),
                0.05 * static_cast<double>(spec.measure));
}

TEST(System, CpiBucketsSumToCoreCycles)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 2);
    BuiltWorkload w;
    auto sys = core::buildSystem(spec, w);
    sys->run(4'000'000);
    for (unsigned c = 0; c < 2; ++c) {
        // Idle/window synchronization advances the clock without
        // charging CPI buckets, so buckets bound the clock from
        // below and stay close to it on busy CPUs.
        const auto &b = sys->core(c).breakdown();
        EXPECT_LE(b.totalCycles(), sys->core(c).now());
        EXPECT_GT(b.totalCycles(),
                  static_cast<sim::Tick>(
                      0.5 * static_cast<double>(sys->core(c).now())));
    }
}

TEST(System, MeasurementResetsStatistics)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 2);
    BuiltWorkload w;
    auto sys = core::buildSystem(spec, w);
    sys->run(3'000'000);
    EXPECT_GT(sys->txTotal(), 0u);
    sys->beginMeasurement();
    EXPECT_EQ(sys->txTotal(), 0u);
    EXPECT_EQ(sys->appCpi().instructions, 0u);
    EXPECT_EQ(sys->appModes().total(), 0u);
    EXPECT_EQ(sys->measuredTicks(), 0u);
}

TEST(System, MeasurementZeroesTheLiveMetrics)
{
    // The counts that move on every access or allocation (coherence,
    // directory, scheduler migrations, JVM allocation) are plain
    // fields the layers' resets zero; beginMeasurement() must reach
    // every one, and clear the journal and the series samples, while
    // each machine keeps exporting the same names.
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 4);
    spec.protocol = sim::CoherenceProtocol::DirectoryMesi;
    spec.numaNodes = 4;
    spec.topology = sim::Topology::Mesh;
    spec.dirOccupancy = 2;
    BuiltWorkload w;
    auto sys = core::buildSystem(spec, w);
    sys->run(3'000'000);
    const sim::MetricSnapshot warm = core::collectMetrics(*sys, spec, w);
    sys->beginMeasurement();
    const sim::MetricSnapshot zero = core::collectMetrics(*sys, spec, w);

    std::vector<std::string> live = {
        "mem.coherence.invalidations",
        "mem.coherence.l1_back_invalidations",
        "mem.coherence.copybacks_supplied",
        "os.sched.migrations",
        "jvm.alloc.bytes",
        "jvm.tlab.refills",
    };
    const auto add = [&](const auto &table) {
        for (const auto &[name, counter] : table)
            live.push_back(name);
    };
    add(mem::DirectoryStats::counters);
    add(mem::DirectoryStats::meshCounters);
    add(mem::DirectoryStats::contendedCounters);
    for (const char *name : mem::DirectoryStats::missLatencyNames)
        live.push_back(name);
    for (const std::string &name : live) {
        ASSERT_TRUE(warm.counters.count(name)) << name;
        EXPECT_EQ(zero.counters.at(name), 0u) << name;
    }
    EXPECT_GT(warm.counters.at("mem.coherence.invalidations"), 0u);
    EXPECT_GT(warm.counters.at("mem.dir.nacks"), 0u);
    EXPECT_GT(warm.counters.at("mem.numa.mesh.y_hops"), 0u);
    EXPECT_GT(warm.counters.at("jvm.alloc.bytes"), 0u);

    EXPECT_EQ(zero.histograms.at("jvm.gc.pause_kcycles").count, 0u);
    ASSERT_EQ(zero.series.size(), 3u);
    for (const auto &[name, data] : zero.series) {
        EXPECT_FALSE(warm.series.at(name).values.empty()) << name;
        EXPECT_TRUE(data.values.empty()) << name;
        EXPECT_EQ(data.period, warm.series.at(name).period) << name;
    }
    EXPECT_TRUE(zero.events.empty());
    EXPECT_EQ(zero.eventsDropped, 0u);
}

TEST(System, GarbageCollectionsHappen)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 4);
    // Small young generation: collections within the test budget.
    spec.sys.jvm.heap.newGenBytes = 4ULL << 20;
    spec.sys.jvm.heap.overshootBytes = 4ULL << 20;
    BuiltWorkload w;
    auto sys = core::buildSystem(spec, w);
    sys->run(30'000'000);
    EXPECT_GE(sys->vm().stats().minorCollections +
                  sys->vm().stats().majorCollections,
              1u);
    EXPECT_GT(sys->vm().stats().totalPause, 0u);
    // Collections leave the young generation empty.
    EXPECT_FALSE(sys->gcActive());
}

TEST(System, GcIdleAccountedOnAppCpus)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 4);
    spec.sys.jvm.heap.newGenBytes = 4ULL << 20;
    spec.sys.jvm.heap.overshootBytes = 4ULL << 20;
    BuiltWorkload w;
    auto sys = core::buildSystem(spec, w);
    sys->run(30'000'000);
    if (sys->vm().stats().minorCollections > 0) {
        EXPECT_GT(sys->appModes().gcIdle, 0u);
    }
}

TEST(System, UniprocessorConfiguration)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 1, 1);
    spec.totalCpus = 1;
    BuiltWorkload w;
    auto sys = core::buildSystem(spec, w);
    sys->run(4'000'000);
    EXPECT_GT(sys->txTotal(), 10u);
    // No peers: cache-to-cache transfers are impossible.
    EXPECT_EQ(sys->appCacheStats().c2cTransfers, 0u);
}

TEST(System, OsBackgroundProducesBaselineSharing)
{
    // One app CPU on a 16-CPU machine: OS housekeepers on the other
    // 15 CPUs still cause copybacks (Figure 8's nonzero origin).
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 1, 1);
    BuiltWorkload w;
    auto sys = core::buildSystem(spec, w);
    sys->run(10'000'000);
    EXPECT_GT(sys->memory().aggregateAll().c2cTransfers, 0u);
}

TEST(System, ThroughputScalesWithCpus)
{
    const auto run_at = [](unsigned cpus) {
        ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, cpus);
        return core::runExperiment(spec).throughput;
    };
    const double t1 = run_at(1);
    const double t4 = run_at(4);
    EXPECT_GT(t4, 2.0 * t1);
}

TEST(System, SeedsAreReproducible)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 2);
    const auto a = core::runExperiment(spec);
    const auto b = core::runExperiment(spec);
    EXPECT_EQ(a.txTotal, b.txTotal);
    EXPECT_EQ(a.cpi.instructions, b.cpi.instructions);
    EXPECT_EQ(a.cache.l2Misses(), b.cache.l2Misses());
}

TEST(System, DifferentSeedsDiffer)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 2);
    const auto a = core::runExperiment(spec);
    spec.seed = 999;
    const auto b = core::runExperiment(spec);
    EXPECT_NE(a.cpi.instructions, b.cpi.instructions);
}

TEST(Experiment, ResolvedScaleDefaults)
{
    core::ExperimentSpec spec;
    spec.workload = WorkloadKind::SpecJbb;
    spec.appCpus = 6;
    EXPECT_EQ(spec.resolvedScale(), 6u);
    spec.workload = WorkloadKind::Ecperf;
    EXPECT_EQ(spec.resolvedScale(), 8u);
    spec.scale = 3;
    EXPECT_EQ(spec.resolvedScale(), 3u);
}

TEST(Experiment, RunResultDerivedMetrics)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 2);
    const auto r = core::runExperiment(spec);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GT(r.pathLength(), 1000.0);
    EXPECT_GE(r.gcFraction(), 0.0);
    EXPECT_LE(r.gcFraction(), 1.0);
    EXPECT_GT(r.cpi.cpi(), 1.0);
    EXPECT_LT(r.cpi.cpi(), 5.0);
}

TEST(Experiment, RepeatedRunsAndSummary)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 2);
    const auto runs = core::runGrid({core::repeatedSpec(spec, 0),
                                     core::repeatedSpec(spec, 1),
                                     core::repeatedSpec(spec, 2)});
    ASSERT_EQ(runs.size(), 3u);
    const auto stat = core::summarize(
        runs, [](const core::RunResult &r) { return r.throughput; });
    EXPECT_EQ(stat.count(), 3u);
    EXPECT_GT(stat.mean(), 0.0);
    // Different seeds: nonzero but modest variability.
    EXPECT_GT(stat.stddev(), 0.0);
    EXPECT_LT(stat.stddev(), 0.3 * stat.mean());
}

TEST(Experiment, EcperfEndToEnd)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::Ecperf, 2, 2);
    const auto r = core::runExperiment(spec);
    EXPECT_GT(r.txTotal, 20u);
    EXPECT_GT(r.beanHitRate, 0.0);
    // ECperf spends real system time; SPECjbb's is near zero.
    EXPECT_GT(r.modes.fraction(r.modes.system), 0.02);
}

TEST(Experiment, SharedCacheConfigRuns)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::SpecJbb, 4);
    spec.totalCpus = 4;
    spec.cpusPerL2 = 4;
    const auto r = core::runExperiment(spec);
    EXPECT_GT(r.txTotal, 50u);
    EXPECT_EQ(r.cache.c2cTransfers, 0u); // single shared L2
}

TEST(Lockstep, PlainRunMatchesPerReferenceRunOnE6000)
{
    expectLockstep(lockstepSpec());
}

TEST(Lockstep, PlainRunMatchesPerReferenceRunOnContendedMesh)
{
    ExperimentSpec spec = lockstepSpec();
    spec.appCpus = 16;
    spec.totalCpus = 16;
    spec.protocol = sim::CoherenceProtocol::DirectoryMesi;
    spec.numaNodes = 4;
    spec.topology = sim::Topology::Mesh;
    spec.dirOccupancy = 4;
    expectLockstep(spec);
}

TEST(Lockstep, PlainRunMatchesPerReferenceRunOnSharedL2s)
{
    ExperimentSpec spec = lockstepSpec();
    spec.cpusPerL2 = 2;
    expectLockstep(spec);
}

TEST(Lockstep, PlainRunMatchesPerReferenceRunOnEcperf)
{
    ExperimentSpec spec = lockstepSpec();
    spec.workload = WorkloadKind::Ecperf;
    spec.appCpus = 4;
    spec.totalCpus = 8;
    expectLockstep(spec);
}
