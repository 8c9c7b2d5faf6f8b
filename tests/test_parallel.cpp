/**
 * @file
 * Parallel experiment runner tests: thread-pool mechanics, the
 * determinism guarantee of runGrid over repeated specs (jobs=N is
 * byte-identical to jobs=1), and the metadata mask-width guard.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/metrics_io.hh"
#include "mem/hierarchy.hh"
#include "sim/threadpool.hh"

using namespace middlesim;

namespace
{

/** `runs` repetitions of `spec`, seeded as every figure seeds them. */
std::vector<core::ExperimentSpec>
repetitions(const core::ExperimentSpec &spec, unsigned runs)
{
    std::vector<core::ExperimentSpec> specs;
    for (unsigned r = 0; r < runs; ++r)
        specs.push_back(core::repeatedSpec(spec, r));
    return specs;
}

/** Field-by-field bitwise equality of two run results. */
void
expectIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.txTotal, b.txTotal);
    EXPECT_EQ(a.txByType, b.txByType);
    EXPECT_EQ(a.throughput, b.throughput);

    EXPECT_EQ(a.cpi.instructions, b.cpi.instructions);
    EXPECT_EQ(a.cpi.base, b.cpi.base);
    EXPECT_EQ(a.cpi.iStall, b.cpi.iStall);
    EXPECT_EQ(a.cpi.dsStoreBuf, b.cpi.dsStoreBuf);
    EXPECT_EQ(a.cpi.dsRaw, b.cpi.dsRaw);
    EXPECT_EQ(a.cpi.dsL2Hit, b.cpi.dsL2Hit);
    EXPECT_EQ(a.cpi.dsC2C, b.cpi.dsC2C);
    EXPECT_EQ(a.cpi.dsMemory, b.cpi.dsMemory);
    EXPECT_EQ(a.cpi.dsOther, b.cpi.dsOther);

    EXPECT_EQ(a.modes.user, b.modes.user);
    EXPECT_EQ(a.modes.system, b.modes.system);
    EXPECT_EQ(a.modes.io, b.modes.io);
    EXPECT_EQ(a.modes.idle, b.modes.idle);
    EXPECT_EQ(a.modes.gcIdle, b.modes.gcIdle);

    EXPECT_EQ(a.cache.ifetches, b.cache.ifetches);
    EXPECT_EQ(a.cache.loads, b.cache.loads);
    EXPECT_EQ(a.cache.stores, b.cache.stores);
    EXPECT_EQ(a.cache.atomics, b.cache.atomics);
    EXPECT_EQ(a.cache.l1iHits, b.cache.l1iHits);
    EXPECT_EQ(a.cache.l1dHits, b.cache.l1dHits);
    EXPECT_EQ(a.cache.l2Accesses, b.cache.l2Accesses);
    EXPECT_EQ(a.cache.l2Hits, b.cache.l2Hits);
    EXPECT_EQ(a.cache.missCold, b.cache.missCold);
    EXPECT_EQ(a.cache.missCoherence, b.cache.missCoherence);
    EXPECT_EQ(a.cache.missCapacity, b.cache.missCapacity);
    EXPECT_EQ(a.cache.c2cTransfers, b.cache.c2cTransfers);
    EXPECT_EQ(a.cache.upgrades, b.cache.upgrades);
    EXPECT_EQ(a.cache.writebacks, b.cache.writebacks);
    EXPECT_EQ(a.cache.blockStores, b.cache.blockStores);
    EXPECT_EQ(a.cache.instrMisses, b.cache.instrMisses);
    EXPECT_EQ(a.cache.dataMisses, b.cache.dataMisses);

    EXPECT_EQ(a.gcMinor, b.gcMinor);
    EXPECT_EQ(a.gcMajor, b.gcMajor);
    EXPECT_EQ(a.gcPause, b.gcPause);
    EXPECT_EQ(a.liveAfterMB, b.liveAfterMB);
    EXPECT_EQ(a.beanHitRate, b.beanHitRate);
}

core::ExperimentSpec
smallSpec()
{
    core::ExperimentSpec spec;
    spec.workload = core::WorkloadKind::SpecJbb;
    spec.appCpus = 2;
    spec.totalCpus = 4;
    spec.scale = 2;
    spec.warmup = 1'000'000;
    spec.measure = 2'000'000;
    spec.seed = 42;
    return spec;
}

} // namespace

TEST(ThreadPool, ParallelForCoversEveryIndex)
{
    sim::ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    std::vector<std::atomic<int>> hits(137);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitReturnsValues)
{
    sim::ThreadPool pool(2);
    auto a = pool.submit([] { return 7; });
    auto b = pool.submit([] { return std::string("ok"); });
    EXPECT_EQ(a.get(), 7);
    EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, SingleJobRunsInline)
{
    sim::ThreadPool pool(1);
    const auto self = std::this_thread::get_id();
    auto tid = pool.submit([] { return std::this_thread::get_id(); });
    EXPECT_EQ(tid.get(), self);
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    sim::ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(8,
                                  [](std::size_t i) {
                                      if (i == 5)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, ParallelForFinishesEveryIterationBeforeThrowing)
{
    // Iterations still queued when one throws call the body too; none
    // may run after the exception has reached the caller.
    std::atomic<int> finished{0};
    sim::ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(8,
                                  [&](std::size_t i) {
                                      if (i == 0)
                                          throw std::runtime_error("x");
                                      std::this_thread::sleep_for(
                                          std::chrono::milliseconds(5));
                                      finished.fetch_add(1);
                                  }),
                 std::runtime_error);
    EXPECT_EQ(finished.load(), 7);
}

TEST(ParallelRunner, RepeatedSpecPerturbsOnlyTheSeed)
{
    const core::ExperimentSpec base = smallSpec();
    const core::ExperimentSpec r2 = core::repeatedSpec(base, 2);
    EXPECT_NE(r2.seed, base.seed);
    EXPECT_NE(core::repeatedSpec(base, 1).seed, r2.seed);
    EXPECT_EQ(r2.appCpus, base.appCpus);
    EXPECT_EQ(r2.scale, base.scale);
    EXPECT_EQ(r2.measure, base.measure);
}

TEST(ParallelRunner, RepeatedRunsAreIdenticalAcrossJobCounts)
{
    const core::ExperimentSpec spec = smallSpec();

    sim::ThreadPool::setGlobalJobs(1);
    const auto serial = core::runGrid(repetitions(spec, 4));
    sim::ThreadPool::setGlobalJobs(4);
    const auto parallel = core::runGrid(repetitions(spec, 4));
    sim::ThreadPool::setGlobalJobs(1);

    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(parallel.size(), 4u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        expectIdentical(serial[i], parallel[i]);
    }
    // Different seeds actually produce different runs (the comparison
    // above is not trivially matching identical work).
    EXPECT_NE(serial[0].cpi.instructions, serial[1].cpi.instructions);
}

TEST(ParallelRunner, RunGridPreservesSubmissionOrder)
{
    core::ExperimentSpec a = smallSpec();
    core::ExperimentSpec b = smallSpec();
    b.scale = 4; // heavier point: different tx mix
    sim::ThreadPool::setGlobalJobs(2);
    const auto results = core::runGrid({a, b, a});
    sim::ThreadPool::setGlobalJobs(1);
    ASSERT_EQ(results.size(), 3u);
    expectIdentical(results[0], results[2]);
    EXPECT_NE(results[0].txTotal, results[1].txTotal);
}

namespace
{

/** Serialize a batch of runs to the metrics JSON document text. */
std::string
metricsDocument(const std::vector<core::RunResult> &results,
                const core::ExperimentSpec &base)
{
    core::MetricsMap map;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const core::ExperimentSpec spec =
            core::repeatedSpec(base, static_cast<unsigned>(i));
        map.emplace(core::pointName(spec), *results[i].metrics);
    }
    std::ostringstream os;
    core::writeMetricsJson(os, "test", map);
    return os.str();
}

} // namespace

TEST(ParallelRunner, MetricsTravelWithEveryResult)
{
    sim::ThreadPool::setGlobalJobs(1);
    const auto results = core::runGrid(repetitions(smallSpec(), 2));
    ASSERT_EQ(results.size(), 2u);
    for (const auto &res : results) {
        ASSERT_NE(res.metrics, nullptr);
        EXPECT_FALSE(res.metrics->counters.empty());
        EXPECT_EQ(res.metrics->counters.at("cpu.app.instructions"),
                  res.cpi.instructions);
        EXPECT_EQ(res.metrics->counters.at("mem.app.loads"),
                  res.cache.loads);
    }
}

TEST(ParallelRunner, MetricsJsonIsByteIdenticalAcrossJobCounts)
{
    const core::ExperimentSpec spec = smallSpec();

    sim::ThreadPool::setGlobalJobs(1);
    const std::string serial =
        metricsDocument(core::runGrid(repetitions(spec, 3)), spec);
    sim::ThreadPool::setGlobalJobs(4);
    const std::string parallel =
        metricsDocument(core::runGrid(repetitions(spec, 3)), spec);
    sim::ThreadPool::setGlobalJobs(4);
    const std::string again =
        metricsDocument(core::runGrid(repetitions(spec, 3)), spec);
    sim::ThreadPool::setGlobalJobs(1);

    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel); // jobs=1 vs jobs=4
    EXPECT_EQ(parallel, again);  // same-seed rerun
}

TEST(HierarchyGuard, RejectsMoreL2GroupsThanSnoopCeiling)
{
    sim::MachineConfig machine;
    machine.totalCpus = mem::kMaxSnoopGroups + 1;
    machine.appCpus = 4;
    machine.cpusPerL2 = 1;
    EXPECT_EXIT(mem::Hierarchy(machine, mem::LatencyModel{}, false),
                ::testing::ExitedWithCode(1),
                "kMaxSnoopGroups.*protocol=directory");
}
