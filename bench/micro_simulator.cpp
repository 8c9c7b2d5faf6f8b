/**
 * @file
 * Microbenchmarks of the simulator substrate itself (google-benchmark):
 * cache array lookups, coherent hierarchy access paths, burst
 * execution, workload reference generation and collector throughput.
 * These guard the simulator's own performance — the figure harnesses
 * run millions of these operations per measured point.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "core/experiment.hh"
#include "core/system.hh"
#include "mem/block_meta.hh"
#include "mem/hierarchy.hh"
#include "mem/sweep.hh"
#include "sim/rng.hh"
#include "workload/zipf.hh"

using namespace middlesim;

namespace
{

void
BM_CacheArrayHit(benchmark::State &state)
{
    mem::CacheArray cache({1u << 20, 4, 64});
    // Warm a small set of lines.
    for (unsigned i = 0; i < 64; ++i) {
        mem::CacheLine &frame = cache.victim(i * 64);
        cache.install(frame, i * 64, mem::CoherenceState::Shared);
    }
    std::uint64_t i = 0;
    for (auto _ : state) {
        mem::CacheLine *line = cache.find((i++ % 64) * 64);
        benchmark::DoNotOptimize(line);
    }
}
BENCHMARK(BM_CacheArrayHit);

void
BM_HierarchyL1Hit(benchmark::State &state)
{
    sim::MachineConfig machine;
    machine.totalCpus = 4;
    machine.appCpus = 4;
    mem::Hierarchy mem(machine, mem::LatencyModel{}, false);
    mem.access({0x1000, mem::AccessType::Load, 0}, 0);
    for (auto _ : state) {
        auto res = mem.access({0x1000, mem::AccessType::Load, 0}, 0);
        benchmark::DoNotOptimize(res);
    }
}
BENCHMARK(BM_HierarchyL1Hit);

void
BM_HierarchyCoherenceMiss(benchmark::State &state)
{
    sim::MachineConfig machine;
    machine.totalCpus = 16;
    machine.appCpus = 16;
    mem::Hierarchy mem(machine, mem::LatencyModel{}, false);
    unsigned cpu = 0;
    for (auto _ : state) {
        // Write the same line from alternating CPUs: permanent
        // invalidation + cache-to-cache traffic.
        auto res = mem.access(
            {0x2000, mem::AccessType::Store, cpu}, 0);
        benchmark::DoNotOptimize(res);
        cpu = (cpu + 1) % machine.totalCpus;
    }
}
BENCHMARK(BM_HierarchyCoherenceMiss);

void
BM_SweepAccess(benchmark::State &state)
{
    mem::SweepSimulator sweep(mem::SweepSimulator::paperSweep());
    sim::Rng rng(7);
    for (auto _ : state) {
        sweep.access({rng.uniform(1u << 26) * 64,
                      mem::AccessType::Load, 0});
    }
}
BENCHMARK(BM_SweepAccess);

void
BM_SweepAccessClustered(benchmark::State &state)
{
    // Spatially-local reference stream: repeated and sequential
    // blocks dominate, as in real instruction/data traces. Exercises
    // the last-block memo and hit-below early-out of the inclusion
    // fast path.
    mem::SweepSimulator sweep(mem::SweepSimulator::paperSweep());
    sim::Rng rng(7);
    mem::Addr cursor = 0;
    for (auto _ : state) {
        const auto move = rng.uniform(100);
        if (move >= 90)
            cursor = rng.uniform(1u << 17) * 64;
        else if (move >= 40)
            cursor += 64;
        sweep.access({cursor + rng.uniform(64),
                      mem::AccessType::Load, 0});
    }
}
BENCHMARK(BM_SweepAccessClustered);

/**
 * The per-block record lookup on the L2 miss path: a warm table,
 * lookups of already-present blocks.
 */
void
blockMetaLookup(benchmark::State &state, unsigned groups, bool directory)
{
    mem::BlockMetaTable table(groups, directory);
    sim::Rng rng(7);
    std::vector<mem::Addr> keys;
    keys.reserve(100000);
    for (unsigned i = 0; i < 100000; ++i) {
        keys.push_back(
            static_cast<mem::Addr>(rng.uniform(1u << 22)) * 64);
        table[keys.back()].everCached().set(0);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const mem::LineMeta meta = table[keys[i++ % keys.size()]];
        benchmark::DoNotOptimize(meta.presence().data());
    }
    state.counters["slot_bytes"] = static_cast<double>(table.slotBytes());
}

/** The 16-group snooping record of the paper's E6000. */
void
BM_BlockMetaLookup(benchmark::State &state)
{
    blockMetaLookup(state, 16, false);
}
BENCHMARK(BM_BlockMetaLookup);

/** The 128-group directory record of the many-core machine. */
void
BM_BlockMetaLookupDir128(benchmark::State &state)
{
    blockMetaLookup(state, 128, true);
}
BENCHMARK(BM_BlockMetaLookupDir128);

void
BM_ZipfSample(benchmark::State &state)
{
    workload::ZipfSampler zipf(200000, 0.95);
    sim::Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

void
BM_SystemWindow(benchmark::State &state)
{
    // End-to-end simulation rate: one SPECjbb window per iteration.
    core::ExperimentSpec spec;
    spec.appCpus = 4;
    spec.scale = 4;
    core::BuiltWorkload workload;
    auto system = core::buildSystem(spec, workload);
    system->run(1'000'000); // settle
    for (auto _ : state)
        system->run(20'000);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(system->appCpi().instructions));
}
BENCHMARK(BM_SystemWindow);

} // namespace

BENCHMARK_MAIN();
