/**
 * @file
 * Hierarchy statistics consistency, regions, tracking and the bus.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mem/bus.hh"
#include "mem/hierarchy.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"

using namespace middlesim;
using mem::AccessType;
using mem::Hierarchy;
using mem::MemRef;

namespace
{

sim::MachineConfig
machine4()
{
    sim::MachineConfig m;
    m.totalCpus = 4;
    m.appCpus = 4;
    m.l1i = {1024, 2, 64};
    m.l1d = {1024, 2, 64};
    m.l2 = {8192, 2, 64};
    return m;
}

} // namespace

TEST(HierarchyStats, CountersPartitionAccesses)
{
    Hierarchy h(machine4(), mem::LatencyModel{}, false);
    sim::Rng rng(5);
    for (int i = 0; i < 5000; ++i) {
        const unsigned cpu = static_cast<unsigned>(rng.uniform(4));
        const mem::Addr addr = rng.uniform(512) * 64;
        const auto k = rng.uniform(4);
        const AccessType t = k == 0 ? AccessType::IFetch
                             : k == 1 ? AccessType::Load
                             : k == 2 ? AccessType::Store
                                      : AccessType::Atomic;
        h.access({addr, t, cpu}, 0);
    }
    const mem::CacheStats s = h.aggregateAll();
    EXPECT_EQ(s.blockStores, 0u);
    // Every L2 access resolves as a hit, a miss, or an upgrade.
    EXPECT_EQ(s.l2Accesses, s.l2Hits + s.l2Misses() + s.upgrades);
    // Miss classes partition misses; I/D side counts partition too.
    EXPECT_EQ(s.l2Misses(), s.instrMisses + s.dataMisses);
    EXPECT_EQ(s.l2Misses(),
              s.missCold + s.missCoherence + s.missCapacity);
}

TEST(HierarchyStats, CountersBasicAlgebra)
{
    Hierarchy h(machine4(), mem::LatencyModel{}, false);
    // One cold load, one L1 hit, one store (write-through).
    h.access({0x1000, AccessType::Load, 0}, 0);
    h.access({0x1000, AccessType::Load, 0}, 0);
    h.access({0x1000, AccessType::Store, 0}, 0);
    const auto &s = h.cpuStats(0);
    EXPECT_EQ(s.loads, 2u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.l1dHits, 2u); // second load + store's L1 update
    EXPECT_EQ(s.l2Accesses, 2u); // first load + the store
    EXPECT_EQ(s.l2Misses(), 1u);
    EXPECT_EQ(s.upgrades, 1u); // S -> M for the store
}

TEST(HierarchyStats, ResetStatsPreservesContents)
{
    Hierarchy h(machine4(), mem::LatencyModel{}, false);
    h.access({0x1000, AccessType::Load, 0}, 0);
    h.resetStats();
    EXPECT_EQ(h.aggregateAll().loads, 0u);
    // Still cached: next access is an L1 hit, not a miss.
    auto res = h.access({0x1000, AccessType::Load, 0}, 0);
    EXPECT_EQ(res.servedBy, mem::ServedBy::L1);
}

TEST(HierarchyStats, RegionsAttributeMisses)
{
    Hierarchy h(machine4(), mem::LatencyModel{}, false);
    h.defineRegion("lo", 0x0, 0x10000);
    h.defineRegion("hi", 0x10000, 0x10000);
    h.access({0x100, AccessType::Load, 0}, 0);
    h.access({0x10100, AccessType::Load, 0}, 0);
    h.access({0x10200, AccessType::Load, 0}, 0);
    ASSERT_EQ(h.regions().size(), 2u);
    EXPECT_EQ(h.regions()[0].total(), 1u);
    EXPECT_EQ(h.regions()[1].total(), 2u);
    h.resetRegionStats();
    EXPECT_EQ(h.regions()[0].total(), 0u);
}

TEST(HierarchyStats, CommunicationTracking)
{
    Hierarchy h(machine4(), mem::LatencyModel{}, false);
    h.setCommunicationTracking(true);
    h.access({0x1000, AccessType::Store, 0}, 0);
    h.access({0x1000, AccessType::Load, 1}, 0); // copyback
    h.access({0x2000, AccessType::Load, 2}, 0); // plain miss
    EXPECT_EQ(h.c2cPerLine().total(), 1u);
    using Item = std::pair<std::uint64_t, std::uint64_t>;
    EXPECT_EQ(h.c2cPerLine().sortedItems(),
              (std::vector<Item>{{0x1000, 1}}));
    EXPECT_GE(h.touchedLines(), 2u);
    h.resetCommunicationTracking();
    EXPECT_EQ(h.c2cPerLine().total(), 0u);
    EXPECT_EQ(h.touchedLines(), 0u);
}

TEST(HierarchyStats, TimelineBinsCopybacks)
{
    Hierarchy h(machine4(), mem::LatencyModel{}, false);
    h.enableTimeline(1000, 10);
    h.access({0x1000, AccessType::Store, 0}, 100);
    h.access({0x1000, AccessType::Load, 1}, 1500);  // c2c in bin 1
    h.access({0x1000, AccessType::Store, 2}, 2500); // c2c in bin 2
    const auto &bins = h.timeline()->bins();
    EXPECT_EQ(bins[0], 0u);
    EXPECT_EQ(bins[1], 1u);
    EXPECT_EQ(bins[2], 1u);
}

TEST(HierarchyStats, AggregateRange)
{
    Hierarchy h(machine4(), mem::LatencyModel{}, false);
    h.access({0x1000, AccessType::Load, 0}, 0);
    h.access({0x2000, AccessType::Load, 3}, 0);
    EXPECT_EQ(h.aggregateRange(0, 0).loads, 1u);
    EXPECT_EQ(h.aggregateRange(1, 2).loads, 0u);
    EXPECT_EQ(h.aggregateAll().loads, 2u);
}

TEST(HierarchyStats, LatenciesMatchModel)
{
    mem::LatencyModel lat;
    Hierarchy h(machine4(), lat, false);
    // Cold miss -> memory latency.
    auto res = h.access({0x1000, AccessType::Load, 0}, 0);
    EXPECT_EQ(res.latency, lat.memory);
    // L1 hit.
    res = h.access({0x1000, AccessType::Load, 0}, 0);
    EXPECT_EQ(res.latency, lat.l1Hit);
    // Copyback.
    h.access({0x2000, AccessType::Store, 1}, 0);
    res = h.access({0x2000, AccessType::Load, 0}, 0);
    EXPECT_EQ(res.latency, lat.cacheToCache);
    // The paper's key ratio: c2c ~ 1.4x memory.
    EXPECT_NEAR(static_cast<double>(lat.cacheToCache) /
                    static_cast<double>(lat.memory),
                1.4, 0.02);
}

TEST(Bus, OccupancyAccounting)
{
    mem::Bus bus(false);
    bus.acquire(0, 10);
    bus.acquire(5, 20);
    EXPECT_EQ(bus.transactions(), 2u);
    EXPECT_EQ(bus.busyCycles(), 30u);
    EXPECT_EQ(bus.totalQueueDelay(), 0u);
}

TEST(Bus, UtilizationEpochDrivesDelay)
{
    mem::Bus bus(true);
    // First epoch: no prior utilization -> no delay.
    EXPECT_EQ(bus.acquire(0, 100), 0u);
    for (int i = 0; i < 7; ++i)
        bus.acquire(0, 100);
    bus.advanceEpoch(1000); // 80% utilization
    EXPECT_NEAR(bus.lastUtilization(), 0.8, 1e-9);
    const auto delay = bus.acquire(0, 100);
    EXPECT_GT(delay, 0u);
    // Delay = occ * 0.5 * rho / (1 - rho) = 100*0.5*4 = 200.
    EXPECT_EQ(delay, 200u);
}

TEST(Bus, UtilizationIsCapped)
{
    mem::Bus bus(true);
    bus.acquire(0, 10000);
    bus.advanceEpoch(1000);
    EXPECT_LE(bus.lastUtilization(), 0.92);
}

TEST(Bus, ContentionDisabled)
{
    mem::Bus bus(false);
    bus.acquire(0, 1000);
    bus.advanceEpoch(100);
    EXPECT_EQ(bus.acquire(0, 1000), 0u);
}

// ---------------------------------------------------------------------
// Pinned per-access results. A seeded stream over a hot shared set, a
// per-CPU private pool and a cold pool drives Hierarchy::access on
// five geometries. Every AccessResult, the final per-CPU CacheStats,
// the region counters, the communication-tracking state and the
// metric registry fold into one FNV-1a digest per geometry. The
// constants were recorded before the per-block metadata moved into
// one inline record, so any change to the simulated behaviour of
// either protocol shows up here. Further rows rerun two geometries
// with a FaultPlan armed (period 3, every group), pinning the fault
// branches of the claim, fetch and invalidation steps; they were
// recorded before both protocols shared one L2 access path.
// ---------------------------------------------------------------------

namespace
{

struct DigestGeometry
{
    const char *name;
    unsigned cpus;
    unsigned cpusPerL2;
    sim::CoherenceProtocol protocol;
    unsigned numaNodes;
    sim::Topology topology;
    unsigned occupancy;
    bool trackComm;
    bool invalidateMidStream;
    mem::FaultPlan::Kind fault;
    std::uint64_t digest;
};

void
putWord(std::string &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
hierarchyDigest(const DigestGeometry &g)
{
    sim::MachineConfig m;
    m.totalCpus = g.cpus;
    m.appCpus = g.cpus;
    m.cpusPerL2 = g.cpusPerL2;
    m.protocol = g.protocol;
    m.numaNodes = g.numaNodes;
    m.topology = g.topology;
    m.dirOccupancy = g.occupancy;
    m.l1i = {1024, 2, 64};
    m.l1d = {1024, 2, 64};
    m.l2 = {8192, 4, 64};

    sim::MetricRegistry reg;
    Hierarchy h(m, mem::LatencyModel{}, true, &reg);
    mem::FaultPlan plan;
    plan.kind = g.fault;
    plan.period = 3;
    if (g.fault != mem::FaultPlan::Kind::None)
        h.setFaultPlan(&plan);
    if (g.trackComm) {
        h.setCommunicationTracking(true);
        h.defineRegion("hot", 0, 48 * 64);
    }

    constexpr unsigned kRefs = 20000;
    constexpr mem::Addr kPrivateBase = 1u << 20;
    constexpr mem::Addr kColdBase = 1u << 26;
    sim::Rng rng(0x5eed + g.cpus);
    std::string buf;
    sim::Tick now = 0;
    for (unsigned i = 0; i < kRefs; ++i) {
        if (g.invalidateMidStream && i == kRefs / 2)
            h.invalidateAll();
        if (i % 1000 == 999)
            h.advanceContentionEpoch(4000);
        const unsigned cpu = static_cast<unsigned>(rng.uniform(g.cpus));
        const auto pool = rng.uniform(10);
        const mem::Addr addr =
            pool < 4   ? rng.uniform(48) * 64 + rng.uniform(64)
            : pool < 7 ? kPrivateBase + (cpu * 64 + rng.uniform(64)) * 64
                       : kColdBase + rng.uniform(4096) * 64;
        const auto k = rng.uniform(20);
        const AccessType t = k < 4    ? AccessType::IFetch
                             : k < 11 ? AccessType::Load
                             : k < 16 ? AccessType::Store
                             : k < 18 ? AccessType::Atomic
                                      : AccessType::BlockStore;
        now += rng.uniform(32);
        const mem::AccessResult r = h.access({addr, t, cpu}, now);
        putWord(buf, r.latency);
        buf.push_back(static_cast<char>(r.servedBy));
        buf.push_back(static_cast<char>(r.missClass));
    }

    for (unsigned c = 0; c < g.cpus; ++c) {
        const mem::CacheStats &s = h.cpuStats(c);
        for (const auto &[name, counter] : mem::CacheStats::counters)
            putWord(buf, s.*counter);
    }
    for (const Hierarchy::Region &region : h.regions()) {
        putWord(buf, region.missCold);
        putWord(buf, region.missCoherence);
        putWord(buf, region.missCapacity);
    }
    for (const auto &[line, count] : h.c2cPerLine().sortedItems()) {
        putWord(buf, line);
        putWord(buf, count);
    }
    putWord(buf, h.touchedLines());
    std::ostringstream json;
    reg.snapshot().writeJson(json);
    buf += json.str();
    return sim::fnv1a64(buf);
}

} // namespace

TEST(HierarchyDigest, PerAccessResultsArePinned)
{
    using sim::CoherenceProtocol;
    using sim::Topology;
    using Fault = mem::FaultPlan::Kind;
    const DigestGeometry geometries[] = {
        {"snoop-16cpu-4perL2", 16, 4, CoherenceProtocol::SnoopBus, 1,
         Topology::Ring, 0, true, false, Fault::None,
         0xa734c05b96a97ba7ULL},
        {"dir-64-ring", 64, 1, CoherenceProtocol::DirectoryMesi, 8,
         Topology::Ring, 0, false, false, Fault::None,
         0x2ea4e73cd2a3241eULL},
        {"dir-96-mesh3x2-occ2", 96, 1, CoherenceProtocol::DirectoryMesi,
         6, Topology::Mesh, 2, true, false, Fault::None,
         0x559c0d8eac426b8cULL},
        {"dir-128-mesh-occ4", 128, 1, CoherenceProtocol::DirectoryMesi,
         8, Topology::Mesh, 4, false, false, Fault::None,
         0x516aa22e45f56c9aULL},
        {"dir-512-ring-invalidate", 512, 1,
         CoherenceProtocol::DirectoryMesi, 16, Topology::Ring, 0, true,
         true, Fault::None, 0x16735d5c41d4e206ULL},
        {"snoop-16cpu-4perL2+drop-invalidate", 16, 4,
         CoherenceProtocol::SnoopBus, 1, Topology::Ring, 0, true, false,
         Fault::DropInvalidate, 0xd0dd1d5ca0606ab6ULL},
        {"snoop-16cpu-4perL2+keep-owner", 16, 4,
         CoherenceProtocol::SnoopBus, 1, Topology::Ring, 0, true, false,
         Fault::KeepOwnerOnSnoop, 0xd9cce188323c77c1ULL},
        {"snoop-16cpu-4perL2+skip-l1", 16, 4,
         CoherenceProtocol::SnoopBus, 1, Topology::Ring, 0, true, false,
         Fault::SkipL1BackInvalidate, 0x7ae6a04c05e81f19ULL},
        {"dir-96-mesh3x2-occ2+drop-invalidate", 96, 1,
         CoherenceProtocol::DirectoryMesi, 6, Topology::Mesh, 2, true,
         false, Fault::DropInvalidate, 0x740d1b259b64b0e8ULL},
        {"dir-96-mesh3x2-occ2+keep-owner", 96, 1,
         CoherenceProtocol::DirectoryMesi, 6, Topology::Mesh, 2, true,
         false, Fault::KeepOwnerOnSnoop, 0x83fc24b5ff7cf67aULL},
        {"dir-96-mesh3x2-occ2+skip-l1", 96, 1,
         CoherenceProtocol::DirectoryMesi, 6, Topology::Mesh, 2, true,
         false, Fault::SkipL1BackInvalidate, 0x6af2211429c048e7ULL},
        {"dir-96-mesh3x2-occ2+drop-ack", 96, 1,
         CoherenceProtocol::DirectoryMesi, 6, Topology::Mesh, 2, true,
         false, Fault::DropInvalAck, 0x2f97520a6f2ef41cULL},
        {"dir-96-mesh3x2-occ2+nack-storm", 96, 1,
         CoherenceProtocol::DirectoryMesi, 6, Topology::Mesh, 2, true,
         false, Fault::NackStorm, 0x93be7d508fa742a9ULL},
    };
    for (const DigestGeometry &g : geometries) {
        SCOPED_TRACE(g.name);
        EXPECT_EQ(sim::hashHex(hierarchyDigest(g)),
                  sim::hashHex(g.digest));
    }
}
