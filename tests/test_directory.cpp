/**
 * @file
 * Directory-protocol + NUMA subsystem tests (src/mem/directory/).
 *
 * Anchored claims:
 *  - soundness: the directory MESI protocol checks clean under the
 *    lockstep directory checker across degenerate topologies (one
 *    node, one CPU, all CPUs in one node, nodes == L2 groups) and a
 *    64-CPU many-core geometry the snooping bus cannot reach;
 *  - equivalence: on private working sets a matched geometry produces
 *    identical miss classifications and zero cache-to-cache traffic
 *    under both protocols;
 *  - fail-fast: geometry past a protocol's sharer ceiling dies with a
 *    diagnostic naming the limit (and, for the bus, the fix);
 *  - sensitivity: the injected lost-ack defect (FaultPlan
 *    DropInvalAck) is caught by the directory checker and shrinks to
 *    a minimal replayable repro;
 *  - plumbing: NUMA traffic splits local/remote as the topology
 *    dictates, experiment cache keys separate protocol/topology, and
 *    traces round-trip the new header fields.
 *
 * Contention plane (DESIGN.md §3.14):
 *  - property: random request/NACK/retry/ack sequences against the
 *    home occupancy model stay within the named retry bound, charge
 *    bounded queue delays, and eventually drain — over 1000 seeded
 *    cases; sharer-map exactness and ack conservation under
 *    contention ride the lockstep checker across seeded contended
 *    streams;
 *  - livelock: two CPUs ping-ponging GetM on one block at minimum
 *    home occupancy terminate within kDirRetryBound (fail-fast
 *    `dir.livelock` on a nack-storm fault, never a hang), and a
 *    whole machine's checker reports each break after the
 *    measurement reset as it happens;
 *  - mesh routing: dimension-ordered XY route length equals Manhattan
 *    distance on randomized pairs, a W x 1 mesh degenerates to the
 *    ring, and the new topology/occupancy fields round-trip through
 *    spec keys and trace headers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "check/shrink.hh"
#include "core/cache.hh"
#include "core/experiment.hh"
#include "mem/directory/directory.hh"
#include "mem/fault.hh"
#include "mem/hierarchy.hh"
#include "mesh_routing.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

using namespace middlesim;
using mem::AccessType;
using mem::Hierarchy;
using test::hopsBetween;
using test::meshHopsX;
using test::meshHopsY;

namespace
{

sim::MachineConfig
dirMachine(unsigned cpus, unsigned per_l2, unsigned nodes,
           sim::Topology topology = sim::Topology::Ring,
           unsigned occupancy = 0)
{
    sim::MachineConfig m;
    m.totalCpus = cpus;
    m.appCpus = cpus;
    m.cpusPerL2 = per_l2;
    m.numaNodes = nodes;
    m.protocol = sim::CoherenceProtocol::DirectoryMesi;
    m.topology = topology;
    m.dirOccupancy = occupancy;
    m.l1i = {4096, 2, 64};
    m.l1d = {4096, 2, 64};
    m.l2 = {32768, 4, 64};
    return m;
}

trace::TraceHeader
dirHeader(unsigned cpus, unsigned per_l2, unsigned nodes,
          sim::Topology topology = sim::Topology::Ring,
          unsigned occupancy = 0)
{
    trace::TraceHeader h;
    h.label = "directory-test";
    h.totalCpus = cpus;
    h.appCpus = cpus;
    h.cpusPerL2 = per_l2;
    h.protocol = sim::CoherenceProtocol::DirectoryMesi;
    h.numaNodes = nodes;
    h.topology = topology;
    h.dirOccupancy = occupancy;
    h.l1i = {4096, 2, 64};
    h.l1d = {4096, 2, 64};
    h.l2 = {32768, 4, 64};
    return h;
}

/** Hot shared set + cold pool, all access types, like test_check. */
std::vector<trace::TraceRecord>
sharedStream(std::uint64_t seed, unsigned cpus, unsigned refs)
{
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xd12);
    std::vector<trace::TraceRecord> out;
    out.reserve(refs);
    sim::Tick t = 1000;
    for (unsigned i = 0; i < refs; ++i) {
        t += 1 + rng.uniform(40);
        trace::TraceRecord rec;
        rec.tick = t;
        rec.ref.cpu = static_cast<unsigned>(rng.uniform(cpus));
        const mem::Addr block =
            rng.chance(0.6) ? 0x1000'0000ULL + 64 * rng.uniform(48)
                            : 0x2000'0000ULL + 64 * rng.uniform(2048);
        const std::uint64_t roll = rng.uniform(100);
        if (roll < 55)
            rec.ref.type = AccessType::Load;
        else if (roll < 80)
            rec.ref.type = AccessType::Store;
        else if (roll < 90)
            rec.ref.type = AccessType::IFetch;
        else if (roll < 95)
            rec.ref.type = AccessType::Atomic;
        else
            rec.ref.type = AccessType::BlockStore;
        rec.ref.addr = rec.ref.type == AccessType::BlockStore
                           ? block
                           : block + 8 * rng.uniform(8);
        out.push_back(rec);
    }
    return out;
}

/** Two CPUs alternately storing to one block: a GetM ping-pong. */
std::vector<trace::TraceRecord>
pingPongStream(unsigned refs)
{
    std::vector<trace::TraceRecord> out;
    out.reserve(refs);
    sim::Tick t = 1000;
    for (unsigned i = 0; i < refs; ++i) {
        t += 16;
        trace::TraceRecord rec;
        rec.tick = t;
        rec.ref.cpu = i % 2;
        rec.ref.type = AccessType::Store;
        rec.ref.addr = 0x1000'0000ULL;
        out.push_back(rec);
    }
    return out;
}

/** Ring distance computed independently of MachineConfig. */
unsigned
ringDist(unsigned a, unsigned b, unsigned size)
{
    const unsigned fwd = (b + size - a) % size;
    return std::min(fwd, size - fwd);
}

} // namespace

// ---------------------------------------------------------------------
// Soundness: degenerate topologies check clean under the lockstep
// directory checker.
// ---------------------------------------------------------------------

TEST(DirClean, SingleNodeIsUma)
{
    // numaNodes=1: every home is local; the protocol still runs its
    // full request/forward/invalidate machinery.
    const auto h = dirHeader(4, 2, 1);
    EXPECT_EQ(check::violatedInvariant(h, sharedStream(1, 4, 10000)),
              "");
}

TEST(DirClean, Uniprocessor)
{
    const auto h = dirHeader(1, 1, 1);
    EXPECT_EQ(check::violatedInvariant(h, sharedStream(2, 1, 10000)),
              "");
}

TEST(DirClean, NodesEqualGroups)
{
    // One L2 group per NUMA node: maximal remote-miss exposure.
    const auto h = dirHeader(4, 1, 4);
    EXPECT_EQ(check::violatedInvariant(h, sharedStream(3, 4, 10000)),
              "");
}

TEST(DirClean, AllCpusOneL2Group)
{
    // A single fully shared L2: the directory degenerates to one
    // sharer bit and no cross-group traffic.
    const auto h = dirHeader(8, 8, 1);
    EXPECT_EQ(check::violatedInvariant(h, sharedStream(4, 8, 10000)),
              "");
}

TEST(DirClean, ManycoreGeometryPastSnoopCeiling)
{
    // 64 CPUs in 64 L2 groups across 4 nodes — a geometry the
    // snooping bus rejects outright (kMaxSnoopGroups = 32).
    const auto h = dirHeader(64, 1, 4);
    EXPECT_EQ(check::violatedInvariant(h, sharedStream(5, 64, 8000)),
              "");
}

// ---------------------------------------------------------------------
// Equivalence: private working sets classify identically under both
// protocols (the acceptance criterion for protocol parity).
// ---------------------------------------------------------------------

TEST(DirEquivalence, PrivateWorkingSetsMatchSnoop)
{
    sim::MachineConfig snoop = dirMachine(16, 4, 1);
    snoop.protocol = sim::CoherenceProtocol::SnoopBus;
    const sim::MachineConfig dir = dirMachine(16, 4, 4);

    Hierarchy hs(snoop, mem::LatencyModel{}, false);
    Hierarchy hd(dir, mem::LatencyModel{}, false);
    hs.setCommunicationTracking(true);
    hd.setCommunicationTracking(true);

    // Each CPU walks a disjoint region bigger than its L2 share:
    // cold and capacity misses, zero sharing.
    sim::Rng rng(7);
    sim::Tick t = 0;
    for (unsigned i = 0; i < 60000; ++i) {
        t += 1 + rng.uniform(8);
        const unsigned cpu = static_cast<unsigned>(rng.uniform(16));
        const mem::Addr addr = 0x4000'0000ULL +
                               0x0100'0000ULL * cpu +
                               64 * rng.uniform(1500) +
                               8 * rng.uniform(8);
        const auto roll = rng.uniform(10);
        const AccessType type = roll < 6   ? AccessType::Load
                                : roll < 9 ? AccessType::Store
                                           : AccessType::IFetch;
        hs.access({addr, type, cpu}, t);
        hd.access({addr, type, cpu}, t);
    }

    for (unsigned cpu = 0; cpu < 16; ++cpu) {
        const mem::CacheStats &a = hs.cpuStats(cpu);
        const mem::CacheStats &b = hd.cpuStats(cpu);
        EXPECT_EQ(a.l2Misses(), b.l2Misses()) << "cpu " << cpu;
        EXPECT_EQ(a.missCold, b.missCold) << "cpu " << cpu;
        EXPECT_EQ(a.missCapacity, b.missCapacity) << "cpu " << cpu;
        EXPECT_EQ(a.missCoherence, 0u) << "cpu " << cpu;
        EXPECT_EQ(b.missCoherence, 0u) << "cpu " << cpu;
    }
    // No sharing -> no cache-to-cache transfers under either protocol.
    EXPECT_EQ(hs.c2cPerLine().total(), 0u);
    EXPECT_EQ(hd.c2cPerLine().total(), 0u);
    EXPECT_GT(hs.aggregateAll().l2Misses(), 0u);
}

// ---------------------------------------------------------------------
// Fail-fast: geometry past a protocol ceiling names the limit.
// ---------------------------------------------------------------------

TEST(DirGuard, DirectoryCeilingIsNamed)
{
    sim::MachineConfig m = dirMachine(mem::kMaxDirectoryGroups + 1, 1, 1);
    EXPECT_EXIT(Hierarchy(m, mem::LatencyModel{}, false),
                ::testing::ExitedWithCode(1), "kMaxDirectoryGroups");
}

TEST(DirGuard, SnoopWithNumaIsRejected)
{
    sim::MachineConfig m = dirMachine(8, 2, 2);
    m.protocol = sim::CoherenceProtocol::SnoopBus;
    EXPECT_EXIT(m.validate(), ::testing::ExitedWithCode(1),
                "protocol=directory");
}

TEST(DirGuard, NodesMustDivideGroups)
{
    const sim::MachineConfig m = dirMachine(8, 2, 3);
    EXPECT_EXIT(m.validate(), ::testing::ExitedWithCode(1),
                "divide");
}

// ---------------------------------------------------------------------
// Sensitivity: the lost-ack defect is caught and shrinks.
// ---------------------------------------------------------------------

TEST(DirInject, DropInvalAckCaughtAndShrunk)
{
    const auto h = dirHeader(8, 2, 2);
    const auto stream = sharedStream(11, 8, 8000);

    mem::FaultPlan plan;
    plan.kind = mem::FaultPlan::Kind::DropInvalAck;
    plan.period = 2;
    plan.salt = 17;

    const std::string invariant =
        check::violatedInvariant(h, stream, &plan);
    ASSERT_NE(invariant, "");
    // The stale sharer bit is a directory-plane defect.
    EXPECT_EQ(invariant.rfind("dir.", 0), 0u) << invariant;

    check::ShrinkResult r = check::shrinkToMinimal(h, stream, &plan);
    ASSERT_TRUE(r.reproduced);
    EXPECT_EQ(r.invariant, invariant);
    EXPECT_LT(r.records.size(), 1000u);
    EXPECT_GE(r.records.size(), 1u);
    EXPECT_EQ(check::violatedInvariant(h, r.records, &plan),
              invariant);
    // The unfaulted machine must not object to the minimized stream.
    EXPECT_EQ(check::violatedInvariant(h, r.records), "");
}

// ---------------------------------------------------------------------
// NUMA accounting and topology helpers.
// ---------------------------------------------------------------------

TEST(DirNuma, SingleNodeHasNoRemoteTraffic)
{
    Hierarchy h(dirMachine(4, 2, 1), mem::LatencyModel{}, false);
    sim::Rng rng(9);
    for (unsigned i = 0; i < 20000; ++i) {
        h.access({64 * rng.uniform(4096),
                  rng.chance(0.3) ? AccessType::Store
                                  : AccessType::Load,
                  static_cast<unsigned>(rng.uniform(4))},
                 i);
    }
    const mem::DirectoryStats &st = h.directory()->stats();
    EXPECT_GT(st.localMisses, 0u);
    EXPECT_EQ(st.remoteMisses, 0u);
    EXPECT_EQ(st.hops, 0u);
    EXPECT_GT(st.getS, 0u);
}

TEST(DirNuma, MultiNodeSplitsLocalRemote)
{
    Hierarchy h(dirMachine(8, 2, 4), mem::LatencyModel{}, false);
    sim::Rng rng(10);
    for (unsigned i = 0; i < 20000; ++i) {
        h.access({64 * rng.uniform(4096),
                  rng.chance(0.3) ? AccessType::Store
                                  : AccessType::Load,
                  static_cast<unsigned>(rng.uniform(8))},
                 i);
    }
    const mem::DirectoryStats &st = h.directory()->stats();
    const auto local = st.localMisses;
    const auto remote = st.remoteMisses;
    // Block-interleaved homes: ~3/4 of misses land on remote nodes.
    EXPECT_GT(local, 0u);
    EXPECT_GT(remote, local);
    EXPECT_GT(st.hops, remote);
}

TEST(DirNuma, TopologyHelpers)
{
    const sim::MachineConfig m = dirMachine(16, 2, 4);
    EXPECT_EQ(m.numL2s(), 8u);
    EXPECT_EQ(m.nodeOfGroup(0 / m.cpusPerL2), 0u);
    EXPECT_EQ(m.nodeOfGroup(15 / m.cpusPerL2), 3u);
    // Homes interleave by block index.
    EXPECT_EQ(m.homeNodeOf(0, 64), 0u);
    EXPECT_EQ(m.homeNodeOf(64, 64), 1u);
    EXPECT_EQ(m.homeNodeOf(64 * 5, 64), 1u);
    // Ring distance wraps: node 0 -> node 3 is one hop.
    EXPECT_EQ(hopsBetween(m, 0, 3), 1u);
    EXPECT_EQ(hopsBetween(m, 0, 2), 2u);
    EXPECT_EQ(hopsBetween(m, 1, 1), 0u);
}

// ---------------------------------------------------------------------
// Plumbing: cache keys and trace headers carry the new fields.
// ---------------------------------------------------------------------

TEST(DirPlumbing, SpecKeySeparatesProtocolAndTopology)
{
    core::ExperimentSpec base;
    const std::string snoopKey = core::encodeSpecKey(base);

    core::ExperimentSpec dir = base;
    dir.protocol = sim::CoherenceProtocol::DirectoryMesi;
    const std::string dirKey = core::encodeSpecKey(dir);
    EXPECT_NE(snoopKey, dirKey);

    core::ExperimentSpec numa = dir;
    numa.numaNodes = 4;
    EXPECT_NE(core::encodeSpecKey(numa), dirKey);
}

TEST(DirPlumbing, TraceHeaderRoundTripsProtocolFields)
{
    const auto h = dirHeader(8, 2, 4);
    trace::TraceWriter writer(h);
    trace::TraceReader reader(writer.take());
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.header().protocol,
              sim::CoherenceProtocol::DirectoryMesi);
    EXPECT_EQ(reader.header().numaNodes, 4u);
    EXPECT_EQ(reader.header().totalCpus, 8u);
}

TEST(DirPlumbing, DecodeRejectsBadTopology)
{
    // numaNodes must divide the group count; a corrupted header is
    // rejected at decode, not at hierarchy construction.
    auto h = dirHeader(8, 2, 4);
    h.numaNodes = 3;
    trace::TraceWriter writer(h);
    trace::TraceReader reader(writer.take());
    EXPECT_FALSE(reader.ok());
}

TEST(DirPlumbing, SpecKeySeparatesTopologyAndOccupancy)
{
    core::ExperimentSpec ring;
    ring.protocol = sim::CoherenceProtocol::DirectoryMesi;
    ring.numaNodes = 4;
    const std::string ringKey = core::encodeSpecKey(ring);

    core::ExperimentSpec mesh = ring;
    mesh.topology = sim::Topology::Mesh;
    const std::string meshKey = core::encodeSpecKey(mesh);
    EXPECT_NE(meshKey, ringKey);

    core::ExperimentSpec occ = ring;
    occ.dirOccupancy = 4;
    const std::string occKey = core::encodeSpecKey(occ);
    EXPECT_NE(occKey, ringKey);
    EXPECT_NE(occKey, meshKey);
}

TEST(DirPlumbing, TraceHeaderRoundTripsContentionFields)
{
    const auto h =
        dirHeader(8, 2, 4, sim::Topology::Mesh, 4);
    trace::TraceWriter writer(h);
    trace::TraceReader reader(writer.take());
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.header().topology, sim::Topology::Mesh);
    EXPECT_EQ(reader.header().dirOccupancy, 4u);
}

TEST(DirPlumbing, DecodeRejectsSnoopWithMeshOrOccupancy)
{
    // The snooping bus has no interconnect topology or home
    // occupancy; a header claiming either is corrupt.
    auto mesh = dirHeader(8, 2, 1, sim::Topology::Mesh, 0);
    mesh.protocol = sim::CoherenceProtocol::SnoopBus;
    trace::TraceReader mesh_reader(trace::TraceWriter(mesh).take());
    EXPECT_FALSE(mesh_reader.ok());

    auto occ = dirHeader(8, 2, 1, sim::Topology::Ring, 2);
    occ.protocol = sim::CoherenceProtocol::SnoopBus;
    trace::TraceReader occ_reader(trace::TraceWriter(occ).take());
    EXPECT_FALSE(occ_reader.ok());
}

// ---------------------------------------------------------------------
// Mesh routing: dimension-ordered XY routes are Manhattan-minimal and
// a W x 1 mesh degenerates exactly to the ring.
// ---------------------------------------------------------------------

TEST(DirMesh, XyRouteLengthIsManhattan)
{
    const struct
    {
        unsigned nodes, w, h;
    } grids[] = {{4, 2, 2}, {8, 4, 2}, {12, 4, 3}, {16, 4, 4}};
    for (const auto &g : grids) {
        const sim::MachineConfig m =
            dirMachine(g.nodes, 1, g.nodes, sim::Topology::Mesh);
        ASSERT_EQ(m.meshWidth(), g.w) << g.nodes;
        ASSERT_EQ(m.meshHeight(), g.h) << g.nodes;
        sim::Rng rng(g.nodes);
        for (unsigned i = 0; i < 200; ++i) {
            const unsigned a =
                static_cast<unsigned>(rng.uniform(g.nodes));
            const unsigned b =
                static_cast<unsigned>(rng.uniform(g.nodes));
            // Manhattan distance on the torus, computed from scratch.
            const unsigned dx = ringDist(a % g.w, b % g.w, g.w);
            const unsigned dy = ringDist(a / g.w, b / g.w, g.h);
            EXPECT_EQ(meshHopsX(m, a, b), dx) << a << "->" << b;
            EXPECT_EQ(meshHopsY(m, a, b), dy) << a << "->" << b;
            EXPECT_EQ(hopsBetween(m, a, b), dx + dy) << a << "->" << b;
        }
    }
}

TEST(DirMesh, DegenerateMeshMatchesRing)
{
    // Prime node counts force a W x 1 grid, whose dimension-ordered
    // route must agree with the plain ring for every pair.
    for (unsigned n : {2u, 3u, 5u, 7u}) {
        const sim::MachineConfig mesh =
            dirMachine(n, 1, n, sim::Topology::Mesh);
        const sim::MachineConfig ring = dirMachine(n, 1, n);
        ASSERT_EQ(mesh.meshHeight(), 1u) << n;
        ASSERT_EQ(mesh.meshWidth(), n) << n;
        for (unsigned a = 0; a < n; ++a) {
            for (unsigned b = 0; b < n; ++b) {
                EXPECT_EQ(hopsBetween(mesh, a, b),
                          hopsBetween(ring, a, b))
                    << n << ": " << a << "->" << b;
                EXPECT_EQ(meshHopsY(mesh, a, b), 0u)
                    << n << ": " << a << "->" << b;
            }
        }
    }
}

TEST(DirMesh, ChargeHopsSplitsAxesExactly)
{
    // Every node pair, charged one at a time: mem.numa.hops moves by
    // hopsBetween (tests/mesh_routing.hh), and on the mesh the
    // per-axis counters move by meshHopsX / meshHopsY.
    std::vector<unsigned> node_counts;
    for (unsigned n = 1; n <= 16; ++n)
        node_counts.push_back(n);
    node_counts.push_back(32);
    node_counts.push_back(64);
    for (const sim::Topology topo :
         {sim::Topology::Ring, sim::Topology::Mesh}) {
        const bool mesh = topo == sim::Topology::Mesh;
        for (const unsigned nodes : node_counts) {
            SCOPED_TRACE(testing::Message()
                         << sim::toString(topo) << " " << nodes);
            const sim::MachineConfig m =
                dirMachine(nodes, 1, nodes, topo, 1);
            mem::DirectoryController dir(m);
            const mem::DirectoryStats &st = dir.stats();
            for (unsigned a = 0; a < nodes; ++a) {
                for (unsigned b = 0; b < nodes; ++b) {
                    const std::uint64_t h0 = st.hops;
                    const std::uint64_t x0 = st.meshXHops;
                    const std::uint64_t y0 = st.meshYHops;
                    dir.chargeHops(a, b, 1);
                    ASSERT_EQ(st.hops - h0, hopsBetween(m, a, b))
                        << a << "->" << b;
                    if (mesh) {
                        ASSERT_EQ(st.meshXHops - x0, meshHopsX(m, a, b))
                            << a << "->" << b;
                        ASSERT_EQ(st.meshYHops - y0, meshHopsY(m, a, b))
                            << a << "->" << b;
                    }
                }
            }
            if (mesh && m.meshHeight() > 1) {
                EXPECT_GT(st.meshXHops, 0u);
                EXPECT_GT(st.meshYHops, 0u);
            }
        }
    }
}

TEST(DirMesh, CachedTopologyMatchesMachineConfig)
{
    // The controller's precomputed group -> node map and home
    // interleaving agree with MachineConfig, and its hop distances
    // with the routing spec, at power-of-two and other node counts,
    // on both topologies.
    for (const sim::Topology topo :
         {sim::Topology::Ring, sim::Topology::Mesh}) {
        for (const unsigned nodes : {1u, 2u, 3u, 6u, 8u, 12u, 16u, 64u}) {
            SCOPED_TRACE(testing::Message()
                         << sim::toString(topo) << " " << nodes);
            const sim::MachineConfig m =
                dirMachine(4 * nodes, 2, nodes, topo);
            mem::DirectoryController dir(m);
            for (unsigned g = 0; g < m.numL2s(); ++g)
                ASSERT_EQ(dir.nodeOfGroup(g), m.nodeOfGroup(g)) << g;
            for (mem::Addr block = 0; block < 64 * 1000; block += 64)
                ASSERT_EQ(dir.homeOf(block), m.homeNodeOf(block, 64))
                    << block;
            for (unsigned a = 0; a < nodes; ++a) {
                for (unsigned b = 0; b < nodes; ++b)
                    ASSERT_EQ(dir.hops(a, b), hopsBetween(m, a, b))
                        << a << "->" << b;
            }
        }
    }
}

TEST(DirMesh, ContendedMeshStreamChecksClean)
{
    // The full machine under mesh routing + home occupancy stays
    // clean under the lockstep directory checker.
    const auto h = dirHeader(8, 2, 4, sim::Topology::Mesh, 2);
    EXPECT_EQ(check::violatedInvariant(h, sharedStream(31, 8, 8000)),
              "");
}

// ---------------------------------------------------------------------
// Property: random request/NACK/retry sequences against the occupancy
// model over 1000 seeded cases.
// ---------------------------------------------------------------------

TEST(DirProperty, RandomNackRetrySequencesStayBounded)
{
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        sim::Rng rng(seed);
        const unsigned nodes = rng.chance(0.5) ? 4 : 2;
        const sim::Topology topo = rng.chance(0.5)
                                       ? sim::Topology::Mesh
                                       : sim::Topology::Ring;
        const unsigned occupancy =
            1 + static_cast<unsigned>(rng.uniform(3));
        const sim::MachineConfig m =
            dirMachine(8, 2, nodes, topo, occupancy);
        mem::DirectoryController dir(m);
        ASSERT_TRUE(dir.contended());
        ASSERT_EQ(dir.slotsPerHome(), occupancy);

        const sim::Tick service = 25;
        // M/M/1-style queue at utilization cap 0.92: the charged
        // delay never exceeds service * 0.5 * 0.92 / 0.08.
        const sim::Tick queue_bound = service * 6;
        sim::Tick now = 0;
        for (unsigned txn = 0; txn < 40; ++txn) {
            now += rng.uniform(64);
            const unsigned home =
                static_cast<unsigned>(rng.uniform(nodes));
            sim::Tick t = now;
            for (unsigned attempt = 0;; ++attempt) {
                // The retry bound is the livelock-freedom claim:
                // honest homes always admit before it.
                ASSERT_LT(attempt, mem::kDirRetryBound)
                    << "seed " << seed << " txn " << txn;
                sim::Tick queue = 0;
                if (dir.tryAcquireHome(home, t, service, queue)) {
                    EXPECT_LE(queue, queue_bound)
                        << "seed " << seed;
                    break;
                }
                ++dir.stats().nacks;
                ++dir.stats().retries;
                t += mem::kDirNackBackoffBase
                     << std::min(attempt, mem::kDirNackBackoffCap);
            }
            const unsigned from =
                static_cast<unsigned>(rng.uniform(nodes));
            const unsigned to =
                static_cast<unsigned>(rng.uniform(nodes));
            const sim::Tick link = dir.linkTraverse(from, to, 4);
            // Per-link delay is capped like the home queue; the
            // longest route in a 4-node ring/mesh is 2 hops.
            EXPECT_LE(link, 2 * 4 * 6) << "seed " << seed;
            if (rng.chance(0.25))
                dir.advanceEpoch(256);
        }
        // Every NACK in an honest run is followed by a retry, and
        // the budget was never exhausted.
        EXPECT_EQ(dir.stats().nacks, dir.stats().retries)
            << "seed " << seed;
        EXPECT_EQ(dir.stats().livelockBreaks, 0u) << "seed " << seed;

        // Eventual drain: after an idle epoch, a far-future request
        // is admitted instantly with no queue delay.
        dir.advanceEpoch(1u << 20);
        sim::Tick queue = ~sim::Tick(0);
        EXPECT_TRUE(
            dir.tryAcquireHome(0, now + 100000, service, queue))
            << "seed " << seed;
        EXPECT_EQ(queue, 0u) << "seed " << seed;
    }
}

TEST(DirProperty, ContendedStreamsKeepSharersExactAcrossSeeds)
{
    // Sharer-map exactness and ack conservation under contention are
    // the lockstep checker's dir.* invariants; run them across seeded
    // contended geometries on both topologies.
    for (std::uint64_t seed = 21; seed < 27; ++seed) {
        const auto h = dirHeader(
            8, 2, 4,
            seed % 2 ? sim::Topology::Mesh : sim::Topology::Ring,
            1 + static_cast<unsigned>(seed % 3));
        EXPECT_EQ(
            check::violatedInvariant(h, sharedStream(seed, 8, 6000)),
            "")
            << "seed " << seed;
    }
}

TEST(DirProperty, ContendedCountersAreDeterministic)
{
    // The contended plane must not perturb determinism: identical
    // runs yield identical occupancy/link/latency counters.
    const auto run_once = [] {
        Hierarchy h(dirMachine(8, 2, 4, sim::Topology::Mesh, 2),
                    mem::LatencyModel{}, false);
        sim::Rng rng(77);
        for (unsigned i = 0; i < 20000; ++i) {
            h.access({64 * rng.uniform(4096),
                      rng.chance(0.3) ? AccessType::Store
                                      : AccessType::Load,
                      static_cast<unsigned>(rng.uniform(8))},
                     i);
        }
        sim::MetricSnapshot snap;
        h.exportMetrics(snap);
        std::vector<std::uint64_t> vals;
        for (const char *name :
             {"mem.dir.nacks", "mem.dir.retries",
              "mem.dir.occupancy_busy_cycles",
              "mem.dir.occupancy_queue_delay",
              "mem.numa.link.busy_cycles",
              "mem.numa.link.queue_delay", "mem.numa.mesh.x_hops",
              "mem.numa.mesh.y_hops", "mem.dir.lat.le_256",
              "mem.dir.lat.gt_4096"})
            vals.push_back(snap.counters.at(name));
        return vals;
    };
    const auto first = run_once();
    EXPECT_EQ(first, run_once());
    // The plane actually engaged: homes and links measured busy time.
    EXPECT_GT(first[2], 0u);
    EXPECT_GT(first[4], 0u);
}

// ---------------------------------------------------------------------
// Livelock: bounded termination, and fail-fast detection under the
// nack-storm fault.
// ---------------------------------------------------------------------

TEST(DirLivelock, PingPongTerminatesWithinRetryBound)
{
    // Two CPUs ping-ponging GetM on one block at minimum home
    // occupancy: every transaction must be admitted inside
    // kDirRetryBound attempts, so the checker sees no dir.livelock
    // (and the run terminates rather than hanging).
    const auto h =
        dirHeader(2, 1, 2, sim::Topology::Ring, 1);
    EXPECT_EQ(check::violatedInvariant(h, pingPongStream(4000)), "");
}

TEST(DirLivelock, NackStormRaisesDirLivelockAndShrinks)
{
    const auto h =
        dirHeader(2, 1, 2, sim::Topology::Ring, 1);
    const auto stream = pingPongStream(200);

    mem::FaultPlan plan;
    plan.kind = mem::FaultPlan::Kind::NackStorm;
    plan.period = 1;

    const std::string invariant =
        check::violatedInvariant(h, stream, &plan);
    EXPECT_EQ(invariant, "dir.livelock");

    check::ShrinkResult r = check::shrinkToMinimal(h, stream, &plan);
    ASSERT_TRUE(r.reproduced);
    EXPECT_EQ(r.invariant, "dir.livelock");
    EXPECT_GE(r.records.size(), 1u);
    EXPECT_EQ(check::violatedInvariant(h, r.records, &plan),
              "dir.livelock");
    // The unfaulted contended machine accepts the minimized stream.
    EXPECT_EQ(check::violatedInvariant(h, r.records), "");
}

TEST(DirLivelock, NackStormInertWithoutOccupancy)
{
    // With the contention plane disabled there is no home admission
    // to storm: the fault must not perturb the run.
    const auto h = dirHeader(2, 1, 2);
    mem::FaultPlan plan;
    plan.kind = mem::FaultPlan::Kind::NackStorm;
    plan.period = 1;
    EXPECT_EQ(check::violatedInvariant(h, pingPongStream(500), &plan),
              "");
}

TEST(DirLivelock, FirstBreakAfterMeasurementResetIsReported)
{
    // A whole contended-directory machine under a nack-storm breaks
    // livelocks in the warmup and again after beginMeasurement(),
    // which zeroes the break count. The collection-mode checker must
    // report every measured break as it happens, not only once the
    // measured breaks outnumber the warmup's.
    core::ExperimentSpec spec;
    spec.workload = core::WorkloadKind::SpecJbb;
    spec.appCpus = 4;
    spec.protocol = sim::CoherenceProtocol::DirectoryMesi;
    spec.numaNodes = 2;
    spec.dirOccupancy = 1;
    spec.seed = 5;
    mem::FaultPlan plan;
    plan.kind = mem::FaultPlan::Kind::NackStorm;
    plan.period = 16;
    core::BuiltWorkload workload;
    auto system = core::buildSystem(spec, workload);
    check::CheckOptions opts;
    opts.failFast = false;
    system->enableChecking(opts);
    system->memory().setFaultPlan(&plan);
    const check::CheckReport &report = system->checker()->report();
    const auto breaks = [&] {
        return system->memory().directory()->stats().livelockBreaks;
    };

    system->run(2'000'000);
    const std::uint64_t warm = breaks();
    ASSERT_GT(warm, 0u);
    EXPECT_EQ(report.totalViolations(), warm);

    system->beginMeasurement();
    ASSERT_EQ(breaks(), 0u);
    system->run(500'000);
    const std::uint64_t measured = breaks();
    // The case a running total misses: fewer breaks than the warmup.
    ASSERT_GT(measured, 0u);
    ASSERT_LT(measured, warm);
    EXPECT_EQ(report.totalViolations() - warm, measured);
    for (const check::Violation &v : report.violations())
        EXPECT_EQ(v.invariant, "dir.livelock") << v.detail;
}
