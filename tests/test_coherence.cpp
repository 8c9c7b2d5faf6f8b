/**
 * @file
 * MOSI protocol invariants, exercised through the full hierarchy.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"
#include "sim/rng.hh"

using namespace middlesim;
using mem::AccessType;
using mem::CoherenceState;
using mem::Hierarchy;
using mem::MemRef;
using mem::ServedBy;

namespace
{

sim::MachineConfig
smallMachine(unsigned cpus = 4, unsigned cpus_per_l2 = 1)
{
    sim::MachineConfig m;
    m.totalCpus = cpus;
    m.appCpus = cpus;
    m.cpusPerL2 = cpus_per_l2;
    m.l1i = {1024, 2, 64};
    m.l1d = {1024, 2, 64};
    m.l2 = {8192, 2, 64};
    return m;
}

MemRef
ref(mem::Addr a, AccessType t, unsigned cpu)
{
    return {a, t, cpu};
}

} // namespace

TEST(CoherenceStates, Helpers)
{
    using S = CoherenceState;
    EXPECT_TRUE(mem::canWrite(S::Modified));
    EXPECT_FALSE(mem::canWrite(S::Owned));
    EXPECT_FALSE(mem::canWrite(S::Shared));
    EXPECT_TRUE(mem::isOwner(S::Modified));
    EXPECT_TRUE(mem::isOwner(S::Owned));
    EXPECT_FALSE(mem::isOwner(S::Shared));
    EXPECT_TRUE(mem::needsWriteback(S::Modified));
    EXPECT_TRUE(mem::needsWriteback(S::Owned));
    EXPECT_FALSE(mem::needsWriteback(S::Shared));
    EXPECT_EQ(mem::peerAfterGetS(S::Modified), S::Owned);
    EXPECT_EQ(mem::peerAfterGetS(S::Shared), S::Shared);
    EXPECT_STREQ(mem::toString(S::Modified), "M");
}

TEST(Coherence, LoadInstallsShared)
{
    Hierarchy h(smallMachine(), mem::LatencyModel{}, false);
    auto res = h.access(ref(0x1000, AccessType::Load, 0), 0);
    EXPECT_EQ(res.servedBy, ServedBy::Memory);
    EXPECT_EQ(res.missClass, mem::MissClass::Cold);
    EXPECT_EQ(h.peekState(0, 0x1000), CoherenceState::Shared);
}

TEST(Coherence, StoreInstallsModified)
{
    Hierarchy h(smallMachine(), mem::LatencyModel{}, false);
    h.access(ref(0x1000, AccessType::Store, 0), 0);
    EXPECT_EQ(h.peekState(0, 0x1000), CoherenceState::Modified);
}

TEST(Coherence, SingleWriterInvariant)
{
    Hierarchy h(smallMachine(), mem::LatencyModel{}, false);
    h.access(ref(0x1000, AccessType::Store, 0), 0);
    h.access(ref(0x1000, AccessType::Store, 1), 0);
    EXPECT_EQ(h.peekState(1, 0x1000), CoherenceState::Modified);
    EXPECT_EQ(h.peekState(0, 0x1000), CoherenceState::Invalid);
}

TEST(Coherence, ReadersShare)
{
    Hierarchy h(smallMachine(), mem::LatencyModel{}, false);
    h.access(ref(0x1000, AccessType::Load, 0), 0);
    h.access(ref(0x1000, AccessType::Load, 1), 0);
    h.access(ref(0x1000, AccessType::Load, 2), 0);
    EXPECT_EQ(h.peekState(0, 0x1000), CoherenceState::Shared);
    EXPECT_EQ(h.peekState(1, 0x1000), CoherenceState::Shared);
    EXPECT_EQ(h.peekState(2, 0x1000), CoherenceState::Shared);
}

TEST(Coherence, RemoteReadDowngradesOwnerToOwned)
{
    Hierarchy h(smallMachine(), mem::LatencyModel{}, false);
    h.access(ref(0x1000, AccessType::Store, 0), 0);
    auto res = h.access(ref(0x1000, AccessType::Load, 1), 0);
    EXPECT_EQ(res.servedBy, ServedBy::Peer);
    EXPECT_EQ(h.peekState(0, 0x1000), CoherenceState::Owned);
    EXPECT_EQ(h.peekState(1, 0x1000), CoherenceState::Shared);
    EXPECT_EQ(h.cpuStats(1).c2cTransfers, 1u);
}

TEST(Coherence, OwnedKeepsSupplyingData)
{
    Hierarchy h(smallMachine(), mem::LatencyModel{}, false);
    h.access(ref(0x1000, AccessType::Store, 0), 0);
    h.access(ref(0x1000, AccessType::Load, 1), 0);
    auto res = h.access(ref(0x1000, AccessType::Load, 2), 0);
    EXPECT_EQ(res.servedBy, ServedBy::Peer);
    EXPECT_EQ(h.peekState(0, 0x1000), CoherenceState::Owned);
}

TEST(Coherence, UpgradeFromShared)
{
    Hierarchy h(smallMachine(), mem::LatencyModel{}, false);
    h.access(ref(0x1000, AccessType::Load, 0), 0);
    h.access(ref(0x1000, AccessType::Load, 1), 0);
    auto res = h.access(ref(0x1000, AccessType::Store, 0), 0);
    EXPECT_EQ(res.servedBy, ServedBy::UpgradeOnly);
    EXPECT_EQ(h.peekState(0, 0x1000), CoherenceState::Modified);
    EXPECT_EQ(h.peekState(1, 0x1000), CoherenceState::Invalid);
    EXPECT_EQ(h.cpuStats(0).upgrades, 1u);
}

TEST(Coherence, CoherenceMissClassification)
{
    Hierarchy h(smallMachine(), mem::LatencyModel{}, false);
    h.access(ref(0x1000, AccessType::Load, 0), 0);   // cold
    h.access(ref(0x1000, AccessType::Store, 1), 0);  // invalidates cpu0
    auto res = h.access(ref(0x1000, AccessType::Load, 0), 0);
    EXPECT_EQ(res.missClass, mem::MissClass::Coherence);
    EXPECT_EQ(res.servedBy, ServedBy::Peer);
    EXPECT_EQ(h.cpuStats(0).missCoherence, 1u);
}

TEST(Coherence, CapacityMissClassification)
{
    auto machine = smallMachine();
    Hierarchy h(machine, mem::LatencyModel{}, false);
    // Fill the whole 8 KB L2 of cpu 0 and then some.
    const std::uint64_t blocks = machine.l2.numBlocks();
    for (std::uint64_t i = 0; i <= blocks; ++i) {
        h.access(ref(0x100000 + i * 64, AccessType::Load, 0), 0);
    }
    // First block was evicted: re-reference is a capacity miss.
    auto res = h.access(ref(0x100000, AccessType::Load, 0), 0);
    EXPECT_EQ(res.missClass, mem::MissClass::CapacityConflict);
}

TEST(Coherence, AtomicActsAsWrite)
{
    Hierarchy h(smallMachine(), mem::LatencyModel{}, false);
    h.access(ref(0x1000, AccessType::Load, 1), 0);
    h.access(ref(0x1000, AccessType::Atomic, 0), 0);
    EXPECT_EQ(h.peekState(0, 0x1000), CoherenceState::Modified);
    EXPECT_EQ(h.peekState(1, 0x1000), CoherenceState::Invalid);
}

TEST(Coherence, BlockStoreClaimsWithoutFetch)
{
    Hierarchy h(smallMachine(), mem::LatencyModel{}, false);
    h.access(ref(0x1000, AccessType::Store, 1), 0);
    const auto misses_before = h.aggregateAll().l2Misses();
    auto res = h.access(ref(0x1000, AccessType::BlockStore, 0), 0);
    EXPECT_EQ(res.missClass, mem::MissClass::None);
    EXPECT_EQ(h.aggregateAll().l2Misses(), misses_before);
    EXPECT_EQ(h.peekState(0, 0x1000), CoherenceState::Modified);
    EXPECT_EQ(h.peekState(1, 0x1000), CoherenceState::Invalid);
    EXPECT_EQ(h.aggregateAll().blockStores, 1u);
}

TEST(Coherence, WritebackOnDirtyEviction)
{
    auto machine = smallMachine();
    Hierarchy h(machine, mem::LatencyModel{}, false);
    h.access(ref(0x0, AccessType::Store, 0), 0);
    // Conflict-evict the dirty line.
    const std::uint64_t sets = machine.l2.numSets();
    for (unsigned w = 0; w <= machine.l2.assoc; ++w) {
        h.access(ref((w + 1) * sets * 64, AccessType::Load, 0), 0);
    }
    EXPECT_GE(h.cpuStats(0).writebacks, 1u);
    EXPECT_EQ(h.peekState(0, 0x0), CoherenceState::Invalid);
}

TEST(Coherence, L1BackInvalidation)
{
    Hierarchy h(smallMachine(), mem::LatencyModel{}, false);
    h.access(ref(0x1000, AccessType::Load, 0), 0);
    // Hits in L1 now.
    auto res = h.access(ref(0x1000, AccessType::Load, 0), 0);
    EXPECT_EQ(res.servedBy, ServedBy::L1);
    // Remote write must invalidate cpu0's L1 copy too.
    h.access(ref(0x1000, AccessType::Store, 1), 0);
    res = h.access(ref(0x1000, AccessType::Load, 0), 0);
    EXPECT_NE(res.servedBy, ServedBy::L1);
}

TEST(Coherence, SharedL2GroupsShareLines)
{
    // CPUs 0 and 1 share one L2: no coherence traffic between them.
    Hierarchy h(smallMachine(4, 2), mem::LatencyModel{}, false);
    h.access(ref(0x1000, AccessType::Store, 0), 0);
    auto res = h.access(ref(0x1000, AccessType::Load, 1), 0);
    EXPECT_EQ(res.servedBy, ServedBy::L2);
    EXPECT_EQ(h.cpuStats(1).c2cTransfers, 0u);
    // CPU 2 is in another group: this one is a copyback.
    res = h.access(ref(0x1000, AccessType::Load, 2), 0);
    EXPECT_EQ(res.servedBy, ServedBy::Peer);
}

class CoherenceSharingSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoherenceSharingSweep, NoStaleWritePermission)
{
    // Property: after any write by CPU w, no other L2 group may hold
    // write permission on the line.
    const unsigned cpus_per_l2 = GetParam();
    Hierarchy h(smallMachine(8, cpus_per_l2), mem::LatencyModel{},
                false);
    sim::Rng rng(1234);
    const mem::Addr lines[4] = {0x1000, 0x2040, 0x3080, 0x40C0};
    for (int i = 0; i < 2000; ++i) {
        const unsigned cpu = static_cast<unsigned>(rng.uniform(8));
        const mem::Addr addr = lines[rng.uniform(4)];
        const auto kind = rng.uniform(3);
        const AccessType type = kind == 0 ? AccessType::Load
                                : kind == 1 ? AccessType::Store
                                            : AccessType::Atomic;
        h.access(ref(addr, type, cpu), 0);
        if (type != AccessType::Load) {
            unsigned writers = 0;
            for (unsigned c = 0; c < 8; c += cpus_per_l2) {
                if (mem::canWrite(h.peekState(c, addr)))
                    ++writers;
            }
            EXPECT_EQ(writers, 1u) << "line " << addr;
            EXPECT_TRUE(mem::canWrite(h.peekState(cpu, addr)));
        }
    }
}

TEST_P(CoherenceSharingSweep, AtMostOneOwner)
{
    const unsigned cpus_per_l2 = GetParam();
    Hierarchy h(smallMachine(8, cpus_per_l2), mem::LatencyModel{},
                false);
    sim::Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        const unsigned cpu = static_cast<unsigned>(rng.uniform(8));
        const mem::Addr addr = 0x1000 + rng.uniform(8) * 64;
        const AccessType type =
            rng.chance(0.5) ? AccessType::Load : AccessType::Store;
        h.access(ref(addr, type, cpu), 0);
        unsigned owners = 0;
        for (unsigned c = 0; c < 8; c += cpus_per_l2) {
            if (mem::isOwner(h.peekState(c, addr)))
                ++owners;
        }
        EXPECT_LE(owners, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(SharingDegrees, CoherenceSharingSweep,
                         ::testing::Values(1, 2, 4, 8));
