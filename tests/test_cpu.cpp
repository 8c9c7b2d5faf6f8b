/**
 * @file
 * In-order core timing and store buffer tests.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "cpu/storebuffer.hh"
#include "mem/hierarchy.hh"

using namespace middlesim;
using cpu::CoreParams;
using cpu::InOrderCore;
using cpu::StoreBuffer;

namespace
{

sim::MachineConfig
machine2()
{
    sim::MachineConfig m;
    m.totalCpus = 2;
    m.appCpus = 2;
    m.l1i = {1024, 2, 64};
    m.l1d = {1024, 2, 64};
    m.l2 = {8192, 2, 64};
    return m;
}

CoreParams
noRaw()
{
    CoreParams p;
    p.rawProbability = 0.0;
    return p;
}

} // namespace

TEST(StoreBuffer, AbsorbsUpToDepth)
{
    StoreBuffer sb(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(sb.issue(0, 100), 0u);
    // Fifth store at t=0 must wait for the first drain (t=100).
    EXPECT_EQ(sb.issue(0, 100), 100u);
}

TEST(StoreBuffer, DrainsOverTime)
{
    StoreBuffer sb(2);
    sb.issue(0, 50);
    sb.issue(0, 50);
    // At t=200 both have drained: no stall.
    EXPECT_EQ(sb.issue(200, 50), 0u);
    EXPECT_EQ(sb.occupancy(200), 1u);
}

TEST(StoreBuffer, SerializedDrain)
{
    StoreBuffer sb(8);
    sb.issue(0, 100); // drains at 100
    sb.issue(0, 100); // drains at 200 (serialized), not 100
    EXPECT_EQ(sb.occupancy(150), 1u);
    EXPECT_EQ(sb.occupancy(250), 0u);
}

TEST(InOrderCore, BaseCpiAccounting)
{
    mem::Hierarchy mem(machine2(), mem::LatencyModel{}, false);
    InOrderCore core(0, mem, noRaw(), sim::Rng(1));
    core.execInstructions(1000);
    EXPECT_EQ(core.breakdown().instructions, 1000u);
    // base CPI 1.40 -> 1400 cycles.
    EXPECT_NEAR(static_cast<double>(core.breakdown().base), 1400.0,
                2.0);
    EXPECT_EQ(core.now(), core.breakdown().base);
}

TEST(InOrderCore, FractionalBaseCpiCarries)
{
    mem::Hierarchy mem(machine2(), mem::LatencyModel{}, false);
    CoreParams p = noRaw();
    p.baseCpi = 1.5;
    InOrderCore core(0, mem, p, sim::Rng(1));
    for (int i = 0; i < 1000; ++i)
        core.execInstructions(1);
    EXPECT_NEAR(static_cast<double>(core.breakdown().base), 1500.0,
                2.0);
}

TEST(InOrderCore, LoadMissChargesMemoryBucket)
{
    mem::LatencyModel lat;
    mem::Hierarchy mem(machine2(), lat, false);
    InOrderCore core(0, mem, noRaw(), sim::Rng(1));
    core.load(0x4000);
    EXPECT_EQ(core.breakdown().dsMemory, lat.memory);
    EXPECT_EQ(core.breakdown().dsC2C, 0u);
}

TEST(InOrderCore, L1HitIsFree)
{
    mem::Hierarchy mem(machine2(), mem::LatencyModel{}, false);
    InOrderCore core(0, mem, noRaw(), sim::Rng(1));
    core.load(0x4000);
    const sim::Tick t = core.now();
    core.load(0x4000); // L1 hit: covered by base CPI
    EXPECT_EQ(core.now(), t);
}

TEST(InOrderCore, CopybackChargesC2cBucket)
{
    mem::LatencyModel lat;
    mem::Hierarchy mem(machine2(), lat, false);
    InOrderCore writer(1, mem, noRaw(), sim::Rng(2));
    InOrderCore reader(0, mem, noRaw(), sim::Rng(3));
    writer.store(0x4000);
    reader.load(0x4000);
    EXPECT_EQ(reader.breakdown().dsC2C, lat.cacheToCache);
}

TEST(InOrderCore, StoresAbsorbedByBuffer)
{
    mem::Hierarchy mem(machine2(), mem::LatencyModel{}, false);
    InOrderCore core(0, mem, noRaw(), sim::Rng(1));
    // A few isolated stores never stall.
    for (int i = 0; i < 4; ++i)
        core.store(0x4000 + i * 64);
    EXPECT_EQ(core.breakdown().dsStoreBuf, 0u);
    // A long burst of store misses must eventually stall.
    for (int i = 0; i < 64; ++i)
        core.store(0x100000 + i * 64);
    EXPECT_GT(core.breakdown().dsStoreBuf, 0u);
}

TEST(InOrderCore, InstructionFetchStall)
{
    mem::LatencyModel lat;
    mem::Hierarchy mem(machine2(), lat, false);
    InOrderCore core(0, mem, noRaw(), sim::Rng(1));
    core.fetchBlock(0x8000);
    EXPECT_EQ(core.breakdown().iStall, lat.memory);
    core.fetchBlock(0x8000); // L1I hit
    EXPECT_EQ(core.breakdown().iStall, lat.memory);
}

TEST(InOrderCore, RawHazardForced)
{
    mem::Hierarchy mem(machine2(), mem::LatencyModel{}, false);
    CoreParams p;
    p.rawProbability = 1.0;
    p.rawPenalty = 7;
    InOrderCore core(0, mem, p, sim::Rng(1));
    core.load(0x4000);
    core.load(0x4000);
    EXPECT_EQ(core.breakdown().dsRaw, 14u);
}

TEST(InOrderCore, BucketsSumToTotalCycles)
{
    mem::Hierarchy mem(machine2(), mem::LatencyModel{}, false);
    CoreParams p;
    p.rawProbability = 0.05;
    InOrderCore core(0, mem, p, sim::Rng(9));
    sim::Rng rng(4);
    for (int i = 0; i < 2000; ++i) {
        core.execInstructions(rng.uniform(30) + 1);
        const mem::Addr a = rng.uniform(4096) * 64;
        switch (rng.uniform(4)) {
          case 0: core.load(a); break;
          case 1: core.store(a); break;
          case 2: core.atomic(a); break;
          default: core.fetchBlock(a); break;
        }
    }
    EXPECT_EQ(core.breakdown().totalCycles(), core.now());
    EXPECT_GT(core.breakdown().cpi(), 1.0);
}

TEST(InOrderCore, AdvanceToNeverMovesBackwards)
{
    mem::Hierarchy mem(machine2(), mem::LatencyModel{}, false);
    InOrderCore core(0, mem, noRaw(), sim::Rng(1));
    core.execInstructions(100);
    const sim::Tick t = core.now();
    core.advanceTo(t - 50);
    EXPECT_EQ(core.now(), t);
    core.advanceTo(t + 50);
    EXPECT_EQ(core.now(), t + 50);
}

TEST(CpiBreakdown, FractionsAndAccumulate)
{
    cpu::CpiBreakdown a;
    a.instructions = 100;
    a.base = 100;
    a.iStall = 50;
    a.dsMemory = 50;
    EXPECT_DOUBLE_EQ(a.cpi(), 2.0);
    EXPECT_DOUBLE_EQ(a.fraction(a.dataStall()), 0.25);
    cpu::CpiBreakdown b = a;
    b.accumulate(a);
    EXPECT_EQ(b.instructions, 200u);
    EXPECT_EQ(b.totalCycles(), 400u);
}
