/**
 * @file
 * Execution vocabulary, machine configuration validation, and
 * error-path (panic/fatal) behavior.
 */

#include <gtest/gtest.h>

#include "exec/program.hh"
#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/ticks.hh"
#include "stats/table.hh"

using namespace middlesim;

TEST(Burst, HelpersRecordTypedRefs)
{
    exec::Burst b;
    b.load(0x100);
    b.store(0x200);
    b.atomic(0x300);
    b.blockStore(0x400);
    ASSERT_EQ(b.refs.size(), 4u);
    EXPECT_EQ(b.refs[0].type, mem::AccessType::Load);
    EXPECT_EQ(b.refs[1].type, mem::AccessType::Store);
    EXPECT_EQ(b.refs[2].type, mem::AccessType::Atomic);
    EXPECT_EQ(b.refs[3].type, mem::AccessType::BlockStore);
    b.clear();
    EXPECT_TRUE(b.refs.empty());
    EXPECT_EQ(b.instructions, 0u);
    EXPECT_EQ(b.code.bytes, 0u);
    EXPECT_EQ(b.mode, exec::ExecMode::User);
}

TEST(AccessType, IsWriteClassification)
{
    using mem::AccessType;
    EXPECT_FALSE(mem::isWrite(AccessType::IFetch));
    EXPECT_FALSE(mem::isWrite(AccessType::Load));
    EXPECT_TRUE(mem::isWrite(AccessType::Store));
    EXPECT_TRUE(mem::isWrite(AccessType::Atomic));
    EXPECT_TRUE(mem::isWrite(AccessType::BlockStore));
}

TEST(Ticks, ClockConversions)
{
    EXPECT_DOUBLE_EQ(sim::ticksToSeconds(248000000), 1.0);
    EXPECT_DOUBLE_EQ(sim::ticksToSeconds(31000000), 0.125);
}

TEST(CacheParams, GeometryDerivation)
{
    sim::CacheParams p{1u << 20, 4, 64};
    EXPECT_EQ(p.numBlocks(), 16384u);
    EXPECT_EQ(p.numSets(), 4096u);
    p.validate("ok"); // must not exit
}

TEST(MachineConfig, L2GroupCount)
{
    sim::MachineConfig m;
    m.totalCpus = 16;
    m.cpusPerL2 = 4;
    EXPECT_EQ(m.numL2s(), 4u);
    m.cpusPerL2 = 1;
    EXPECT_EQ(m.numL2s(), 16u);
    m.validate();
}

using ConfigDeath = ::testing::Test;

TEST(ConfigDeath, NonPowerOfTwoBlockIsFatal)
{
    sim::CacheParams p{4096, 2, 48};
    EXPECT_EXIT(p.validate("bad"), ::testing::ExitedWithCode(1),
                "power of two");
}

TEST(ConfigDeath, SizeNotMultipleIsFatal)
{
    sim::CacheParams p{1000, 2, 64};
    EXPECT_EXIT(p.validate("bad"), ::testing::ExitedWithCode(1),
                "multiple");
}

TEST(ConfigDeath, AppCpusOutOfRangeIsFatal)
{
    sim::MachineConfig m;
    m.appCpus = 99;
    EXPECT_EXIT(m.validate(), ::testing::ExitedWithCode(1),
                "appCpus");
}

TEST(ConfigDeath, SharingMustDivideCpus)
{
    sim::MachineConfig m;
    m.totalCpus = 16;
    m.cpusPerL2 = 3;
    EXPECT_EXIT(m.validate(), ::testing::ExitedWithCode(1),
                "cpusPerL2");
}

TEST(LogDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom ", 42), "boom 42");
}

TEST(LogDeath, SimAssertCarriesMessage)
{
    EXPECT_DEATH(sim_assert(1 == 2, "math broke"),
                 "assertion failed.*math broke");
}

TEST(LogDeath, TableRowMismatchPanics)
{
    stats::Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

TEST(Log, FormatMessage)
{
    EXPECT_EQ(sim::formatMessage("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(sim::formatMessage(), "");
}

TEST(NextOp, Defaults)
{
    exec::NextOp op;
    EXPECT_EQ(op.kind, exec::OpKind::Burst);
    EXPECT_EQ(op.mode, exec::ExecMode::User);
    EXPECT_EQ(op.lock, nullptr);
    EXPECT_EQ(op.pool, nullptr);
    EXPECT_EQ(op.wait, 0u);
}
