/**
 * @file
 * The hierarchy's per-block table (one inline record per block, on
 * the coherence hot path of mem::Hierarchy) and the sharer-group bit
 * vectors: record word views and the owning SharerSet.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/block_meta.hh"
#include "mem/sharer_set.hh"
#include "sim/rng.hh"

using namespace middlesim;
using mem::BlockMetaTable;
using mem::ConstLineMeta;
using mem::LineMeta;
using mem::SharerSet;

TEST(SharerSetTest, InlineSmallGeometry)
{
    SharerSet s(16);
    EXPECT_TRUE(s.none());
    EXPECT_EQ(s.count(), 0u);
    s.set(0);
    s.set(15);
    EXPECT_FALSE(s.none());
    EXPECT_EQ(s.count(), 2u);
    EXPECT_TRUE(s.test(0));
    EXPECT_TRUE(s.test(15));
    EXPECT_FALSE(s.test(7));
    s.clear(0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_FALSE(s.test(0));
    EXPECT_TRUE(s.test(15));
}

TEST(SharerSetTest, WideGeometryPastInlineBits)
{
    SharerSet s(512);
    EXPECT_GE(s.words(), 8u);
    s.set(0);
    s.set(63);
    s.set(64);
    s.set(511);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_TRUE(s.test(64));
    EXPECT_TRUE(s.test(511));
    EXPECT_FALSE(s.test(256));

    std::vector<unsigned> seen;
    s.forEachSet([&](unsigned g) { seen.push_back(g); });
    EXPECT_EQ(seen, (std::vector<unsigned>{0, 63, 64, 511}));

    seen.clear();
    s.forEachSetExcept(64, [&](unsigned g) { seen.push_back(g); });
    EXPECT_EQ(seen, (std::vector<unsigned>{0, 63, 511}));

    for (const unsigned g : seen)
        s.clear(g);
    s.clear(64);
    EXPECT_TRUE(s.none());
}

TEST(SharerSetTest, DeepCopyIsIndependent)
{
    SharerSet a(128);
    a.set(100);
    SharerSet b = a;
    EXPECT_TRUE(b.test(100));
    b.set(5);
    EXPECT_FALSE(a.test(5));
    EXPECT_TRUE(a.bits() == SharerSet(a).bits());
    EXPECT_FALSE(a.bits() == b.bits());
    SharerSet c(128);
    c = b;
    EXPECT_TRUE(c.test(5));
    EXPECT_TRUE(c.test(100));
}

TEST(SharerSetTest, ViewsShareTheWordAlgorithms)
{
    // A stack copy of a record vector walks like the original, and a
    // SharerSet compares equal to a view of the same bits.
    std::uint64_t words[2] = {0, 0};
    const mem::GroupBits bits(words, 2);
    bits.set(3);
    bits.set(100);
    const mem::GroupBitsCopy copy(bits);
    bits.clear(3);
    std::vector<unsigned> seen;
    copy.bits().forEachSet([&](unsigned g) { seen.push_back(g); });
    EXPECT_EQ(seen, (std::vector<unsigned>{3, 100}));
    SharerSet s(128);
    s.set(100);
    EXPECT_TRUE(s.bits() == bits);
    EXPECT_EQ(bits.toHex(), s.toHex());
}

TEST(BlockMeta, InsertFindAndMutate)
{
    BlockMetaTable table(16, false);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_FALSE(table.find(0x1000));

    const LineMeta meta = table[0x1000];
    EXPECT_EQ(table.size(), 1u);
    meta.everCached().set(0);
    meta.everCached().set(2);
    meta.presence().set(0);

    const LineMeta found = table.find(0x1000);
    ASSERT_TRUE(found);
    EXPECT_EQ(found.everCached().count(), 2u);
    EXPECT_TRUE(found.everCached().test(2));
    EXPECT_TRUE(found.presence().test(0));
    EXPECT_TRUE(found.invalidated().none());
    // operator[] of an existing key returns the same slot.
    EXPECT_EQ(table[0x1000].presence().data(), found.presence().data());
}

TEST(BlockMeta, FindNeverInserts)
{
    BlockMetaTable table(16, false);
    table[64];
    table.find(128);
    table.find(~static_cast<mem::Addr>(0) - 63);
    EXPECT_EQ(table.size(), 1u);
}

TEST(BlockMeta, GrowsPastInitialCapacityWithoutLosingEntries)
{
    // Force several rehashes and mirror against unordered_map.
    BlockMetaTable table(32, false, 16);
    std::unordered_map<mem::Addr, std::uint32_t> mirror;
    sim::Rng rng(5);
    for (int i = 0; i < 50000; ++i) {
        const mem::Addr block = rng.uniform(20000) * 64;
        const unsigned bit = static_cast<unsigned>(rng.uniform(32));
        table[block].everCached().set(bit);
        mirror[block] |= 1u << bit;
    }
    EXPECT_EQ(table.size(), mirror.size());
    for (const auto &[block, mask] : mirror) {
        const LineMeta meta = table.find(block);
        ASSERT_TRUE(meta) << block;
        for (unsigned g = 0; g < 32; ++g)
            EXPECT_EQ(meta.everCached().test(g), ((mask >> g) & 1u) != 0)
                << block << " group " << g;
    }
}

namespace
{

/**
 * Grow a 128-group directory table (88 B slots) from 16 slots past
 * 1 MB, then clear it and grow it again from one large array into the
 * next; every record must match its mirror throughout. With `mapped`,
 * every array after the first is mapped, and each doubling past
 * 256 KB hands its old array back in several stretches.
 */
void
growPastOneMegabyte(bool mapped)
{
    constexpr std::size_t kMegabyte = std::size_t{1} << 20;
    BlockMetaTable table(128, true, 16);
    if (mapped)
        table.mapNewArrays();
    ASSERT_EQ(table.slotBytes(), 88u);
    ASSERT_LT(table.capacity() * table.slotBytes(), kMegabyte);

    struct Record
    {
        std::int32_t owner;
        sim::Tick transientUntil;
        unsigned sharer;
        unsigned present;
    };
    std::unordered_map<mem::Addr, Record> mirror;
    sim::Rng rng(23);
    const auto fill = [&](std::size_t blocks) {
        while (mirror.size() < blocks) {
            const mem::Addr block = rng.uniform(1ULL << 30) * 64;
            if (mirror.count(block))
                continue;
            const Record r{static_cast<std::int32_t>(rng.uniform(128)),
                           rng.uniform(1'000'000),
                           static_cast<unsigned>(rng.uniform(128)),
                           static_cast<unsigned>(rng.uniform(128))};
            const LineMeta meta = table[block];
            meta.setOwner(r.owner);
            meta.setTransientUntil(r.transientUntil);
            meta.sharers().set(r.sharer);
            meta.presence().set(r.present);
            mirror[block] = r;
        }
    };
    const auto expectMirrored = [&] {
        EXPECT_EQ(table.size(), mirror.size());
        for (const auto &[block, r] : mirror) {
            const ConstLineMeta meta = std::as_const(table).find(block);
            ASSERT_TRUE(meta) << block;
            EXPECT_EQ(meta.owner(), r.owner) << block;
            EXPECT_EQ(meta.transientUntil(), r.transientUntil) << block;
            EXPECT_EQ(meta.sharers().count(), 1u) << block;
            EXPECT_TRUE(meta.sharers().test(r.sharer)) << block;
            EXPECT_EQ(meta.presence().count(), 1u) << block;
            EXPECT_TRUE(meta.presence().test(r.present)) << block;
            EXPECT_TRUE(meta.everCached().none()) << block;
        }
    };

    fill(8000);
    const std::size_t large = table.capacity();
    EXPECT_GE(large * table.slotBytes(), kMegabyte);
    expectMirrored();

    table.clear();
    mirror.clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.capacity(), large);
    fill(16000);
    EXPECT_GT(table.capacity(), large);
    expectMirrored();
}

} // namespace

TEST(BlockMeta, HeapAndMappedArraysGrowWithoutLosingRecords)
{
    growPastOneMegabyte(false);
    growPastOneMegabyte(true);
}

TEST(BlockMeta, WideGeometryRecordsKeepTheirWidth)
{
    // A table built for a 512-group directory machine hands out
    // records whose vectors span all eight words, across growth.
    BlockMetaTable table(512, true, 4);
    for (mem::Addr block = 0; block < 64 * 64; block += 64) {
        table[block].presence().set(300);
        table[block].sharers().set(511);
    }
    EXPECT_EQ(table.size(), 64u);
    table.forEach([&](mem::Addr, LineMeta meta) {
        EXPECT_TRUE(meta.presence().test(300));
        EXPECT_TRUE(meta.sharers().test(511));
        EXPECT_EQ(meta.sharers().count(), 1u);
        EXPECT_EQ(meta.presence().words(), 8u);
    });
}

TEST(BlockMeta, SlotsAreSizedToTheMachine)
{
    // key + flags/owner + three W-word vectors (+ sharers and the
    // transient window under the directory protocol).
    EXPECT_EQ(BlockMetaTable(16, false).slotBytes(), 40u);
    EXPECT_EQ(BlockMetaTable(32, false).slotBytes(), 40u);
    EXPECT_EQ(BlockMetaTable(64, true).slotBytes(), 56u);
    EXPECT_EQ(BlockMetaTable(65, true).slotBytes(), 88u);
    EXPECT_EQ(BlockMetaTable(128, true).slotBytes(), 88u);
    EXPECT_EQ(BlockMetaTable(512, true).slotBytes(), 280u);
    BlockMetaTable widest(1024, true);
    EXPECT_EQ(widest[0].sharers().words(), mem::kMaxGroupWords);
}

TEST(BlockMeta, StartsSmallAndDoublesAtSeventyPercentLoad)
{
    BlockMetaTable table(16, false);
    EXPECT_EQ(table.capacity(), BlockMetaTable::kInitialSlots);
    const std::size_t limit = BlockMetaTable::kInitialSlots * 7 / 10;
    for (mem::Addr i = 0; i < limit; ++i)
        table[i * 64];
    EXPECT_EQ(table.capacity(), BlockMetaTable::kInitialSlots);
    table[limit * 64];
    EXPECT_EQ(table.capacity(), 2 * BlockMetaTable::kInitialSlots);
    EXPECT_EQ(table.size(), limit + 1);
}

TEST(BlockMeta, DirectoryFieldsStartQuiescentAndStayIndependent)
{
    BlockMetaTable table(128, true, 16);
    const LineMeta meta = table[0x40];
    EXPECT_EQ(meta.owner(), -1);
    EXPECT_TRUE(meta.sharers().none());
    EXPECT_EQ(meta.transientUntil(), 0u);
    EXPECT_FALSE(meta.touched());

    meta.setOwner(127);
    meta.setTouched(true);
    meta.setTransientUntil(99);
    EXPECT_EQ(meta.owner(), 127);
    EXPECT_TRUE(meta.touched());
    meta.setOwner(-1);
    EXPECT_EQ(meta.owner(), -1);
    EXPECT_TRUE(meta.touched());
    meta.setOwner(0);
    meta.setTouched(false);
    EXPECT_EQ(meta.owner(), 0);

    // Growth moves whole records.
    for (mem::Addr block = 0x80; block < 64 * 200; block += 64)
        table[block];
    const ConstLineMeta moved = std::as_const(table).find(0x40);
    ASSERT_TRUE(moved);
    EXPECT_EQ(moved.owner(), 0);
    EXPECT_EQ(moved.transientUntil(), 99u);
    EXPECT_FALSE(moved.touched());
}

TEST(BlockMeta, ForEachVisitsEveryEntryOnce)
{
    BlockMetaTable table(16, false);
    for (mem::Addr block = 0; block < 100 * 64; block += 64)
        table[block].setTouched(true);
    std::size_t visits = 0;
    table.forEach([&](mem::Addr block, LineMeta meta) {
        EXPECT_EQ(block % 64, 0u);
        EXPECT_TRUE(meta.touched());
        ++visits;
    });
    EXPECT_EQ(visits, 100u);
}

TEST(BlockMeta, ClearEmptiesTheTable)
{
    BlockMetaTable table(16, true);
    table[0x40].presence().set(0);
    table[0x40].setOwner(3);
    table.clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_FALSE(table.find(0x40));
    // Reinsertion after clear starts fresh.
    EXPECT_TRUE(table[0x40].presence().none());
    EXPECT_EQ(table[0x40].owner(), -1);
}
