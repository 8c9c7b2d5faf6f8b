/**
 * @file
 * Heap, allocator, GC program and JVM facade tests.
 */

#include <gtest/gtest.h>

#include "gc_bound.hh"
#include "jvm/gc.hh"
#include "jvm/heap.hh"
#include "jvm/jvm.hh"

using namespace middlesim;
using jvm::GcProgram;
using jvm::GcWork;
using jvm::Heap;
using jvm::HeapParams;
using jvm::Jvm;
using jvm::JvmParams;

namespace
{

JvmParams
smallJvm()
{
    JvmParams p;
    p.heap.heapBytes = 256ULL << 20;
    p.heap.newGenBytes = 4ULL << 20;
    p.heap.overshootBytes = 2ULL << 20;
    p.heap.tlabBytes = 16 * 1024;
    return p;
}

} // namespace

TEST(Heap, LayoutAndCapacity)
{
    HeapParams p;
    p.heapBytes = 64ULL << 20;
    p.newGenBytes = 16ULL << 20;
    Heap heap(p);
    EXPECT_EQ(heap.newGenBase(), Heap::base);
    EXPECT_EQ(heap.oldGenBase(), Heap::base + p.newGenBytes);
    EXPECT_EQ(heap.newGenCapacity(), 16ULL << 20);
    EXPECT_EQ(heap.oldGenCapacity(), 48ULL << 20);
}

TEST(Heap, TlabsAreContiguousAndDistinct)
{
    HeapParams p;
    p.tlabBytes = 4096;
    Heap heap(p);
    const mem::Addr a = heap.takeTlab();
    const mem::Addr b = heap.takeTlab();
    EXPECT_EQ(a, heap.newGenBase());
    EXPECT_EQ(b, a + 4096);
    EXPECT_EQ(heap.youngUsed(), 8192u);
}

TEST(Heap, GcTriggerAndReset)
{
    HeapParams p;
    p.heapBytes = 64ULL << 20;
    p.newGenBytes = 1ULL << 20;
    p.overshootBytes = 1ULL << 20;
    p.tlabBytes = 256 * 1024;
    Heap heap(p);
    EXPECT_FALSE(heap.gcNeeded());
    for (int i = 0; i < 4; ++i)
        heap.takeTlab();
    EXPECT_TRUE(heap.gcNeeded());
    heap.resetYoung();
    EXPECT_FALSE(heap.gcNeeded());
    EXPECT_EQ(heap.youngUsed(), 0u);
}

TEST(Heap, OldGenPretenureAndCompaction)
{
    Heap heap;
    const mem::Addr a = heap.allocateOld(100); // rounded to 128
    EXPECT_EQ(a, heap.oldGenBase());
    EXPECT_EQ(heap.oldUsed(), 128u);
    heap.pretenureSeal();
    heap.allocateOld(64 << 10);
    EXPECT_GT(heap.oldUsed(), 128u);
    // Compaction never reclaims below the pretenured floor.
    heap.compactOld(0);
    EXPECT_EQ(heap.oldUsed(), 128u);
    EXPECT_EQ(heap.pretenuredBytes(), 128u);
}

TEST(Jvm, TlabFastPathAndRefill)
{
    Jvm vm(smallJvm(), sim::Rng(1));
    const unsigned tid = vm.registerThread();
    exec::Burst burst;
    const mem::Addr a = vm.allocate(tid, 64, &burst);
    // First allocation refills a TLAB: a CAS on the shared cursor.
    bool saw_atomic = false;
    for (const auto &r : burst.refs)
        saw_atomic |= r.type == mem::AccessType::Atomic;
    EXPECT_TRUE(saw_atomic);

    burst.clear();
    const mem::Addr b = vm.allocate(tid, 64, &burst);
    EXPECT_EQ(b, a + 64);
    // Fast path: no CAS.
    for (const auto &r : burst.refs)
        EXPECT_NE(r.type, mem::AccessType::Atomic);
}

TEST(Jvm, InitStoresAreCappedBlockStores)
{
    JvmParams p = smallJvm();
    p.maxInitStores = 4;
    Jvm vm(p, sim::Rng(1));
    const unsigned tid = vm.registerThread();
    exec::Burst burst;
    vm.allocate(tid, 4096, &burst);
    unsigned block_stores = 0;
    for (const auto &r : burst.refs) {
        if (r.type == mem::AccessType::BlockStore)
            ++block_stores;
    }
    EXPECT_EQ(block_stores, 4u);
}

TEST(Jvm, ThreadsGetDistinctTlabs)
{
    Jvm vm(smallJvm(), sim::Rng(1));
    const unsigned t0 = vm.registerThread();
    const unsigned t1 = vm.registerThread();
    const mem::Addr a = vm.allocate(t0, 64, nullptr);
    const mem::Addr b = vm.allocate(t1, 64, nullptr);
    EXPECT_NE(a / smallJvm().heap.tlabBytes,
              b / smallJvm().heap.tlabBytes);
}

TEST(Jvm, GcRequestedAfterHeavyAllocation)
{
    Jvm vm(smallJvm(), sim::Rng(1));
    const unsigned tid = vm.registerThread();
    while (!vm.gcRequested())
        vm.allocate(tid, 8192, nullptr);
    EXPECT_TRUE(vm.gcRequested());
}

TEST(Jvm, MinorCollectionLifecycle)
{
    Jvm vm(smallJvm(), sim::Rng(1));
    vm.setLiveBytesProvider([] { return 32ULL << 20; });
    const unsigned tid = vm.registerThread();
    while (!vm.gcRequested())
        vm.allocate(tid, 8192, nullptr);

    auto program = vm.beginCollection();
    // Drive the collector to completion.
    exec::Burst burst;
    int guard = 0;
    while (guard++ < 100000) {
        burst.clear();
        if (program->next(burst, 0).kind == exec::OpKind::Exit)
            break;
    }
    ASSERT_LT(guard, 100000);
    vm.endCollection(100, 400);

    EXPECT_FALSE(vm.gcRequested());
    EXPECT_EQ(vm.stats().minorCollections, 1u);
    EXPECT_EQ(vm.stats().majorCollections, 0u);
    EXPECT_EQ(vm.stats().totalPause, 300u);
    ASSERT_EQ(vm.stats().log.size(), 1u);
    // Minor collections report live data with copying slack.
    const double live_mb = 32.0;
    EXPECT_GT(vm.stats().log[0].liveAfterMB, live_mb);
}

TEST(Jvm, MajorCollectionCompactsAndReportsTight)
{
    JvmParams p = smallJvm();
    p.majorThreshold = 0.0001; // force a major immediately
    Jvm vm(p, sim::Rng(1));
    const std::uint64_t live = 8ULL << 20;
    vm.setLiveBytesProvider([=] { return live; });
    const unsigned tid = vm.registerThread();
    // Put some promoted garbage in the old generation first.
    vm.heap().allocateOld(16ULL << 20);
    while (!vm.gcRequested())
        vm.allocate(tid, 8192, nullptr);

    auto program = vm.beginCollection();
    exec::Burst burst;
    while (program->next(burst, 0).kind != exec::OpKind::Exit)
        burst.clear();
    vm.endCollection(0, 100);

    EXPECT_EQ(vm.stats().majorCollections, 1u);
    // Compaction reports exactly the live bytes.
    EXPECT_NEAR(vm.stats().log[0].liveAfterMB, 8.0, 0.01);
}

TEST(Jvm, LocksLiveOnDistinctHeapLines)
{
    Jvm vm(smallJvm(), sim::Rng(1));
    exec::Lock &a = vm.makeLock("a");
    exec::Lock &b = vm.makeLock("b");
    EXPECT_NE(a.lineAddr(), b.lineAddr());
    EXPECT_GE(a.lineAddr(), vm.heap().oldGenBase());
    EXPECT_NE(&vm.internalLock(), &a);
}

TEST(GcProgram, PhasesAndWorkCoverage)
{
    GcWork work;
    work.fromBase = 0x10000000;
    work.youngUsed = 1 << 20;
    work.survivorBytes = 64 * 1024;
    work.toBase = 0x20000000;
    work.rootScanInstr = 5000;
    work.instrPerLine = 10;

    GcProgram gc(work, sim::Rng(3));
    exec::Burst burst;
    std::uint64_t to_stores = 0;
    std::uint64_t from_loads = 0;
    std::uint64_t instructions = 0;
    int ops = 0;
    while (true) {
        burst.clear();
        const auto op = gc.next(burst, 0);
        if (op.kind == exec::OpKind::Exit)
            break;
        ASSERT_EQ(op.kind, exec::OpKind::Burst);
        instructions += burst.instructions;
        for (const auto &r : burst.refs) {
            if (r.type == mem::AccessType::BlockStore &&
                r.addr >= work.toBase) {
                ++to_stores;
            }
            if (r.type == mem::AccessType::Load &&
                r.addr >= work.fromBase &&
                r.addr < work.fromBase + work.youngUsed) {
                ++from_loads;
            }
        }
        ASSERT_LT(++ops, 100000);
    }
    // Every survivor line is written exactly once.
    EXPECT_EQ(to_stores, work.survivorBytes / 64);
    EXPECT_GT(from_loads, 0u);
    EXPECT_GE(instructions, work.rootScanInstr);
    EXPECT_LE(instructions, test::estimateInstructions(work) * 2);
}

TEST(GcProgram, CompactPhaseTouchesOldGen)
{
    GcWork work;
    work.fromBase = 0x10000000;
    work.youngUsed = 1 << 20;
    work.survivorBytes = 0;
    work.rootScanInstr = 0;
    work.compactBytes = 32 * 1024;
    work.oldBase = 0x40000000;

    GcProgram gc(work, sim::Rng(3));
    exec::Burst burst;
    std::uint64_t old_refs = 0;
    while (true) {
        burst.clear();
        if (gc.next(burst, 0).kind == exec::OpKind::Exit)
            break;
        for (const auto &r : burst.refs) {
            if (r.addr >= work.oldBase)
                ++old_refs;
        }
    }
    EXPECT_GT(old_refs, 0u);
}

TEST(Jvm, FloatingGarbageAccumulatesUntilMajor)
{
    JvmParams p = smallJvm();
    p.promoteFraction = 0.05;
    Jvm vm(p, sim::Rng(1));
    const std::uint64_t live = 4ULL << 20;
    vm.setLiveBytesProvider([=] { return live; });
    const unsigned tid = vm.registerThread();

    auto one_gc = [&] {
        while (!vm.gcRequested())
            vm.allocate(tid, 8192, nullptr);
        auto program = vm.beginCollection();
        exec::Burst burst;
        while (program->next(burst, 0).kind != exec::OpKind::Exit)
            burst.clear();
        vm.endCollection(0, 10);
    };

    one_gc();
    const double first = vm.stats().log.back().liveAfterMB;
    one_gc();
    const double second = vm.stats().log.back().liveAfterMB;
    // Floating promoted garbage grows the reported heap use.
    EXPECT_GT(second, first);
}
