/**
 * @file
 * Reference-trace subsystem tests.
 *
 * The correctness anchor is replay equivalence: for a recorded
 * execution-driven run, replaying the trace into a freshly built
 * hierarchy must reproduce bit-identical per-CPU miss counts and
 * classifications, cache-to-cache transfer footprints and region
 * attributions — across uniprocessor, SMP/shared-L2 and
 * communication-tracking configurations. On top of that: format
 * round-trips, content addressing, hostile-input handling (truncation,
 * bit flips, bad magic, garbage tails — loud errors, never UB), and
 * the end-to-end --trace-out / --trace-in sweep path used by
 * Figures 12/13.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/cache.hh"
#include "core/experiment.hh"
#include "core/figures_internal.hh"
#include "core/trace_run.hh"
#include "mem/trace_sink.hh"
#include "naive_sweep.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/threadpool.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"

using namespace middlesim;

namespace
{

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/middlesim_test_trace.XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

/** File names in `dir`, sorted (temp files included). */
std::vector<std::string>
dirEntries(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

/** Field-by-field equality of two per-CPU cache statistics records. */
void
expectStatsEqual(const mem::CacheStats &a, const mem::CacheStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.ifetches, b.ifetches) << what;
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.stores, b.stores) << what;
    EXPECT_EQ(a.atomics, b.atomics) << what;
    EXPECT_EQ(a.l1iHits, b.l1iHits) << what;
    EXPECT_EQ(a.l1dHits, b.l1dHits) << what;
    EXPECT_EQ(a.l2Accesses, b.l2Accesses) << what;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << what;
    EXPECT_EQ(a.missCold, b.missCold) << what;
    EXPECT_EQ(a.missCoherence, b.missCoherence) << what;
    EXPECT_EQ(a.missCapacity, b.missCapacity) << what;
    EXPECT_EQ(a.c2cTransfers, b.c2cTransfers) << what;
    EXPECT_EQ(a.upgrades, b.upgrades) << what;
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
    EXPECT_EQ(a.blockStores, b.blockStores) << what;
    EXPECT_EQ(a.instrMisses, b.instrMisses) << what;
    EXPECT_EQ(a.dataMisses, b.dataMisses) << what;
}

/**
 * Record `spec` execution-driven, replay the trace into a fresh
 * hierarchy, and require bit-identical memory-system state.
 */
void
expectReplayEquivalent(const core::ExperimentSpec &spec)
{
    core::TraceRecordOutcome rec = core::recordTraceRun(spec);
    ASSERT_FALSE(rec.traceData.empty());

    core::HierarchyReplayOutcome rep =
        core::replayTraceHierarchy(rec.traceData);
    ASSERT_TRUE(rep.valid) << rep.error;
    EXPECT_GT(rep.counts.refs, 0u);
    EXPECT_TRUE(rep.counts.sawMeasureBegin);
    EXPECT_EQ(rep.counts.instructions, rec.result.cpi.instructions);

    ASSERT_EQ(rep.perCpu.size(), rec.perCpu.size());
    for (std::size_t c = 0; c < rec.perCpu.size(); ++c)
        expectStatsEqual(rec.perCpu[c], rep.perCpu[c],
                         "cpu " + std::to_string(c));
    expectStatsEqual(rec.aggregate, rep.aggregate, "aggregate");

    // Exact per-line communication footprint and touched-line count.
    EXPECT_EQ(rec.c2cLines, rep.c2cLines);
    EXPECT_EQ(rec.touchedLines, rep.touchedLines);

    // Region miss attribution.
    ASSERT_EQ(rep.regions.size(), rec.regions.size());
    for (std::size_t i = 0; i < rec.regions.size(); ++i) {
        EXPECT_EQ(rec.regions[i].name, rep.regions[i].name);
        EXPECT_EQ(rec.regions[i].missCold, rep.regions[i].missCold)
            << rec.regions[i].name;
        EXPECT_EQ(rec.regions[i].missCoherence,
                  rep.regions[i].missCoherence)
            << rec.regions[i].name;
        EXPECT_EQ(rec.regions[i].missCapacity,
                  rep.regions[i].missCapacity)
            << rec.regions[i].name;
    }
}

core::ExperimentSpec
uniprocessorJbbSpec()
{
    core::ExperimentSpec spec;
    spec.workload = core::WorkloadKind::SpecJbb;
    spec.appCpus = 1;
    spec.totalCpus = 1;
    spec.scale = 2;
    spec.warmup = 1'000'000;
    spec.measure = 2'000'000;
    spec.seed = 42;
    return spec;
}

core::ExperimentSpec
sharedL2EcperfSpec()
{
    core::ExperimentSpec spec;
    spec.workload = core::WorkloadKind::Ecperf;
    spec.appCpus = 2;
    spec.totalCpus = 4;
    spec.cpusPerL2 = 2;
    spec.scale = 4;
    spec.warmup = 1'000'000;
    spec.measure = 2'000'000;
    spec.seed = 7;
    return spec;
}

core::ExperimentSpec
commTrackingJbbSpec()
{
    core::ExperimentSpec spec;
    spec.workload = core::WorkloadKind::SpecJbb;
    spec.appCpus = 2;
    spec.totalCpus = 4;
    spec.scale = 2;
    spec.warmup = 1'000'000;
    spec.measure = 2'000'000;
    spec.seed = 11;
    spec.trackCommunication = true;
    return spec;
}

/** A synthetic header for writer/reader unit tests. */
trace::TraceHeader
syntheticHeader(unsigned total_cpus)
{
    trace::TraceHeader h;
    h.specKey = "synthetic-key";
    h.label = "synthetic";
    h.totalCpus = total_cpus;
    h.appCpus = total_cpus;
    h.seed = 99;
    h.regions.push_back({"heap", 0x1000, 0x10000});
    return h;
}

/** Tests that touch global tracing/cache state start and end clean. */
class TraceEndToEnd : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        core::configureTracing("", "");
        core::RunCache::global().setDiskDir("");
        core::RunCache::global().clearMemory();
        sim::ThreadPool::setGlobalJobs(1);
    }

    void
    TearDown() override
    {
        SetUp();
    }
};

} // namespace

// ---------------------------------------------------------------------
// Format round-trips.
// ---------------------------------------------------------------------

TEST(TraceFormat, SyntheticStreamRoundTripsExactly)
{
    // Every access type, CPUs on both sides of the tag's low-nibble
    // escape (cpu 15+ encodes an explicit varint), negative address
    // and tick deltas, and every annotation kind.
    const unsigned kCpus = 32;
    trace::TraceWriter w(syntheticHeader(kCpus));
    std::vector<trace::TraceRecord> want;

    const mem::AccessType types[] = {
        mem::AccessType::IFetch, mem::AccessType::Load,
        mem::AccessType::Store, mem::AccessType::Atomic,
        mem::AccessType::BlockStore};
    std::uint64_t addr = 1ULL << 40;
    sim::Tick tick = 0;
    for (unsigned i = 0; i < 500; ++i) {
        mem::MemRef ref;
        // Alternate small forward and large backward jumps.
        addr = (i % 3 == 2) ? addr - (1ULL << 33) : addr + 64 * i;
        tick += (i % 7);
        ref.addr = addr;
        ref.type = types[i % 5];
        ref.cpu = i % kCpus; // exercises cpu < 15 and cpu >= 15
        w.ref(ref, tick);
        trace::TraceRecord rec;
        rec.isRef = true;
        rec.ref = ref;
        rec.tick = tick;
        want.push_back(rec);
    }
    for (unsigned k = 0; k < mem::numTraceAnnotations; ++k) {
        w.annotation(static_cast<mem::TraceAnnotation>(k), k % kCpus,
                     tick + k, 1000 + k);
    }

    trace::TraceReader r(w.take());
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r.header().specKey, "synthetic-key");
    EXPECT_EQ(r.header().totalCpus, kCpus);
    ASSERT_EQ(r.header().regions.size(), 1u);
    EXPECT_EQ(r.header().regions[0].name, "heap");

    trace::TraceRecord rec;
    for (const trace::TraceRecord &expect : want) {
        ASSERT_TRUE(r.next(rec)) << r.error();
        ASSERT_TRUE(rec.isRef);
        EXPECT_EQ(rec.ref.addr, expect.ref.addr);
        EXPECT_EQ(rec.ref.type, expect.ref.type);
        EXPECT_EQ(rec.ref.cpu, expect.ref.cpu);
        EXPECT_EQ(rec.tick, expect.tick);
    }
    for (unsigned k = 0; k < mem::numTraceAnnotations; ++k) {
        ASSERT_TRUE(r.next(rec)) << r.error();
        ASSERT_FALSE(rec.isRef);
        EXPECT_EQ(rec.kind, static_cast<mem::TraceAnnotation>(k));
        EXPECT_EQ(rec.ref.cpu, k % kCpus);
        EXPECT_EQ(rec.tick, tick + k);
        EXPECT_EQ(rec.arg, 1000u + k);
    }
    EXPECT_FALSE(r.next(rec));
    EXPECT_TRUE(r.complete()) << r.error();
    EXPECT_EQ(r.refCount(), want.size());
    EXPECT_EQ(r.annotationCount(), mem::numTraceAnnotations);
}

TEST(TraceFormat, EmptyTraceIsValid)
{
    trace::TraceWriter w(syntheticHeader(1));
    trace::TraceReader r(w.take());
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_TRUE(r.drain());
    EXPECT_EQ(r.refCount(), 0u);
}

TEST(TraceFormat, FileBackedRecordingMatchesInMemory)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/file.mst";

    auto feed = [](trace::TraceWriter &w) {
        for (unsigned i = 0; i < 10'000; ++i) {
            mem::MemRef ref;
            ref.addr = 0x1000 + 64 * (i % 97);
            ref.type = mem::AccessType::Load;
            ref.cpu = 0;
            w.ref(ref, i);
        }
        w.annotation(mem::TraceAnnotation::Instructions, 0, 10'000,
                     12345);
    };

    trace::TraceWriter mem_writer(syntheticHeader(1));
    feed(mem_writer);
    const std::string in_memory = mem_writer.take();

    trace::TraceWriter file_writer(syntheticHeader(1), path);
    feed(file_writer);
    ASSERT_TRUE(file_writer.close());

    std::string from_file;
    ASSERT_TRUE(trace::readTraceFile(path, from_file));
    EXPECT_EQ(from_file, in_memory); // byte-identical artifacts
    EXPECT_EQ(dirEntries(dir),
              std::vector<std::string>{"file.mst"}); // tmp renamed away

    std::filesystem::remove_all(dir);
}

TEST(TraceFormat, AbandonedFileWriterLeavesNoArtifact)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/abandoned.mst";
    {
        trace::TraceWriter w(syntheticHeader(1), path);
        mem::MemRef ref;
        ref.addr = 0x40;
        w.ref(ref, 1);
        // destroyed without close(): crash-equivalent abandonment
    }
    EXPECT_TRUE(dirEntries(dir).empty()); // neither file nor tmp
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Hostile input: loud failure, never UB.
// ---------------------------------------------------------------------

namespace
{

/** A small but representative finished trace. */
std::string
sampleTrace()
{
    trace::TraceWriter w(syntheticHeader(4));
    for (unsigned i = 0; i < 200; ++i) {
        mem::MemRef ref;
        ref.addr = (0x2000 + 64 * i) ^ ((i % 5) << 30);
        ref.type =
            static_cast<mem::AccessType>(i % 5);
        ref.cpu = i % 4;
        w.ref(ref, 3 * i);
    }
    w.annotation(mem::TraceAnnotation::GcBegin, 0, 600, 0);
    w.annotation(mem::TraceAnnotation::GcEndMinor, 0, 650, 50);
    return w.take();
}

} // namespace

TEST(TraceCorruption, TruncationAtEveryLengthFailsLoudly)
{
    const std::string full = sampleTrace();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        trace::TraceReader r(full.substr(0, cut));
        if (!r.ok()) {
            EXPECT_FALSE(r.error().empty());
            continue; // header already rejected
        }
        EXPECT_FALSE(r.drain()) << "truncated to " << cut << " bytes";
        EXPECT_FALSE(r.complete());
        EXPECT_FALSE(r.error().empty());
    }
}

TEST(TraceCorruption, BitFlipAnywhereIsDetected)
{
    const std::string full = sampleTrace();
    // Flip one bit in every byte position (stride keeps it fast while
    // covering header, records and footer).
    for (std::size_t pos = 0; pos < full.size();
         pos += (pos < 64 ? 1 : 7)) {
        std::string bad = full;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
        trace::TraceReader r(std::move(bad));
        const bool valid = r.ok() && r.drain();
        EXPECT_FALSE(valid) << "flip at byte " << pos;
        EXPECT_FALSE(r.error().empty()) << "flip at byte " << pos;
    }
}

TEST(TraceCorruption, BadMagicRejected)
{
    std::string bad = sampleTrace();
    bad[9] = 'X'; // inside the magic string
    trace::TraceReader r(std::move(bad));
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("magic"), std::string::npos) << r.error();
}

TEST(TraceCorruption, GarbageAfterFooterRejected)
{
    std::string bad = sampleTrace();
    bad += "extra";
    trace::TraceReader r(std::move(bad));
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.drain());
    EXPECT_FALSE(r.complete());
}

TEST(TraceCorruption, EmptyAndTinyInputsRejected)
{
    for (const std::string &data :
         {std::string(), std::string("m"), std::string(64, '\0')}) {
        trace::TraceReader r{std::string(data)};
        EXPECT_FALSE(r.ok());
        EXPECT_FALSE(r.error().empty());
    }
}

TEST(TraceCorruption, ReplayOfInvalidTraceReportsError)
{
    std::string bad = sampleTrace();
    bad.resize(bad.size() / 2);
    core::HierarchyReplayOutcome out =
        core::replayTraceHierarchy(std::move(bad));
    EXPECT_FALSE(out.valid);
    EXPECT_FALSE(out.error.empty());

    core::SweepReplayOutcome sweep =
        core::replayTraceSweep(std::string("not a trace at all"));
    EXPECT_FALSE(sweep.valid);
    EXPECT_FALSE(sweep.error.empty());
}

TEST(TraceCorruption, SharingReplayGivesEveryDegreeTheSameError)
{
    // Damage past the header reaches every degree's own reader on its
    // own task; each must report what a single-degree replay reports.
    const std::string full = sampleTrace();
    const std::string truncated = full.substr(0, full.size() - 40);
    std::string flipped = full;
    flipped[full.size() - 40] ^= 0x40;
    for (const std::string &bad : {truncated, flipped}) {
        ASSERT_TRUE(trace::TraceReader{std::string(bad)}.ok());
        const std::string want = core::replayTraceHierarchy(bad).error;
        ASSERT_FALSE(want.empty());
        const std::vector<core::HierarchyReplayOutcome> outs =
            core::replayTraceSharing(bad, {1, 2, 4});
        ASSERT_EQ(outs.size(), 3u);
        for (const core::HierarchyReplayOutcome &out : outs) {
            EXPECT_FALSE(out.valid);
            EXPECT_EQ(out.error, want);
        }
    }
}

TEST(TraceFormat, ReadersSharingOneBufferMatchAnOwningReader)
{
    // Two readers over one buffer, advanced in turn, each decode the
    // whole stream exactly as a reader owning its own copy does.
    const std::string bytes = sampleTrace();
    const auto shared = std::make_shared<const std::string>(bytes);
    trace::TraceReader owner{std::string(bytes)};
    trace::TraceReader a(shared);
    trace::TraceReader b(shared);
    ASSERT_TRUE(owner.ok() && a.ok() && b.ok());

    const auto expectSame = [](const trace::TraceRecord &x,
                               const trace::TraceRecord &y) {
        EXPECT_EQ(x.isRef, y.isRef);
        EXPECT_EQ(x.ref.addr, y.ref.addr);
        EXPECT_EQ(x.ref.type, y.ref.type);
        EXPECT_EQ(x.ref.cpu, y.ref.cpu);
        EXPECT_EQ(x.tick, y.tick);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.arg, y.arg);
    };
    trace::TraceRecord want, got_a, got_b;
    std::uint64_t records = 0;
    for (;;) {
        const bool more = owner.next(want);
        ASSERT_EQ(a.next(got_a), more) << "record " << records;
        ASSERT_EQ(b.next(got_b), more) << "record " << records;
        if (!more)
            break;
        expectSame(got_a, want);
        expectSame(got_b, want);
        ++records;
    }
    EXPECT_EQ(records, 202u);
    for (const trace::TraceReader *r : {&a, &b}) {
        EXPECT_TRUE(r->complete()) << r->error();
        EXPECT_EQ(r->refCount(), owner.refCount());
        EXPECT_EQ(r->annotationCount(), owner.annotationCount());
    }
    EXPECT_TRUE(owner.complete());
    EXPECT_EQ(*shared, bytes);
}

// ---------------------------------------------------------------------
// Replay equivalence (the subsystem's correctness anchor).
// ---------------------------------------------------------------------

TEST(TraceReplay, UniprocessorJbbBitIdentical)
{
    expectReplayEquivalent(uniprocessorJbbSpec());
}

TEST(TraceReplay, SharedL2EcperfBitIdentical)
{
    expectReplayEquivalent(sharedL2EcperfSpec());
}

TEST(TraceReplay, CommTrackingJbbBitIdentical)
{
    expectReplayEquivalent(commTrackingJbbSpec());
}

TEST(TraceReplay, FiftyRandomSmallGeometriesBitIdentical)
{
    // Differential check at breadth: 50 seeded random small
    // geometries (CPU count, sharing degree, cache sizes and
    // associativities, both workloads, communication tracking on and
    // off). Execution-driven stats and trace-replay stats must agree
    // bit for bit on every one.
    static const unsigned cpuChoices[] = {1, 2, 4};
    static const std::uint64_t l1Sizes[] = {4096, 8192, 16384};
    static const unsigned l1Assoc[] = {1, 2, 4};
    static const std::uint64_t l2Sizes[] = {65536, 131072, 262144};
    static const unsigned l2Assoc[] = {1, 2, 4, 8};

    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xd1ff);

        core::ExperimentSpec spec;
        spec.workload = rng.chance(0.5) ? core::WorkloadKind::SpecJbb
                                        : core::WorkloadKind::Ecperf;
        spec.totalCpus = cpuChoices[rng.uniform(3)];
        spec.appCpus = spec.totalCpus;
        spec.cpusPerL2 = spec.totalCpus == 4 && rng.chance(0.5)
                             ? 2
                             : (rng.chance(0.3) ? spec.totalCpus : 1);
        spec.scale = 1 + static_cast<unsigned>(rng.uniform(3));
        spec.seed = seed;
        spec.warmup = 150'000;
        spec.measure = 300'000;
        spec.trackCommunication = rng.chance(0.25);
        spec.sys.machine.l1i = {l1Sizes[rng.uniform(3)],
                                l1Assoc[rng.uniform(3)], 64};
        spec.sys.machine.l1d = {l1Sizes[rng.uniform(3)],
                                l1Assoc[rng.uniform(3)], 64};
        spec.sys.machine.l2 = {l2Sizes[rng.uniform(3)],
                               l2Assoc[rng.uniform(4)], 64};

        expectReplayEquivalent(spec);
    }
}

TEST(TraceReplay, GeometryOverridesAnswerWhatIfQuestions)
{
    core::TraceRecordOutcome rec =
        core::recordTraceRun(sharedL2EcperfSpec());

    // Same trace, three L2 capacities: misses must not increase with
    // size (LRU inclusion holds per L2 group).
    std::uint64_t last = ~0ULL;
    for (std::uint64_t kb : {256, 1024, 4096}) {
        trace::ReplayOverrides overrides;
        overrides.l2SizeBytes = kb << 10;
        core::HierarchyReplayOutcome out =
            core::replayTraceHierarchy(rec.traceData, overrides);
        ASSERT_TRUE(out.valid) << out.error;
        EXPECT_LE(out.aggregate.l2Misses(), last) << kb << " KB";
        last = out.aggregate.l2Misses();
    }

    // Sharing both L2s (cpusPerL2=4) must eliminate cross-L2
    // coherence misses entirely.
    trace::ReplayOverrides shared;
    shared.cpusPerL2 = 4;
    core::HierarchyReplayOutcome out =
        core::replayTraceHierarchy(rec.traceData, shared);
    ASSERT_TRUE(out.valid) << out.error;
    EXPECT_EQ(out.aggregate.missCoherence, 0u);
    EXPECT_EQ(out.aggregate.c2cTransfers, 0u);
}

TEST(TraceReplay, SweepReplayMatchesExecutionDrivenSweep)
{
    // Record a uniprocessor run while mirroring it into a sweep (the
    // execution-driven Figure 12/13 path), then reproduce the curves
    // from the trace alone.
    const core::ExperimentSpec spec = uniprocessorJbbSpec();

    core::BuiltWorkload workload;
    auto system = core::buildSystem(spec, workload);
    mem::SweepSimulator sweep{mem::SweepSimulator::paperSweep()};
    trace::TraceWriter writer(core::traceHeaderFor(*system, spec));
    system->setTraceSink(&writer);
    system->memory().setSweepTap(&sweep);
    system->run(spec.warmup);
    sweep.resetCounters();
    system->beginMeasurement();
    system->run(spec.measure);
    sweep.countInstructions(system->appCpi().instructions);
    system->memory().setSweepTap(nullptr);
    writer.annotation(mem::TraceAnnotation::Instructions, 0,
                      system->now(), system->appCpi().instructions);
    system->setTraceSink(nullptr);

    core::SweepReplayOutcome replay =
        core::replayTraceSweep(writer.take());
    ASSERT_TRUE(replay.valid) << replay.error;
    EXPECT_EQ(replay.instructions, sweep.instructions());
    ASSERT_EQ(replay.icache.size(), sweep.icacheResults().size());
    for (std::size_t i = 0; i < replay.icache.size(); ++i) {
        EXPECT_EQ(replay.icache[i].misses,
                  sweep.icacheResults()[i].misses)
            << "icache config " << i;
        EXPECT_EQ(replay.icache[i].accesses,
                  sweep.icacheResults()[i].accesses)
            << "icache config " << i;
        EXPECT_EQ(replay.dcache[i].misses,
                  sweep.dcacheResults()[i].misses)
            << "dcache config " << i;
    }
}

TEST(TraceReplay, SweepReplayMatchesNaiveOracle)
{
    // One recording, two sweep paths: replayTraceSweep's single-pass
    // engine and the naive per-configuration oracle fed the same
    // decoded stream must produce identical miss and access counts for
    // every paper-sweep geometry.
    core::TraceRecordOutcome rec =
        core::recordTraceRun(uniprocessorJbbSpec());
    ASSERT_FALSE(rec.traceData.empty());

    const core::SweepReplayOutcome fast =
        core::replayTraceSweep(rec.traceData);
    ASSERT_TRUE(fast.valid) << fast.error;

    // Mirror the replay protocol: counters restart at the warmup
    // boundary, instructions arrive as an annotation.
    test::NaiveSweep oracle(mem::SweepSimulator::paperSweep());
    std::uint64_t instructions = 0;
    trace::TraceReader reader{std::string(rec.traceData)};
    trace::TraceRecord r;
    while (reader.next(r)) {
        if (r.isRef) {
            oracle.access(r.ref);
        } else if (r.kind == mem::TraceAnnotation::StatsReset) {
            oracle.resetCounters();
            instructions = 0;
        } else if (r.kind == mem::TraceAnnotation::Instructions) {
            instructions += r.arg;
        }
    }
    ASSERT_TRUE(reader.complete()) << reader.error();
    EXPECT_EQ(fast.instructions, instructions);
    test::expectMatchesOracle(fast.icache, fast.dcache, oracle);
}

TEST(TraceReplay, SharingFanoutBitIdenticalToPerDegree)
{
    // The Figure 16 study from one SMP recording: the sharing degrees,
    // replayed in parallel over one shared buffer, must each leave
    // their hierarchy in exactly the state a dedicated per-degree
    // replay produces.
    core::TraceRecordOutcome rec =
        core::recordTraceRun(sharedL2EcperfSpec());
    ASSERT_FALSE(rec.traceData.empty());

    const std::vector<unsigned> degrees = {1, 2, 4};
    const std::vector<core::HierarchyReplayOutcome> fanout =
        core::replayTraceSharing(rec.traceData, degrees);
    ASSERT_EQ(fanout.size(), degrees.size());

    for (std::size_t i = 0; i < degrees.size(); ++i) {
        ASSERT_TRUE(fanout[i].valid) << fanout[i].error;
        trace::ReplayOverrides overrides;
        overrides.cpusPerL2 = degrees[i];
        core::HierarchyReplayOutcome solo =
            core::replayTraceHierarchy(rec.traceData, overrides);
        ASSERT_TRUE(solo.valid) << solo.error;
        const std::string what =
            "degree " + std::to_string(degrees[i]);
        ASSERT_EQ(fanout[i].perCpu.size(), solo.perCpu.size());
        for (std::size_t c = 0; c < solo.perCpu.size(); ++c)
            expectStatsEqual(fanout[i].perCpu[c], solo.perCpu[c],
                             what + " cpu " + std::to_string(c));
        expectStatsEqual(fanout[i].aggregate, solo.aggregate, what);
        EXPECT_EQ(fanout[i].c2cLines, solo.c2cLines) << what;
        EXPECT_EQ(fanout[i].touchedLines, solo.touchedLines) << what;
        EXPECT_EQ(fanout[i].counts.refs, solo.counts.refs) << what;
    }
}

// ---------------------------------------------------------------------
// Content addressing and driver wiring.
// ---------------------------------------------------------------------

TEST(TraceAddressing, FileNameIsStableAndSpecSensitive)
{
    const core::ExperimentSpec a = uniprocessorJbbSpec();
    core::ExperimentSpec b = a;
    b.seed = 43;
    core::ExperimentSpec c = a;
    c.scale = 3;

    EXPECT_EQ(core::traceFileName(a), core::traceFileName(a));
    EXPECT_NE(core::traceFileName(a), core::traceFileName(b));
    EXPECT_NE(core::traceFileName(a), core::traceFileName(c));
    EXPECT_NE(core::traceFileName(b), core::traceFileName(c));
    EXPECT_EQ(core::traceFileName(a).rfind("trace-", 0), 0u);
}

TEST_F(TraceEndToEnd, RunExperimentRecordsOnceAndValidates)
{
    const std::string dir = makeTempDir();
    const core::ExperimentSpec spec = uniprocessorJbbSpec();

    core::configureTracing(dir, "");
    const core::RunResult first = core::runExperiment(spec);
    const std::string path = core::traceFilePath(dir, spec);
    ASSERT_TRUE(std::filesystem::exists(path));
    const auto mtime = std::filesystem::last_write_time(path);

    // Recording must not perturb the run: same spec without tracing
    // gives identical observables.
    core::configureTracing("", "");
    const core::RunResult plain = core::runExperiment(spec);
    EXPECT_EQ(first.cpi.instructions, plain.cpi.instructions);
    EXPECT_EQ(first.txTotal, plain.txTotal);
    EXPECT_EQ(first.cache.l2Accesses, plain.cache.l2Accesses);
    EXPECT_EQ(first.cache.missCold, plain.cache.missCold);

    // Record once: a second traced run leaves the artifact untouched.
    core::configureTracing(dir, "");
    core::runExperiment(spec);
    EXPECT_EQ(std::filesystem::last_write_time(path), mtime);

    // The artifact replays bit-identically against the measured run.
    std::string data;
    ASSERT_TRUE(trace::readTraceFile(path, data));
    core::HierarchyReplayOutcome rep =
        core::replayTraceHierarchy(std::move(data));
    ASSERT_TRUE(rep.valid) << rep.error;
    expectStatsEqual(first.cache, rep.aggregate, "recorded file");

    std::filesystem::remove_all(dir);
}

TEST_F(TraceEndToEnd, SweepPathRecordsThenReplaysIdentically)
{
    const std::string dir = makeTempDir();
    core::FigureOptions opt;
    opt.runs = 1;
    opt.timeScale = 0.02;
    opt.seed = 1;

    // Pass 1: execution-driven, recording the reference stream.
    core::configureTracing(dir, "");
    const core::SweepOutcome exec = core::cachedSweepOutcome(
        core::WorkloadKind::SpecJbb, 2, opt);
    EXPECT_FALSE(
        std::filesystem::is_empty(std::filesystem::path(dir)));

    // Pass 2: fresh process state, sweep satisfied purely by replay.
    core::RunCache::global().clearMemory();
    core::configureTracing("", dir);
    const core::SweepOutcome replayed = core::cachedSweepOutcome(
        core::WorkloadKind::SpecJbb, 2, opt);

    EXPECT_GT(replayed.snap.counters.count("trace.replay.refs"), 0u)
        << "second pass must come from the trace, not execution";
    EXPECT_EQ(exec.instructions, replayed.instructions);
    ASSERT_EQ(exec.icache.size(), replayed.icache.size());
    for (std::size_t i = 0; i < exec.icache.size(); ++i) {
        EXPECT_EQ(exec.icache[i].misses, replayed.icache[i].misses);
        EXPECT_EQ(exec.icache[i].accesses, replayed.icache[i].accesses);
        EXPECT_EQ(exec.dcache[i].misses, replayed.dcache[i].misses);
        EXPECT_EQ(exec.dcache[i].accesses, replayed.dcache[i].accesses);
    }

    std::filesystem::remove_all(dir);
}

TEST_F(TraceEndToEnd, SpecMismatchFallsBackToExecution)
{
    const std::string dir = makeTempDir();
    core::FigureOptions opt;
    opt.runs = 1;
    opt.timeScale = 0.02;
    opt.seed = 1;

    // Record both scales, then overwrite scale 3's artifact with
    // scale 2's bytes — a stale/renamed file whose header does not
    // match the requested spec.
    core::configureTracing(dir, "");
    core::cachedSweepOutcome(core::WorkloadKind::SpecJbb, 2, opt);
    const core::SweepOutcome exec3 = core::cachedSweepOutcome(
        core::WorkloadKind::SpecJbb, 3, opt);
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path());
    ASSERT_EQ(files.size(), 2u);
    std::string small;
    std::string other;
    // Identify which artifact belongs to which spec by replay label.
    for (const auto &f : files) {
        std::string data;
        ASSERT_TRUE(trace::readTraceFile(f.string(), data));
        trace::TraceReader r(std::move(data));
        ASSERT_TRUE(r.ok());
        if (r.header().label.find("scale=2") != std::string::npos)
            small = f.string();
        else
            other = f.string();
    }
    ASSERT_FALSE(small.empty());
    ASSERT_FALSE(other.empty());
    std::filesystem::copy_file(
        small, other,
        std::filesystem::copy_options::overwrite_existing);

    core::RunCache::global().clearMemory();
    core::configureTracing("", dir);
    testing::internal::CaptureStderr();
    const core::SweepOutcome fallback = core::cachedSweepOutcome(
        core::WorkloadKind::SpecJbb, 3, opt);
    EXPECT_NE(testing::internal::GetCapturedStderr().find("warn: trace:"),
              std::string::npos);

    // The mismatched trace must be ignored, not replayed as scale 3.
    EXPECT_EQ(fallback.snap.counters.count("trace.replay.refs"), 0u);
    EXPECT_EQ(fallback.instructions, exec3.instructions);
    ASSERT_EQ(fallback.dcache.size(), exec3.dcache.size());
    for (std::size_t i = 0; i < exec3.dcache.size(); ++i)
        EXPECT_EQ(fallback.dcache[i].misses, exec3.dcache[i].misses);

    std::filesystem::remove_all(dir);
}
