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
#include <string>
#include <tuple>
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
    for (const auto &[name, counter] : mem::CacheStats::counters)
        EXPECT_EQ(a.*counter, b.*counter) << what << ": " << name;
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
    // Damage past the header stops the one decoder the degrees share;
    // each must report what a single-degree replay reports.
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

namespace
{

/**
 * A 20-CPU trace that reaches every decoder branch: every access
 * type, CPUs on both sides of the tag's CPU escape, address and tick
 * deltas from one to ten varint bytes in both directions, and one
 * annotation of every kind, spread through the refs.
 */
std::string
pinnedTrace()
{
    const unsigned kCpus = 20;
    trace::TraceWriter w(syntheticHeader(kCpus));
    std::uint64_t addr = 0x10000;
    sim::Tick tick = 0;
    unsigned kind = 0;
    for (unsigned i = 0; i < 420; ++i) {
        const unsigned step = i % 11;
        if (step == 3)
            addr += std::uint64_t{1} << (7 * (i % 9) + 6);
        else if (step == 7)
            addr -= std::uint64_t{0x40} << (i % 40);
        else if (step == 10)
            addr ^= std::uint64_t{1} << 63;
        else
            addr += 64 * step;
        tick += i % 13 == 5 ? (std::uint64_t{1} << (i % 60)) : i % 4;
        mem::MemRef ref;
        ref.addr = addr;
        ref.type = static_cast<mem::AccessType>(i % 5);
        ref.cpu = (i * 7) % kCpus;
        w.ref(ref, tick);
        if (i % 29 == 13 && kind < mem::numTraceAnnotations) {
            w.annotation(static_cast<mem::TraceAnnotation>(kind),
                         (kind * 3) % kCpus, tick + kind,
                         kind % 2 ? ~std::uint64_t{0} >> kind : kind);
            ++kind;
        }
    }
    EXPECT_EQ(kind, mem::numTraceAnnotations);
    return w.take();
}

/** One step of a word-wise FNV-1a digest. */
std::uint64_t
mixWord(std::uint64_t h, std::uint64_t word)
{
    return (h ^ word) * 0x100000001b3ULL;
}

/**
 * Digest of everything a reader reports for `data`: the header
 * verdict, every decoded record, one further next() after the last,
 * and the final ok/complete/error/counts.
 */
std::uint64_t
readerOutcomeDigest(std::string data)
{
    trace::TraceReader r(std::move(data));
    std::uint64_t h = mixWord(sim::fnv1a64Init, r.ok());
    trace::TraceRecord rec;
    while (r.next(rec)) {
        h = mixWord(h, rec.isRef);
        h = mixWord(h, rec.tick);
        h = mixWord(h, rec.ref.cpu);
        if (rec.isRef) {
            h = mixWord(h, rec.ref.addr);
            h = mixWord(h, static_cast<std::uint64_t>(rec.ref.type));
        } else {
            h = mixWord(h, static_cast<std::uint64_t>(rec.kind));
            h = mixWord(h, rec.arg);
        }
    }
    h = mixWord(h, r.next(rec));
    h = mixWord(h, r.ok());
    h = mixWord(h, r.complete());
    h = mixWord(h, sim::fnv1a64(r.error()));
    h = mixWord(h, r.refCount());
    h = mixWord(h, r.annotationCount());
    return h;
}

} // namespace

TEST(TraceCorruption, OutcomesArePinned)
{
    // What the decoder reports for every truncation of a small trace
    // and for four bit patterns XORed into every byte: each record,
    // each verdict, each error text with its byte offset. The digest
    // was recorded on the byte-at-a-time decoder that checksummed the
    // whole trace at its footer; any decoder must reproduce it.
    const std::string full = pinnedTrace();
    ASSERT_EQ(full.size(), 6557u);
    std::uint64_t h = readerOutcomeDigest(full);
    for (std::size_t cut = 0; cut < full.size(); ++cut)
        h = mixWord(h, readerOutcomeDigest(full.substr(0, cut)));
    for (const std::uint8_t mask : {0x01, 0x40, 0x80, 0xff}) {
        for (std::size_t pos = 0; pos < full.size(); ++pos) {
            std::string bad = full;
            bad[pos] = static_cast<char>(bad[pos] ^ mask);
            h = mixWord(h, readerOutcomeDigest(std::move(bad)));
        }
    }
    EXPECT_EQ(sim::hashHex(h), "ae579714f2aef8ad");
}

TEST(TraceFormat, RecordedBytesArePinned)
{
    // The exact bytes of two in-memory recordings, one with shared
    // L2s and one tracking communication. Recorded on the writer that
    // hashed its buffer at take(), with every L1I hit going through
    // Hierarchy::access(); any recorder must reproduce them.
    EXPECT_EQ(sim::hashHex(sim::fnv1a64(
                  core::recordTraceRun(sharedL2EcperfSpec()).traceData)),
              "a194bdc6f53ab792");
    EXPECT_EQ(sim::hashHex(sim::fnv1a64(
                  core::recordTraceRun(commTrackingJbbSpec()).traceData)),
              "14a2e6eb8810dc74");
}

namespace
{

/**
 * A trace of many chunks of records for the replays: 8 CPUs, with the
 * measurement protocol's resets and instruction counts in between.
 */
std::string
longSampleTrace()
{
    trace::TraceWriter w(syntheticHeader(8));
    sim::Rng rng(2718);
    mem::Addr cursor = 0x400000;
    for (unsigned i = 0; i < 30'000; ++i) {
        if (i == 10'000) {
            w.annotation(mem::TraceAnnotation::MeasureBegin, 0, 3 * i, 0);
            w.annotation(mem::TraceAnnotation::StatsReset, 0, 3 * i, 0);
        }
        cursor = rng.chance(0.7) ? cursor + 64 * rng.uniform(4)
                                 : 0x400000 + 64 * rng.uniform(1 << 16);
        mem::MemRef ref;
        ref.addr = cursor;
        ref.type = static_cast<mem::AccessType>(rng.uniform(5));
        ref.cpu = static_cast<unsigned>(rng.uniform(8));
        w.ref(ref, 3 * i);
    }
    w.annotation(mem::TraceAnnotation::Instructions, 0, 90'000, 77'777);
    return w.take();
}

/** Truncated and bit-flipped copies of `full`, damaged past its header. */
std::vector<std::string>
damagedCopies(const std::string &full)
{
    std::vector<std::string> bad;
    for (const std::size_t at :
         {full.size() / 3, full.size() / 2, full.size() - 40}) {
        bad.push_back(full.substr(0, at));
        std::string flipped = full;
        flipped[at] ^= 0x40;
        bad.push_back(std::move(flipped));
    }
    return bad;
}

/** What one reader reports on `data` after decoding all it can. */
std::string
singleReaderError(const std::string &data)
{
    trace::TraceReader r{std::string(data)};
    r.drain();
    return r.error();
}

} // namespace

TEST(TraceCorruption, DecodeOnceReplaysGiveTheSingleReaderError)
{
    // Damage that stops the one decoder of a replay, chunks into the
    // stream, reaches every frontend: each sweep and sharing outcome
    // carries exactly the error one reader reports.
    for (const std::string &bad : damagedCopies(longSampleTrace())) {
        ASSERT_TRUE(trace::TraceReader{std::string(bad)}.ok());
        const std::string want = singleReaderError(bad);
        ASSERT_FALSE(want.empty());
        const core::SweepReplayOutcome sweep = core::replayTraceSweep(bad);
        EXPECT_FALSE(sweep.valid);
        EXPECT_EQ(sweep.error, want);
        const std::vector<core::HierarchyReplayOutcome> outs =
            core::replayTraceSharing(bad, {1, 2, 4, 8});
        ASSERT_EQ(outs.size(), 4u);
        for (const core::HierarchyReplayOutcome &out : outs) {
            EXPECT_FALSE(out.valid);
            EXPECT_EQ(out.error, want);
        }
    }
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

namespace
{

/** A directory-protocol machine of 8 CPUs on 4 NUMA nodes. */
core::ExperimentSpec
directoryEcperfSpec()
{
    core::ExperimentSpec spec = sharedL2EcperfSpec();
    spec.appCpus = 4;
    spec.totalCpus = 8;
    spec.cpusPerL2 = 1;
    spec.sys.machine.protocol = sim::CoherenceProtocol::DirectoryMesi;
    spec.sys.machine.numaNodes = 4;
    spec.warmup = 500'000;
    spec.measure = 1'000'000;
    spec.seed = 19;
    return spec;
}

/** The recorded geometries the decode-once replays are checked on. */
std::vector<core::ExperimentSpec>
replayGeometries()
{
    return {sharedL2EcperfSpec(), commTrackingJbbSpec(),
            directoryEcperfSpec()};
}

/** Sharing degrees of a machine: the powers of two dividing its CPUs. */
std::vector<unsigned>
sharingDegrees(unsigned total_cpus)
{
    std::vector<unsigned> degrees;
    for (unsigned d = 1; d <= total_cpus; d *= 2)
        degrees.push_back(d);
    return degrees;
}

/** Each degree's outcome of the sharing study equals a serial replay. */
void
expectSharingMatchesSerialReplays(
    const std::string &trace_data, const std::vector<unsigned> &degrees,
    const std::vector<core::HierarchyReplayOutcome> &fanout)
{
    ASSERT_EQ(fanout.size(), degrees.size());
    for (std::size_t i = 0; i < degrees.size(); ++i) {
        ASSERT_TRUE(fanout[i].valid) << fanout[i].error;
        trace::ReplayOverrides overrides;
        overrides.cpusPerL2 = degrees[i];
        core::HierarchyReplayOutcome solo =
            core::replayTraceHierarchy(trace_data, overrides);
        ASSERT_TRUE(solo.valid) << solo.error;
        const std::string what = "degree " + std::to_string(degrees[i]);
        ASSERT_EQ(fanout[i].perCpu.size(), solo.perCpu.size());
        for (std::size_t c = 0; c < solo.perCpu.size(); ++c)
            expectStatsEqual(fanout[i].perCpu[c], solo.perCpu[c],
                             what + " cpu " + std::to_string(c));
        expectStatsEqual(fanout[i].aggregate, solo.aggregate, what);
        EXPECT_EQ(fanout[i].c2cLines, solo.c2cLines) << what;
        EXPECT_EQ(fanout[i].touchedLines, solo.touchedLines) << what;
        EXPECT_EQ(fanout[i].counts.refs, solo.counts.refs) << what;
        EXPECT_EQ(fanout[i].counts.instructions, solo.counts.instructions)
            << what;
    }
}

/**
 * The sliced sweep replay equals one SweepSimulator fed the decoded
 * stream serially, resets and instruction counts included.
 */
void
expectSweepMatchesSerialPass(const std::string &trace_data,
                             const core::SweepReplayOutcome &sliced)
{
    ASSERT_TRUE(sliced.valid) << sliced.error;
    mem::SweepSimulator serial{mem::SweepSimulator::paperSweep()};
    trace::TraceReader reader{std::string(trace_data)};
    const trace::ReplayCounts counts =
        trace::replayTrace(reader, nullptr, &serial);
    ASSERT_TRUE(reader.complete()) << reader.error();
    EXPECT_EQ(sliced.counts.refs, counts.refs);
    EXPECT_EQ(sliced.instructions, serial.instructions());
    ASSERT_EQ(sliced.icache.size(), serial.icacheResults().size());
    for (std::size_t i = 0; i < sliced.icache.size(); ++i) {
        EXPECT_EQ(sliced.icache[i].accesses,
                  serial.icacheResults()[i].accesses) << "config " << i;
        EXPECT_EQ(sliced.icache[i].misses, serial.icacheResults()[i].misses)
            << "config " << i;
        EXPECT_EQ(sliced.dcache[i].accesses,
                  serial.dcacheResults()[i].accesses) << "config " << i;
        EXPECT_EQ(sliced.dcache[i].misses, serial.dcacheResults()[i].misses)
            << "config " << i;
    }
}

} // namespace

TEST(TraceReplay, SharingFanoutBitIdenticalToPerDegree)
{
    // The Figure 16 study from one SMP recording: the sharing degrees,
    // fed from one decode, must each leave their hierarchy in exactly
    // the state a dedicated per-degree replay produces, on every
    // recorded geometry.
    for (const core::ExperimentSpec &spec : replayGeometries()) {
        SCOPED_TRACE(core::pointName(spec));
        core::TraceRecordOutcome rec = core::recordTraceRun(spec);
        ASSERT_FALSE(rec.traceData.empty());
        const std::vector<unsigned> degrees =
            sharingDegrees(spec.totalCpus);
        expectSharingMatchesSerialReplays(
            rec.traceData, degrees,
            core::replayTraceSharing(rec.traceData, degrees));
    }
}

TEST(TraceReplay, SlicedSweepMatchesASerialSweep)
{
    // The sweep replay's set slices, fed from one decode, sum to what
    // one simulator counts in a serial pass over the same stream.
    for (const core::ExperimentSpec &spec : replayGeometries()) {
        SCOPED_TRACE(core::pointName(spec));
        core::TraceRecordOutcome rec = core::recordTraceRun(spec);
        expectSweepMatchesSerialPass(rec.traceData,
                                     core::replayTraceSweep(rec.traceData));
    }
    const std::string synthetic = longSampleTrace();
    expectSweepMatchesSerialPass(synthetic,
                                 core::replayTraceSweep(synthetic));
}

TEST(TraceReplay, ReplaysOnAPoolWorkerRunInlineAndMatch)
{
    // A replay called from a global-pool worker starts no pool of its
    // own: one replay thread, so one sweep slice and every frontend
    // applied on that worker. Its outcomes equal the fanned-out ones.
    const core::TraceRecordOutcome rec =
        core::recordTraceRun(sharedL2EcperfSpec());
    const std::vector<unsigned> degrees = {1, 2, 4};
    sim::ThreadPool::setGlobalJobs(2);
    const auto [threads, sweep, sharing] =
        sim::ThreadPool::global()
            .submit([&] {
                return std::make_tuple(
                    trace::replayThreads(),
                    core::replayTraceSweep(rec.traceData),
                    core::replayTraceSharing(rec.traceData, degrees));
            })
            .get();
    sim::ThreadPool::setGlobalJobs(1);
    EXPECT_EQ(threads, 1u);
    expectSweepMatchesSerialPass(rec.traceData, sweep);
    expectSharingMatchesSerialReplays(rec.traceData, degrees, sharing);
    const core::SweepReplayOutcome fanned =
        core::replayTraceSweep(rec.traceData);
    ASSERT_EQ(fanned.icache.size(), sweep.icache.size());
    for (std::size_t i = 0; i < sweep.icache.size(); ++i) {
        EXPECT_EQ(fanned.icache[i].misses, sweep.icache[i].misses);
        EXPECT_EQ(fanned.dcache[i].misses, sweep.dcache[i].misses);
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
