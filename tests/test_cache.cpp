/**
 * @file
 * Content-addressed run cache tests: exact payload round-trips, spec
 * key sensitivity to every parameter layer, disk-hit byte-identity
 * against fresh simulation, corruption tolerance, and the in-process
 * grid dedupe.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/cache.hh"
#include "core/experiment.hh"
#include "core/figures_internal.hh"
#include "sim/metrics.hh"
#include "sim/serialize.hh"
#include "sim/threadpool.hh"

using namespace middlesim;

namespace
{

/** Field-by-field bitwise equality of two run results. */
void
expectIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.txTotal, b.txTotal);
    EXPECT_EQ(a.txByType, b.txByType);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.cpi.instructions, b.cpi.instructions);
    EXPECT_EQ(a.cpi.base, b.cpi.base);
    EXPECT_EQ(a.cpi.iStall, b.cpi.iStall);
    EXPECT_EQ(a.cpi.dsMemory, b.cpi.dsMemory);
    EXPECT_EQ(a.modes.user, b.modes.user);
    EXPECT_EQ(a.modes.gcIdle, b.modes.gcIdle);
    EXPECT_EQ(a.cache.loads, b.cache.loads);
    EXPECT_EQ(a.cache.c2cTransfers, b.cache.c2cTransfers);
    EXPECT_EQ(a.gcMinor, b.gcMinor);
    EXPECT_EQ(a.gcPause, b.gcPause);
    EXPECT_EQ(a.liveAfterMB, b.liveAfterMB);
    EXPECT_EQ(a.beanHitRate, b.beanHitRate);
}

core::ExperimentSpec
smallSpec()
{
    core::ExperimentSpec spec;
    spec.workload = core::WorkloadKind::SpecJbb;
    spec.appCpus = 2;
    spec.totalCpus = 4;
    spec.scale = 2;
    spec.warmup = 1'000'000;
    spec.measure = 2'000'000;
    spec.seed = 42;
    return spec;
}

/** Metrics snapshot as its canonical JSON text. */
std::string
snapshotJson(const sim::MetricSnapshot &s)
{
    std::ostringstream os;
    s.writeJson(os);
    return os.str();
}

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/middlesim_test_cache.XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

/** Every test starts with a clean global cache (no disk, empty memo). */
class CacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        core::RunCache::global().setDiskDir("");
        core::RunCache::global().clearMemory();
        core::RunCache::global().resetStats();
        sim::ThreadPool::setGlobalJobs(1);
    }

    void
    TearDown() override
    {
        SetUp();
    }
};

} // namespace

TEST(Serialize, PrimitivesRoundTripExactly)
{
    sim::ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.f64(-0.0);
    w.f64(1.0 / 3.0);
    w.str(std::string("hello\0world", 11)); // embedded NUL survives
    w.vecU64({1, 2, 3});
    w.vecF64({0.1, -2.5e300});

    sim::ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    const double nz = r.f64();
    EXPECT_EQ(nz, 0.0);
    EXPECT_TRUE(std::signbit(nz));
    EXPECT_EQ(r.f64(), 1.0 / 3.0);
    EXPECT_EQ(r.str(), std::string("hello\0world", 11));
    EXPECT_EQ(r.vecU64(), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(r.vecF64(), (std::vector<double>{0.1, -2.5e300}));
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(Serialize, TruncatedReadFailsSticky)
{
    sim::ByteWriter w;
    w.u64(7);
    std::string bytes = w.take();
    bytes.resize(3); // truncate mid-field
    sim::ByteReader r(bytes);
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_FALSE(r.ok());
    // Sticky: every later read also reports zero/failed.
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, Fnv1a64MatchesReferenceVectors)
{
    EXPECT_EQ(sim::fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(sim::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(sim::fnv1a64("foobar"), 0x85944171f73967e8ULL);
    EXPECT_EQ(sim::hashHex(0xaf63dc4c8601ec8cULL),
              "af63dc4c8601ec8c");
    EXPECT_EQ(sim::hashHex(0).size(), 16u);
}

TEST(Serialize, SnapshotRoundTripIsExact)
{
    sim::MetricSnapshot s;
    s.counters["a.b"] = 7;
    s.counters["a.c"] = 0;
    s.gauges["g.ratio"] = 1.0 / 3.0;
    s.gauges["g.neg"] = -0.0;
    sim::MetricSnapshot::HistogramData h;
    h.count = 3;
    h.sum = 12;
    h.buckets = {1, 0, 2};
    s.histograms["h"] = h;
    sim::MetricSnapshot::SeriesData sd;
    sd.period = 1000;
    sd.values = {0.5, 2.25, -7.0};
    s.series["sr"] = sd;
    s.events.push_back({123, "gc.minor", "promoted=4"});
    s.eventsDropped = 9;

    sim::MetricSnapshot back;
    ASSERT_TRUE(sim::decodeFields(sim::encodeFields(s), back));

    EXPECT_EQ(back.counters, s.counters);
    EXPECT_EQ(back.gauges, s.gauges);
    ASSERT_EQ(back.histograms.count("h"), 1u);
    EXPECT_EQ(back.histograms.at("h").buckets, h.buckets);
    ASSERT_EQ(back.series.count("sr"), 1u);
    EXPECT_EQ(back.series.at("sr").period, sd.period);
    EXPECT_EQ(back.series.at("sr").values, sd.values);
    ASSERT_EQ(back.events.size(), 1u);
    EXPECT_EQ(back.events[0].tick, 123u);
    EXPECT_EQ(back.events[0].type, "gc.minor");
    EXPECT_EQ(back.events[0].detail, "promoted=4");
    EXPECT_EQ(back.eventsDropped, 9u);
    EXPECT_EQ(snapshotJson(back), snapshotJson(s));
}

TEST_F(CacheTest, RunResultRoundTripIsExact)
{
    const core::RunResult fresh = core::runExperiment(smallSpec());
    ASSERT_NE(fresh.metrics, nullptr);

    const std::string payload = sim::encodeFields(fresh);
    core::RunResult back;
    ASSERT_TRUE(sim::decodeFields(payload, back));
    expectIdentical(fresh, back);
    ASSERT_NE(back.metrics, nullptr);
    EXPECT_EQ(snapshotJson(*back.metrics), snapshotJson(*fresh.metrics));
    // Re-encoding the decoded result reproduces the payload bytes.
    EXPECT_EQ(sim::encodeFields(back), payload);
}

TEST_F(CacheTest, DecodeRejectsTruncatedAndGarbagePayloads)
{
    const std::string payload =
        sim::encodeFields(core::runExperiment(smallSpec()));
    core::RunResult out;
    EXPECT_FALSE(sim::decodeFields("", out));
    EXPECT_FALSE(sim::decodeFields("garbage", out));
    EXPECT_FALSE(sim::decodeFields(
        payload.substr(0, payload.size() / 2), out));
    // Trailing junk is also rejected (atEnd check).
    EXPECT_FALSE(sim::decodeFields(payload + "x", out));
}

TEST(CacheKey, EveryParameterLayerChangesTheKey)
{
    using Mutation =
        std::pair<const char *, std::function<void(core::ExperimentSpec &)>>;
    const std::vector<Mutation> mutations = {
        {"workload",
         [](auto &s) { s.workload = core::WorkloadKind::Ecperf; }},
        {"appCpus", [](auto &s) { s.appCpus += 1; }},
        {"totalCpus", [](auto &s) { s.totalCpus += 1; }},
        {"cpusPerL2", [](auto &s) { s.cpusPerL2 = 2; }},
        {"scale", [](auto &s) { s.scale += 1; }},
        {"warmup", [](auto &s) { s.warmup += 1; }},
        {"measure", [](auto &s) { s.measure += 1; }},
        {"seed", [](auto &s) { s.seed += 1; }},
        {"trackCommunication",
         [](auto &s) { s.trackCommunication = true; }},
        {"machine.l1d.sizeBytes",
         [](auto &s) { s.sys.machine.l1d.sizeBytes *= 2; }},
        {"machine.l2.assoc", [](auto &s) { s.sys.machine.l2.assoc += 1; }},
        {"machine.l2.blockBytes",
         [](auto &s) { s.sys.machine.l2.blockBytes *= 2; }},
        {"latency.memory", [](auto &s) { s.sys.latency.memory += 1; }},
        {"latency.cacheToCache",
         [](auto &s) { s.sys.latency.cacheToCache += 1; }},
        {"core.baseCpi", [](auto &s) { s.sys.core.baseCpi += 0.125; }},
        {"core.storeBufferDepth",
         [](auto &s) { s.sys.core.storeBufferDepth += 1; }},
        {"jvm.heap.heapBytes",
         [](auto &s) { s.sys.jvm.heap.heapBytes *= 2; }},
        {"jvm.heap.newGenBytes",
         [](auto &s) { s.sys.jvm.heap.newGenBytes *= 2; }},
        {"jvm.survivorFraction",
         [](auto &s) { s.sys.jvm.survivorFraction *= 0.5; }},
        {"kernel.netSendInstr",
         [](auto &s) { s.sys.kernel.netSendInstr += 1; }},
        {"busContention", [](auto &s) { s.sys.busContention = false; }},
        {"osBackground", [](auto &s) { s.sys.osBackground = false; }},
        {"window", [](auto &s) { s.sys.window += 1; }},
        {"timeslice", [](auto &s) { s.sys.timeslice += 1; }},
        {"gcCpu", [](auto &s) { s.sys.gcCpu = 1; }},
        {"samplePeriod", [](auto &s) { s.sys.samplePeriod += 1; }},
        {"jbb.mix[0]", [](auto &s) { s.jbb.mix[0] += 0.001; }},
        {"jbb.nodeBytes", [](auto &s) { s.jbb.nodeBytes += 8; }},
        {"jbb.instrScale", [](auto &s) { s.jbb.instrScale *= 1.01; }},
        {"ecperf.injectionRate",
         [](auto &s) { s.ecperf.injectionRate += 1; }},
        {"ecperf.mix[5]", [](auto &s) { s.ecperf.mix[5] += 0.001; }},
        {"ecperf.instrScale",
         [](auto &s) { s.ecperf.instrScale *= 1.01; }},
    };

    const core::ExperimentSpec base = smallSpec();
    const std::string baseKey = core::encodeSpecKey(base);
    EXPECT_EQ(core::encodeSpecKey(smallSpec()), baseKey);

    std::set<std::string> keys{baseKey};
    for (const auto &[name, mutate] : mutations) {
        SCOPED_TRACE(name);
        core::ExperimentSpec spec = smallSpec();
        mutate(spec);
        const std::string key = core::encodeSpecKey(spec);
        EXPECT_NE(key, baseKey);
        // Every mutation lands on its own key (no aliasing between
        // fields either).
        EXPECT_TRUE(keys.insert(key).second);
    }
}

TEST(CacheKey, FileNameIsStable)
{
    const std::string key = core::encodeSpecKey(smallSpec());
    const std::string name = core::cacheFileName("run", key);
    EXPECT_EQ(name, core::cacheFileName("run", key));
    EXPECT_NE(name, core::cacheFileName("fig10", key));
    EXPECT_EQ(name.substr(0, 4), "run-");
    EXPECT_EQ(name.substr(name.size() - 4), ".msc");
}

TEST_F(CacheTest, MemoizedRunIsByteIdenticalToFresh)
{
    const core::ExperimentSpec spec = smallSpec();
    const core::RunResult fresh = core::runExperiment(spec);

    const core::RunResult first = core::cachedRunExperiment(spec);
    const core::RunResult memo = core::cachedRunExperiment(spec);
    expectIdentical(fresh, first);
    expectIdentical(fresh, memo);
    EXPECT_EQ(sim::encodeFields(memo), sim::encodeFields(fresh));

    const auto stats = core::RunCache::global().stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.memoryHits, 1u);
    EXPECT_EQ(stats.stores, 1u);
}

TEST_F(CacheTest, DiskHitIsByteIdenticalToFreshForFigureSpecs)
{
    // Three real figure points (scaling grid of both workloads plus a
    // shared-L2 point), time-compressed for test speed.
    core::FigureOptions opt;
    opt.runs = 1;
    opt.timeScale = 0.02;
    const auto grid = core::scalingGridSpecs(opt);
    const auto fig16 = core::fig16GridSpecs(opt);
    ASSERT_GE(grid.size(), 2u);
    ASSERT_GE(fig16.size(), 1u);
    std::vector<core::ExperimentSpec> specs = {grid.front(),
                                               grid.back(),
                                               fig16.front()};

    const std::string dir = makeTempDir();
    core::RunCache::global().setDiskDir(dir);
    for (const auto &spec : specs) {
        SCOPED_TRACE(core::encodeSpecKey(spec).size());
        const core::RunResult fresh = core::runExperiment(spec);

        core::RunCache::global().clearMemory();
        core::RunCache::global().resetStats();
        const core::RunResult miss = core::cachedRunExperiment(spec);
        EXPECT_EQ(core::RunCache::global().stats().misses, 1u);

        // Drop the memo so the next fetch must come from disk.
        core::RunCache::global().clearMemory();
        core::RunCache::global().resetStats();
        const core::RunResult hit = core::cachedRunExperiment(spec);
        EXPECT_EQ(core::RunCache::global().stats().diskHits, 1u);
        EXPECT_EQ(core::RunCache::global().stats().misses, 0u);

        expectIdentical(fresh, miss);
        expectIdentical(fresh, hit);
        EXPECT_EQ(sim::encodeFields(hit),
                  sim::encodeFields(fresh));
        ASSERT_NE(hit.metrics, nullptr);
        EXPECT_EQ(snapshotJson(*hit.metrics),
                  snapshotJson(*fresh.metrics));
    }
}

TEST_F(CacheTest, CorruptCacheFilesDegradeToMisses)
{
    const std::string dir = makeTempDir();
    core::RunCache::global().setDiskDir(dir);

    const core::ExperimentSpec spec = smallSpec();
    const std::string key = core::encodeSpecKey(spec);
    const std::string path = dir + "/" + core::cacheFileName("run", key);
    const core::RunResult fresh = core::cachedRunExperiment(spec);
    { // the store actually landed on disk
        std::ifstream in(path);
        ASSERT_TRUE(in.good());
    }

    const auto corruptions = std::vector<std::string>{
        "",                         // empty file
        "garbage",                  // junk bytes
        std::string("\x00\x01", 2), // binary junk
    };
    for (const auto &bytes : corruptions) {
        SCOPED_TRACE("corruption of " + std::to_string(bytes.size()) +
                     " bytes");
        {
            std::ofstream out(path, std::ios::trunc | std::ios::binary);
            out << bytes;
        }
        core::RunCache::global().clearMemory();
        core::RunCache::global().resetStats();
        const core::RunResult rerun = core::cachedRunExperiment(spec);
        EXPECT_EQ(core::RunCache::global().stats().diskHits, 0u);
        EXPECT_EQ(core::RunCache::global().stats().misses, 1u);
        // The entry existed but failed validation: attributed to the
        // corrupt-miss counter (a plain absent entry would not be).
        EXPECT_EQ(core::RunCache::global().stats().corruptMisses, 1u);
        expectIdentical(fresh, rerun);
    }

    // Truncation mid-payload is also a miss (checksum mismatch).
    std::string full;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        full = ss.str();
    }
    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << full.substr(0, full.size() - 7);
    }
    core::RunCache::global().clearMemory();
    core::RunCache::global().resetStats();
    const core::RunResult rerun = core::cachedRunExperiment(spec);
    EXPECT_EQ(core::RunCache::global().stats().diskHits, 0u);
    EXPECT_EQ(core::RunCache::global().stats().misses, 1u);
    EXPECT_EQ(core::RunCache::global().stats().corruptMisses, 1u);
    expectIdentical(fresh, rerun);

    // After the re-simulation the repaired file serves hits again
    // (miss-and-rewrite: the store healed the corrupt entry, exactly
    // what processes sharing one --cache-dir rely on when one of them
    // observes another's torn write).
    core::RunCache::global().clearMemory();
    core::RunCache::global().resetStats();
    expectIdentical(fresh, core::cachedRunExperiment(spec));
    EXPECT_EQ(core::RunCache::global().stats().diskHits, 1u);
    EXPECT_EQ(core::RunCache::global().stats().corruptMisses, 0u);
}

TEST_F(CacheTest, AbsentEntryIsNotACorruptMiss)
{
    const std::string dir = makeTempDir();
    core::RunCache::global().setDiskDir(dir);
    core::RunCache::global().resetStats();
    std::string payload;
    EXPECT_FALSE(
        core::RunCache::global().fetch("run", "no-such-key", payload));
    EXPECT_EQ(core::RunCache::global().stats().misses, 1u);
    EXPECT_EQ(core::RunCache::global().stats().corruptMisses, 0u);
}

TEST_F(CacheTest, GridDeduplicatesIdenticalPoints)
{
    const core::ExperimentSpec a = smallSpec();
    core::ExperimentSpec b = smallSpec();
    b.seed = 43;

    core::resetGridDedupeStats();
    const auto results = core::runGrid({a, b, a, a, b});
    ASSERT_EQ(results.size(), 5u);

    const auto grid = core::gridDedupeStats();
    EXPECT_EQ(grid.requested, 5u);
    EXPECT_EQ(grid.unique, 2u);
    // Only the unique points simulated.
    EXPECT_EQ(core::RunCache::global().stats().misses, 2u);

    expectIdentical(results[0], results[2]);
    expectIdentical(results[0], results[3]);
    expectIdentical(results[1], results[4]);
    EXPECT_NE(results[0].cpi.instructions, results[1].cpi.instructions);
    // Duplicates share one metrics snapshot, not copies of it.
    EXPECT_EQ(results[0].metrics.get(), results[2].metrics.get());
}

TEST_F(CacheTest, GridIsByteIdenticalAcrossJobCounts)
{
    const core::ExperimentSpec a = smallSpec();
    core::ExperimentSpec b = smallSpec();
    b.scale = 4;

    sim::ThreadPool::setGlobalJobs(1);
    const auto serial = core::runGrid({a, b, a});
    core::RunCache::global().clearMemory();
    sim::ThreadPool::setGlobalJobs(4);
    const auto parallel = core::runGrid({a, b, a});
    sim::ThreadPool::setGlobalJobs(1);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectIdentical(serial[i], parallel[i]);
        EXPECT_EQ(sim::encodeFields(serial[i]),
                  sim::encodeFields(parallel[i]));
    }
}

namespace
{

/** Non-zero values, each distinct from every earlier one. */
class Distinct
{
  public:
    std::uint64_t u64() { return ++n_ * 0x9e3779b97f4a7c15ULL; }
    std::uint32_t u32() { return static_cast<std::uint32_t>(u64() >> 32); }
    double f64() { return static_cast<double>(++n_) / 7.0; }
    std::string str() { return "f" + std::to_string(++n_); }

  private:
    std::uint64_t n_ = 0;
};

/** Set every counter of an all-u64 stats record to a distinct value. */
template <typename Stats>
void
fillCounters(Stats &stats, Distinct &d)
{
    std::uint64_t words[sizeof(Stats) / sizeof(std::uint64_t)];
    static_assert(sizeof(words) == sizeof(Stats));
    for (std::uint64_t &w : words)
        w = d.u64();
    std::memcpy(&stats, words, sizeof(Stats));
}

/**
 * A snapshot whose two counter names differ in one bit, so a flipped
 * bit can make them collide.
 */
sim::MetricSnapshot
pinnedSnapshot(Distinct &d)
{
    sim::MetricSnapshot s;
    const std::string name = d.str();
    s.counters = {{name + "0", d.u64()}, {name + "1", d.u64()}};
    s.gauges = {{d.str(), d.f64()}};
    s.histograms = {{d.str(), {d.u64(), d.u64(), {d.u64(), d.u64()}}}};
    s.series = {{d.str(), {d.u64(), {d.f64(), d.f64()}}}};
    s.events = {{d.u64(), d.str(), d.str()}};
    s.eventsDropped = d.u64();
    return s;
}

core::RunResult
pinnedRun(Distinct &d)
{
    core::RunResult r;
    r.seconds = d.f64();
    r.txTotal = d.u64();
    r.txByType = {d.u64(), d.u64(), d.u64()};
    r.throughput = d.f64();
    fillCounters(r.cpi, d);
    fillCounters(r.modes, d);
    fillCounters(r.cache, d);
    r.gcMinor = d.u64();
    r.gcMajor = d.u64();
    r.gcPause = d.u64();
    r.liveAfterMB = d.f64();
    r.beanHitRate = d.f64();
    r.metrics = std::make_shared<const sim::MetricSnapshot>(
        pinnedSnapshot(d));
    return r;
}

core::Fig10Data
pinnedFig10(Distinct &d)
{
    core::Fig10Data f;
    f.t0 = d.u64();
    f.bins = {d.u64(), d.u64(), d.u64()};
    f.gcWindows = {{d.u64(), d.u64()}, {d.u64(), d.u64()}};
    f.point = d.str();
    f.snap = pinnedSnapshot(d);
    return f;
}

core::LivePoint
pinnedLive(Distinct &d)
{
    core::LivePoint p;
    p.mb = d.f64();
    p.point = d.str();
    p.snap = pinnedSnapshot(d);
    return p;
}

core::SweepOutcome
pinnedSweep(Distinct &d)
{
    core::SweepOutcome o;
    for (auto *side : {&o.icache, &o.dcache}) {
        for (int i = 0; i < 2; ++i) {
            mem::SweepResult res;
            res.params = {d.u64(), d.u32(), d.u32()};
            res.accesses = d.u64();
            res.misses = d.u64();
            side->push_back(res);
        }
    }
    o.instructions = d.u64();
    o.point = d.str();
    o.snap = pinnedSnapshot(d);
    return o;
}

core::CommPoint
pinnedComm(Distinct &d)
{
    core::CommPoint p;
    p.curve = stats::ConcentrationCurve({d.u64(), d.u64(), d.u64()});
    p.touchedLines = d.u64();
    p.point = d.str();
    p.snap = pinnedSnapshot(d);
    return p;
}

/** One step of a word-wise FNV-1a digest. */
std::uint64_t
mixWord(std::uint64_t h, std::uint64_t word)
{
    return (h ^ word) * 0x100000001b3ULL;
}

/**
 * Fold into `h` whether a `T` decodes from every truncation of
 * `full` and from `full` with 0x01, 0x80 and 0xff XORed into each
 * byte, and for each that decodes, the bytes it re-encodes to.
 */
template <typename T>
std::uint64_t
corruptionDigest(std::uint64_t h, const std::string &full)
{
    const auto attempt = [&h](const std::string &bytes) {
        T out;
        const bool decoded = sim::decodeFields(bytes, out);
        h = mixWord(h, decoded);
        if (decoded)
            h = mixWord(h, sim::fnv1a64(sim::encodeFields(out)));
    };
    for (std::size_t cut = 0; cut < full.size(); ++cut)
        attempt(full.substr(0, cut));
    for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
        for (std::size_t pos = 0; pos < full.size(); ++pos) {
            std::string bad = full;
            bad[pos] = static_cast<char>(bad[pos] ^ mask);
            attempt(bad);
        }
    }
    return h;
}

std::string
hashOf(const std::string &bytes)
{
    return sim::hashHex(sim::fnv1a64(bytes));
}

/** The three spec-key inputs of CacheCodec.EncodedBytesArePinned. */
std::vector<core::ExperimentSpec>
pinnedSpecs()
{
    core::ExperimentSpec jbb;

    core::ExperimentSpec ec;
    ec.workload = core::WorkloadKind::Ecperf;
    ec.appCpus = 4;
    ec.sys.jvm.heap.tlabBytes = 96u << 10;
    ec.sys.jvm.survivorFraction = 0.375;
    ec.sys.jvm.gcInstrPerLine = 19;
    ec.sys.kernel.switchInstr = 4321;
    ec.sys.kernel.housekeepPeriod = 7'000'000;
    ec.ecperf.injectionRate = 12;
    ec.ecperf.beanZipf = 0.875;
    ec.ecperf.mix[2] += 0.0625;

    core::ExperimentSpec dir;
    dir.appCpus = 32;
    dir.totalCpus = 64;
    dir.protocol = sim::CoherenceProtocol::DirectoryMesi;
    dir.topology = sim::Topology::Mesh;
    dir.numaNodes = 4;
    dir.dirOccupancy = 2;
    return {jbb, ec, dir};
}

} // namespace

TEST(CacheCodec, EncodedBytesArePinned)
{
    // The spec keys of three machines and one payload of each cached
    // kind, every field set to a distinct non-zero value. Recorded on
    // the hand-written encoders; the field lists must reproduce them.
    const auto specs = pinnedSpecs();
    EXPECT_EQ(hashOf(core::encodeSpecKey(specs[0])), "ab59fa884f8939db");
    EXPECT_EQ(hashOf(core::encodeSpecKey(specs[1])), "e876b51b71dc846e");
    EXPECT_EQ(hashOf(core::encodeSpecKey(specs[2])), "2adbe5c4f11f8a32");

    Distinct d;
    EXPECT_EQ(hashOf(sim::encodeFields(pinnedRun(d))), "0b10dfd4387a5b79");
    EXPECT_EQ(hashOf(sim::encodeFields(pinnedFig10(d))),
              "c3bff0180e7d4ed7");
    EXPECT_EQ(hashOf(sim::encodeFields(pinnedLive(d))), "f12c3ce630639bed");
    EXPECT_EQ(hashOf(sim::encodeFields(pinnedSweep(d))),
              "2c84b576031f05e6");
    EXPECT_EQ(hashOf(sim::encodeFields(pinnedComm(d))), "9b84145208e74985");
}

TEST(CacheCodec, CorruptionOutcomesArePinned)
{
    // Whether each truncated or bit-flipped payload of the five kinds
    // decodes, and what a decoded one re-encodes to. Recorded on the
    // hand-written decoders; the field lists must reproduce it.
    Distinct d;
    std::uint64_t h = sim::fnv1a64Init;
    h = corruptionDigest<core::RunResult>(h, sim::encodeFields(pinnedRun(d)));
    h = corruptionDigest<core::Fig10Data>(h,
                                          sim::encodeFields(pinnedFig10(d)));
    h = corruptionDigest<core::LivePoint>(h,
                                          sim::encodeFields(pinnedLive(d)));
    h = corruptionDigest<core::SweepOutcome>(
        h, sim::encodeFields(pinnedSweep(d)));
    h = corruptionDigest<core::CommPoint>(h,
                                          sim::encodeFields(pinnedComm(d)));
    EXPECT_EQ(sim::hashHex(h), "5be7ab13d746400c");
}
