/**
 * @file
 * Invariant-checking subsystem tests (src/check/).
 *
 * Three claims are anchored here:
 *  - soundness: random geometries x random reference streams and
 *    execution-driven workload snippets (including edge geometries:
 *    uniprocessor, direct-mapped, fully shared L2, one-warehouse
 *    SPECjbb) check clean — the simulator upholds its own invariants;
 *  - sensitivity: every deliberately injected protocol defect
 *    (mem::FaultPlan) is caught, and the violating stream shrinks to
 *    a minimal replayable `.mst` repro (< 1000 records) that still
 *    fires the same invariant;
 *  - neutrality: arming the checkers never changes simulation
 *    results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "check/mem_checker.hh"
#include "check/report.hh"
#include "check/shrink.hh"
#include "core/experiment.hh"
#include "core/trace_run.hh"
#include "mem/fault.hh"
#include "sim/rng.hh"
#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"

using namespace middlesim;

namespace
{

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/middlesim_test_check.XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

trace::TraceHeader
header(unsigned total_cpus, unsigned cpus_per_l2,
       std::uint64_t l1_bytes, unsigned l1_assoc,
       std::uint64_t l2_bytes, unsigned l2_assoc)
{
    trace::TraceHeader h;
    h.label = "check-test";
    h.totalCpus = total_cpus;
    h.appCpus = total_cpus;
    h.cpusPerL2 = cpus_per_l2;
    h.l1i = {l1_bytes, l1_assoc, 64};
    h.l1d = {l1_bytes, l1_assoc, 64};
    h.l2 = {l2_bytes, l2_assoc, 64};
    return h;
}

/**
 * A deterministic random stream: a hot set all CPUs share plus a cold
 * pool larger than the L2 (evictions), all access types represented.
 */
std::vector<trace::TraceRecord>
randomStream(std::uint64_t seed, const trace::TraceHeader &h,
             unsigned refs)
{
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7e57);
    const unsigned hotBlocks = 48;
    const unsigned coldBlocks = std::min<unsigned>(
        2 * static_cast<unsigned>(h.l2.sizeBytes / 64), 4096);

    std::vector<trace::TraceRecord> out;
    out.reserve(refs);
    sim::Tick t = 1000;
    for (unsigned i = 0; i < refs; ++i) {
        t += 1 + rng.uniform(40);
        trace::TraceRecord rec;
        rec.tick = t;
        rec.ref.cpu = static_cast<unsigned>(rng.uniform(h.totalCpus));
        const mem::Addr block =
            rng.chance(0.6)
                ? 0x1000'0000ULL + 64 * rng.uniform(hotBlocks)
                : 0x2000'0000ULL + 64 * rng.uniform(coldBlocks);
        const std::uint64_t roll = rng.uniform(100);
        if (roll < 50)
            rec.ref.type = mem::AccessType::Load;
        else if (roll < 75)
            rec.ref.type = mem::AccessType::Store;
        else if (roll < 85)
            rec.ref.type = mem::AccessType::IFetch;
        else if (roll < 90)
            rec.ref.type = mem::AccessType::Atomic;
        else
            rec.ref.type = mem::AccessType::BlockStore;
        rec.ref.addr = rec.ref.type == mem::AccessType::BlockStore
                           ? block
                           : block + 8 * rng.uniform(8);
        out.push_back(rec);
    }
    return out;
}

/** A small workload snippet spec with GC forced inside the run. */
core::ExperimentSpec
snippetSpec(unsigned total_cpus, unsigned cpus_per_l2,
            std::uint64_t seed)
{
    core::ExperimentSpec spec;
    spec.workload = core::WorkloadKind::SpecJbb;
    spec.scale = 1;
    spec.totalCpus = total_cpus;
    spec.appCpus = total_cpus;
    spec.cpusPerL2 = cpus_per_l2;
    spec.seed = seed;
    spec.warmup = 200'000;
    spec.measure = 1'000'000;
    // Tiny young generation and TLABs: collections (and with them the
    // GC-window and JVM checkers) trigger inside the short snippet.
    spec.sys.jvm.heap.newGenBytes = 256 * 1024;
    spec.sys.jvm.heap.overshootBytes = 256 * 1024;
    spec.sys.jvm.heap.tlabBytes = 4 * 1024;
    return spec;
}

/** Run a snippet with collection-mode checkers armed. */
struct CheckedRun
{
    core::RunResult result;
    bool clean = false;
    std::uint64_t refsChecked = 0;
    std::uint64_t violations = 0;
    std::string firstInvariant;
};

CheckedRun
runChecked(const core::ExperimentSpec &spec,
           const mem::FaultPlan *fault = nullptr,
           trace::TraceWriter *writer = nullptr)
{
    check::setCheckingEnabled(false);
    core::BuiltWorkload workload;
    auto system = core::buildSystem(spec, workload);
    check::CheckOptions opts;
    opts.failFast = false;
    system->enableChecking(opts);
    if (fault)
        system->memory().setFaultPlan(fault);
    if (writer)
        system->setTraceSink(writer);
    CheckedRun out;
    out.result = core::measure(*system, spec, workload);
    system->setTraceSink(nullptr);
    system->memory().setFaultPlan(nullptr);
    const check::CheckReport &report = system->checker()->report();
    out.clean = report.clean();
    out.refsChecked = report.refsChecked;
    out.violations = report.totalViolations();
    if (!report.violations().empty())
        out.firstInvariant = report.violations().front().invariant;
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Soundness: the simulator upholds its own invariants.
// ---------------------------------------------------------------------

TEST(CheckClean, RandomGeometriesAndStreams)
{
    static const unsigned cpuChoices[] = {1, 2, 4, 8, 16};
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        sim::Rng rng(seed);
        const unsigned cpus = cpuChoices[rng.uniform(5)];
        unsigned per = 1u << rng.uniform(5);
        while (cpus % per != 0)
            per >>= 1;
        const trace::TraceHeader h =
            header(cpus, per, 4096 << rng.uniform(3),
                   1u << rng.uniform(3), 32768 << rng.uniform(3),
                   1u << rng.uniform(4));
        const auto stream = randomStream(seed, h, 8000);
        EXPECT_EQ(check::violatedInvariant(h, stream), "")
            << "seed " << seed << ": " << cpus << " cpus, " << per
            << " per L2";
    }
}

TEST(CheckClean, EdgeGeometryUniprocessor)
{
    const trace::TraceHeader h = header(1, 1, 8192, 2, 65536, 4);
    EXPECT_EQ(check::violatedInvariant(h, randomStream(3, h, 10000)),
              "");
}

TEST(CheckClean, EdgeGeometryDirectMapped)
{
    // Direct-mapped L1s and L2: maximal conflict evictions.
    const trace::TraceHeader h = header(4, 2, 4096, 1, 32768, 1);
    EXPECT_EQ(check::violatedInvariant(h, randomStream(4, h, 10000)),
              "");
}

TEST(CheckClean, EdgeGeometryFullySharedL2)
{
    // One L2 shared by every CPU: sharing degree = ncpus (Figure 16's
    // far end); no cross-group coherence at all.
    const trace::TraceHeader h = header(16, 16, 8192, 2, 131072, 4);
    EXPECT_EQ(check::violatedInvariant(h, randomStream(5, h, 10000)),
              "");
}

// ---------------------------------------------------------------------
// Sensitivity: injected protocol defects are caught and shrink to
// minimal replayable repros.
// ---------------------------------------------------------------------

namespace
{

/** Catch + shrink + re-verify one injected defect end to end. */
void
expectCaughtAndShrunk(mem::FaultPlan::Kind kind,
                      const std::string &want_invariant)
{
    const trace::TraceHeader h = header(8, 2, 8192, 2, 65536, 4);
    const auto stream = randomStream(11, h, 8000);

    mem::FaultPlan plan;
    plan.kind = kind;
    plan.period = 2;
    plan.salt = 17;

    const std::string invariant =
        check::violatedInvariant(h, stream, &plan);
    EXPECT_EQ(invariant, want_invariant);

    check::ShrinkResult r = check::shrinkToMinimal(h, stream, &plan);
    ASSERT_TRUE(r.reproduced);
    EXPECT_EQ(r.invariant, invariant);
    EXPECT_EQ(r.originalCount, stream.size());
    // The acceptance bar: a minimal repro, not a truncated haystack.
    EXPECT_LT(r.records.size(), 1000u);
    EXPECT_GE(r.records.size(), 1u);
    // The minimized stream must still fire the same invariant.
    EXPECT_EQ(check::violatedInvariant(h, r.records, &plan),
              invariant);
    // And the unfaulted hierarchy must not object to it.
    EXPECT_EQ(check::violatedInvariant(h, r.records), "");
}

} // namespace

TEST(CheckInject, DropInvalidateCaughtAndShrunk)
{
    expectCaughtAndShrunk(mem::FaultPlan::Kind::DropInvalidate,
                          "mosi.peer-not-invalidated");
}

TEST(CheckInject, KeepOwnerOnSnoopCaughtAndShrunk)
{
    expectCaughtAndShrunk(mem::FaultPlan::Kind::KeepOwnerOnSnoop,
                          "mosi.snoop-degrade");
}

TEST(CheckInject, SkipL1BackInvalidateCaughtAndShrunk)
{
    expectCaughtAndShrunk(mem::FaultPlan::Kind::SkipL1BackInvalidate,
                          "incl.l1-stale-after-write");
}

TEST(CheckInject, ReproFileRoundTrips)
{
    const trace::TraceHeader h = header(4, 1, 8192, 2, 65536, 4);
    const auto stream = randomStream(13, h, 8000);
    mem::FaultPlan plan;
    plan.kind = mem::FaultPlan::Kind::DropInvalidate;
    plan.period = 2;

    check::ShrinkResult r = check::shrinkToMinimal(h, stream, &plan);
    ASSERT_TRUE(r.reproduced);

    const std::string dir = makeTempDir();
    const std::string path = check::writeRepro(dir, 13, h, r);
    ASSERT_FALSE(path.empty());

    // The repro is a standard, fully valid .mst trace.
    std::string bytes;
    ASSERT_TRUE(trace::readTraceFile(path, bytes));
    trace::TraceReader reader(std::move(bytes));
    ASSERT_TRUE(reader.ok()) << reader.error();
    const auto records = check::collectRecords(reader);
    ASSERT_TRUE(reader.complete()) << reader.error();
    EXPECT_EQ(records.size(), r.records.size());
    EXPECT_EQ(reader.header().totalCpus, h.totalCpus);

    // Replaying the decoded file still fires the same invariant.
    EXPECT_EQ(check::violatedInvariant(reader.header(), records,
                                       &plan),
              r.invariant);
}

// ---------------------------------------------------------------------
// Execution-driven snippets: full-system checkers (memory + scheduler
// + JVM/GC) on real workload activity.
// ---------------------------------------------------------------------

TEST(CheckWorkload, JbbSnippetCleanWithGc)
{
    // More warehouses and a longer interval than the other snippets:
    // the allocation rate must actually fill the tiny young
    // generation, or the GC-window/JVM checkers never exercise.
    core::ExperimentSpec spec = snippetSpec(4, 2, 21);
    spec.scale = 4;
    spec.measure = 6'000'000;
    const CheckedRun run = runChecked(spec);
    EXPECT_TRUE(run.clean) << run.firstInvariant;
    EXPECT_GT(run.refsChecked, 0u);
    EXPECT_GE(run.result.gcMinor, 1u);
}

TEST(CheckWorkload, EdgeGeometryOneCpuClean)
{
    const CheckedRun run = runChecked(snippetSpec(1, 1, 22));
    EXPECT_TRUE(run.clean) << run.firstInvariant;
    EXPECT_GT(run.refsChecked, 0u);
}

TEST(CheckWorkload, CheckingIsObservationOnly)
{
    const core::ExperimentSpec spec = snippetSpec(2, 1, 23);

    check::setCheckingEnabled(false);
    core::BuiltWorkload plainWl;
    auto plain = core::buildSystem(spec, plainWl);
    ASSERT_EQ(plain->checker(), nullptr);
    const core::RunResult unchecked =
        core::measure(*plain, spec, plainWl);

    const CheckedRun checked = runChecked(spec);
    EXPECT_TRUE(checked.clean) << checked.firstInvariant;

    EXPECT_EQ(checked.result.txTotal, unchecked.txTotal);
    EXPECT_EQ(checked.result.cpi.instructions,
              unchecked.cpi.instructions);
    EXPECT_EQ(checked.result.seconds, unchecked.seconds);
    EXPECT_EQ(checked.result.gcMinor, unchecked.gcMinor);
    EXPECT_EQ(checked.result.cache.l2Accesses,
              unchecked.cache.l2Accesses);
    EXPECT_EQ(checked.result.cache.missCold,
              unchecked.cache.missCold);
}

TEST(CheckWorkload, InjectedFaultCaughtAndShrunkEndToEnd)
{
    // The full acceptance path: a deliberately seeded coherence bug
    // in an execution-driven run is caught by the checkers, the
    // recorded reference trace shrinks to a minimal repro
    // (< 1000 records), and the repro still fires the same invariant.
    const core::ExperimentSpec spec = snippetSpec(4, 1, 24);
    mem::FaultPlan plan;
    plan.kind = mem::FaultPlan::Kind::DropInvalidate;
    plan.period = 1;

    check::setCheckingEnabled(false);
    core::BuiltWorkload workload;
    auto system = core::buildSystem(spec, workload);
    const trace::TraceHeader h =
        core::traceHeaderFor(*system, spec);
    trace::TraceWriter writer(h);
    {
        check::CheckOptions opts;
        opts.failFast = false;
        system->enableChecking(opts);
        system->memory().setFaultPlan(&plan);
        system->setTraceSink(&writer);
        core::measure(*system, spec, workload);
        system->setTraceSink(nullptr);
        system->memory().setFaultPlan(nullptr);
    }
    const check::CheckReport &report = system->checker()->report();
    ASSERT_FALSE(report.clean());
    const std::string invariant =
        report.violations().front().invariant;

    trace::TraceReader reader(writer.take());
    std::vector<trace::TraceRecord> records =
        check::collectRecords(reader);
    ASSERT_TRUE(reader.complete()) << reader.error();
    ASSERT_GT(records.size(), 1000u);

    check::ShrinkResult r =
        check::shrinkToMinimal(h, std::move(records), &plan);
    ASSERT_TRUE(r.reproduced);
    EXPECT_EQ(r.invariant, invariant);
    EXPECT_LT(r.records.size(), 1000u);
    EXPECT_EQ(check::violatedInvariant(h, r.records, &plan),
              r.invariant);
}

// ---------------------------------------------------------------------
// Report plumbing.
// ---------------------------------------------------------------------

TEST(CheckReportTest, CollectionModeCapsStoredViolations)
{
    check::CheckOptions opts;
    opts.failFast = false;
    opts.maxViolations = 2;
    check::CheckReport report(opts);
    EXPECT_TRUE(report.clean());
    for (int i = 0; i < 5; ++i)
        report.violate("test.invariant", "detail", 100 + i);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.totalViolations(), 5u);
    ASSERT_EQ(report.violations().size(), 2u);
    EXPECT_EQ(report.violations()[0].invariant, "test.invariant");
    EXPECT_EQ(report.violations()[0].tick, 100u);
}

TEST(CheckReportTest, FormatViolationMatchesFailFastShape)
{
    check::Violation v;
    v.invariant = "mosi.peer-not-invalidated";
    v.detail = "block 0x40 still Shared in group 1";
    v.tick = 1234;
    v.refIndex = 7;
    EXPECT_EQ(check::formatViolation(v),
              "mosi.peer-not-invalidated — block 0x40 still Shared "
              "in group 1 (tick 1234, ref #7)");
}

TEST(CheckReportTest, FormatReportCleanAndViolated)
{
    check::CheckOptions opts;
    opts.failFast = false;
    opts.maxViolations = 1;
    check::CheckReport report(opts);
    report.refsChecked = 42;
    EXPECT_EQ(check::formatReport(report),
              "clean: 42 refs checked, 0 violations");

    report.refIndex = 3;
    report.violate("a.b", "first", 10);
    report.violate("c.d", "second", 20);
    const std::string text = check::formatReport(report);
    EXPECT_NE(text.find("violated: 42 refs checked, 2 violations"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("(1 retained)"), std::string::npos) << text;
    EXPECT_NE(text.find("a.b — first (tick 10, ref #3)"),
              std::string::npos)
        << text;
    // The second violation fell to the cap and must not be rendered.
    EXPECT_EQ(text.find("c.d"), std::string::npos) << text;
}

TEST(CheckReportTest, BoundedCollectionUnderRealFlood)
{
    // A period-1 defect on a hot shared stream fires far more often
    // than the cap: the report must retain exactly the cap, keep
    // counting the overflow, and stay out of fail-fast.
    const trace::TraceHeader h = header(8, 2, 8192, 2, 65536, 4);
    const auto stream = randomStream(31, h, 8000);
    mem::FaultPlan plan;
    plan.kind = mem::FaultPlan::Kind::DropInvalidate;
    plan.period = 1;

    auto hierarchy = trace::hierarchyFor(h);
    hierarchy->setFaultPlan(&plan);
    check::CheckOptions opts;
    opts.failFast = false;
    opts.maxViolations = 4;
    check::CheckReport report(opts);
    check::MemChecker checker(*hierarchy, report);
    hierarchy->setAccessObserver(&checker);
    for (const trace::TraceRecord &rec : stream) {
        if (rec.isRef)
            hierarchy->access(rec.ref, rec.tick);
    }

    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.violations().size(), 4u);
    EXPECT_GT(report.totalViolations(), 4u);
    EXPECT_EQ(report.refsChecked, stream.size());
}

// ---------------------------------------------------------------------
// Degenerate 1-CPU geometries: peer-coherence defects have no peer to
// corrupt, but the inclusion defect still fires through evictions.
// ---------------------------------------------------------------------

TEST(CheckDegenerate, OneCpuPeerFaultsCannotFire)
{
    const trace::TraceHeader h = header(1, 1, 4096, 2, 32768, 4);
    const auto stream = randomStream(41, h, 10000);
    for (const mem::FaultPlan::Kind kind :
         {mem::FaultPlan::Kind::DropInvalidate,
          mem::FaultPlan::Kind::KeepOwnerOnSnoop}) {
        mem::FaultPlan plan;
        plan.kind = kind;
        plan.period = 1;
        EXPECT_EQ(check::violatedInvariant(h, stream, &plan), "")
            << mem::toString(kind)
            << " should be inert without a peer CPU";
    }
}

TEST(CheckDegenerate, OneCpuSkipL1FiresViaEviction)
{
    // SkipL1BackInvalidate corrupts the L2->L1 back-invalidate on
    // eviction as well as on remote writes, so a single CPU with a
    // cold pool spilling its L2 is enough to catch it — through the
    // inclusion audit (L1 holds a block the L2 evicted) rather than
    // the remote-write staleness check, which needs a peer.
    const trace::TraceHeader h = header(1, 1, 4096, 2, 32768, 4);
    const auto stream = randomStream(42, h, 10000);
    mem::FaultPlan plan;
    plan.kind = mem::FaultPlan::Kind::SkipL1BackInvalidate;
    plan.period = 1;
    EXPECT_EQ(check::violatedInvariant(h, stream, &plan),
              "incl.l1-without-l2");
}

// ---------------------------------------------------------------------
// Defect-catch matrix: every FaultPlan kind x the checker that must
// catch it. An injected bug no checker fires on is a test failure.
// ---------------------------------------------------------------------

TEST(CheckMatrix, EveryFaultKindCaughtByExpectedChecker)
{
    struct Row
    {
        mem::FaultPlan::Kind kind;
        const char *invariant;
    };
    static const Row rows[] = {
        {mem::FaultPlan::Kind::DropInvalidate,
         "mosi.peer-not-invalidated"},
        {mem::FaultPlan::Kind::KeepOwnerOnSnoop,
         "mosi.snoop-degrade"},
        {mem::FaultPlan::Kind::SkipL1BackInvalidate,
         "incl.l1-stale-after-write"},
    };
    static const unsigned geoms[][2] = {{2, 1}, {4, 2}, {8, 2}};
    for (const Row &row : rows) {
        for (const auto &geom : geoms) {
            const trace::TraceHeader h =
                header(geom[0], geom[1], 8192, 2, 65536, 4);
            const auto stream = randomStream(51, h, 8000);
            mem::FaultPlan plan;
            plan.kind = row.kind;
            plan.period = 1;
            EXPECT_EQ(check::violatedInvariant(h, stream, &plan),
                      row.invariant)
                << mem::toString(row.kind) << " on " << geom[0]
                << " cpus / " << geom[1] << " per L2";
        }
    }
}

TEST(FaultPlanNames, ParseInvertsToString)
{
    using Kind = mem::FaultPlan::Kind;
    for (const Kind kind :
         {Kind::None, Kind::DropInvalidate, Kind::KeepOwnerOnSnoop,
          Kind::SkipL1BackInvalidate, Kind::DropInvalAck,
          Kind::NackStorm}) {
        Kind parsed = kind == Kind::None ? Kind::NackStorm : Kind::None;
        ASSERT_TRUE(mem::parseFaultKind(mem::toString(kind), parsed))
            << mem::toString(kind);
        EXPECT_EQ(parsed, kind) << mem::toString(kind);
    }
    Kind parsed = Kind::None;
    EXPECT_TRUE(mem::parseFaultKind("skip-l1", parsed));
    EXPECT_EQ(parsed, Kind::SkipL1BackInvalidate);
    EXPECT_FALSE(mem::parseFaultKind("drop-everything", parsed));
    EXPECT_EQ(parsed, Kind::SkipL1BackInvalidate);
}
