/**
 * @file
 * middlesim performance benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--spans-out PATH] [--git-describe TEXT]
 *
 * Runs one named workload, single-threaded, in this process, through
 * the simulator's public API. Every iteration passes a correctness
 * gate and yields a digest of its simulated statistics; the digest
 * must repeat exactly across iterations of one seed.
 *
 * --trace 0 measures the end-to-end metrics with no hooks attached:
 * simulated references per host second over the timed calls, host
 * seconds in core::buildSystem, and peak RSS. --trace 1 alternates
 * untraced iterations with iterations observed through the public
 * hook points (see observers.hh), runs the trace-layer probe, and
 * reports per-layer metrics; its span log is written at exit.
 *
 * Stdout: one meta line {"perfbench": {...}} describing the build and
 * the workload, then the result object as the last line.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/manycore.hh"
#include "core/trace_run.hh"
#include "observers.hh"
#include "sim/serialize.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

using namespace middlesim;
using perfbench::nowNs;
using perfbench::SpanLog;
using perfbench::Tracer;

namespace
{

/** Sharing degrees of the ECperf replay fan-out (Figure 16). */
const std::vector<unsigned> kSharingDegrees = {1, 2, 4, 8};

/** One traced access in this many is host-timed. */
constexpr unsigned kSampleEvery = 64;

/**
 * Iterations cycle through the point's first repetition seeds of the
 * variability methodology (core::repeatedSpec), so a run's medians
 * and peak RSS do not hinge on one seed's GC timing or metadata-table
 * size (one jbb-e6000 seed in five peaks at 46 MB instead of 74 MB).
 */
constexpr unsigned kRepetitions = 4;

double
secondsBetween(std::int64_t a, std::int64_t b)
{
    return static_cast<double>(b - a) * 1e-9;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- workloads

enum class Kind
{
    /** buildSystem, then the warmup+measure call. */
    Execution,
    /** recordTraceRun, then sweep and sharing replays of the trace. */
    TraceReplay,
};

struct Workload
{
    std::string name;
    Kind kind = Kind::Execution;
    core::ExperimentSpec spec;
    /** repeatedSpec(spec, r) for r < kRepetitions. */
    std::vector<core::ExperimentSpec> reps;
};

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "jbb-e6000") {
        // SPECjbb, 8 warehouses on an 8-CPU processor set of the
        // 16-CPU snooping-bus E6000; default warmup and measure.
        w.spec.seed = seed;
    } else if (name == "jbb-dir128-mesh") {
        core::FigureOptions opt;
        opt.seed = seed;
        w.spec = core::manycoreContendedSpec(128, sim::Topology::Mesh, opt);
    } else if (name == "ecperf-trace") {
        w.kind = Kind::TraceReplay;
        w.spec.workload = core::WorkloadKind::Ecperf;
        w.spec.appCpus = 4;
        w.spec.totalCpus = 8;
        w.spec.scale = 4;
        w.spec.measure = 20'000'000;
        w.spec.seed = seed;
    } else {
        return std::nullopt;
    }
    for (unsigned r = 0; r < kRepetitions; ++r)
        w.reps.push_back(core::repeatedSpec(w.spec, r));
    return w;
}

// ---------------------------------------------------------------- gate

std::uint64_t
refsOf(const mem::CacheStats &s)
{
    return s.ifetches + s.loads + s.stores + s.atomics;
}

std::uint64_t
counterOf(const sim::MetricSnapshot &m, const std::string &name)
{
    const auto it = m.counters.find(name);
    return it == m.counters.end() ? 0 : it->second;
}

std::uint64_t
counterSum(const sim::MetricSnapshot &m, const std::string &prefix)
{
    std::uint64_t sum = 0;
    for (auto it = m.counters.lower_bound(prefix);
         it != m.counters.end() && it->first.rfind(prefix, 0) == 0; ++it)
        sum += it->second;
    return sum;
}

/** Failures of one iteration (empty = passed). */
struct Gate
{
    std::vector<std::string> failures;

    void
    require(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** The per-run checks every execution-driven result must pass. */
void
gateRun(const core::RunResult &r, Gate &g)
{
    g.require(r.metrics != nullptr, "metrics snapshot present");
    if (!r.metrics)
        return;
    const sim::MetricSnapshot &m = *r.metrics;
    g.require(r.txTotal > 0, "transactions > 0");
    g.require(r.cpi.instructions > 0, "instructions > 0");
    g.require(r.cpi.totalCycles() > 0, "cycles > 0");
    g.require(counterSum(m, "cpu.app.cycles.") == r.cpi.totalCycles(),
              "CPI buckets sum to the total cycles");
    for (const char *side : {"mem.app.", "mem.all."}) {
        const std::string p = side;
        const std::uint64_t misses = counterOf(m, p + "miss_cold") +
                                     counterOf(m, p + "miss_coherence") +
                                     counterOf(m, p + "miss_capacity");
        g.require(counterOf(m, p + "instr_misses") +
                          counterOf(m, p + "data_misses") ==
                      misses,
                  p + "instr+data misses sum to the L2 misses");
    }
    g.require(counterOf(m, "mem.app.miss_cold") +
                      counterOf(m, "mem.app.miss_coherence") +
                      counterOf(m, "mem.app.miss_capacity") ==
                  r.cache.l2Misses(),
              "miss classes sum to the L2 misses");
    g.require(counterOf(m, "mem.dir.livelock_breaks") == 0,
              "no dir.livelock");
}

// ---------------------------------------------------------------- digest

/** FNV-1a over the simulated statistics an iteration produced. */
class Digest
{
  public:
    void
    add(std::string_view s)
    {
        h_ = sim::fnv1a64Step(h_, s);
    }

    void
    add(std::uint64_t v)
    {
        add(std::string_view(reinterpret_cast<const char *>(&v),
                             sizeof v));
    }

    void
    add(const sim::MetricSnapshot &m)
    {
        std::ostringstream os;
        m.writeJson(os);
        add(os.str());
    }

    void
    add(const mem::CacheStats &s)
    {
        for (std::uint64_t v :
             {s.ifetches, s.loads, s.stores, s.atomics, s.l1iHits,
              s.l1dHits, s.l2Accesses, s.l2Hits, s.missCold,
              s.missCoherence, s.missCapacity, s.c2cTransfers,
              s.upgrades, s.writebacks, s.blockStores, s.instrMisses,
              s.dataMisses})
            add(v);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = sim::fnv1a64Init;
};

bool
sameStats(const std::vector<mem::CacheStats> &a,
          const std::vector<mem::CacheStats> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        Digest da, db;
        da.add(a[i]);
        db.add(b[i]);
        if (da.value() != db.value())
            return false;
    }
    return true;
}

// ---------------------------------------------------------------- iterations

/** What one iteration measured. */
struct Iteration
{
    Gate gate;
    std::uint64_t digest = 0;
    /** Host seconds in core::buildSystem. */
    double setupS = 0.0;
    /** Host seconds of the timed calls and the simulated refs in them. */
    double callS = 0.0;
    double refs = 0.0;
    /** The measured-interval result (execution-driven or recorded). */
    core::RunResult run;

    /** Traced iterations only. */
    perfbench::TraceCounts traced;
    /** Host seconds of the observed (hooked) phase. */
    double observedS = 0.0;

    /** Isolated iterations only: the child process's peak RSS (MB). */
    double peakRssMb = 0.0;

    double refsPerS() const { return callS > 0.0 ? refs / callS : 0.0; }
};

/** Per-CPU stats of every CPU of a hierarchy. */
std::vector<mem::CacheStats>
perCpuStats(const mem::Hierarchy &h)
{
    std::vector<mem::CacheStats> out;
    for (unsigned c = 0; c < h.config().totalCpus; ++c)
        out.push_back(h.cpuStats(c));
    return out;
}

/**
 * The warmup+measure call: identical to core::measure(system, spec)
 * (which begins with system.run(spec.warmup)), split so the warmup
 * references can be counted before the statistics reset.
 */
core::RunResult
warmAndMeasure(core::System &system, const core::ExperimentSpec &spec,
               core::BuiltWorkload &wl, std::uint64_t &refs)
{
    system.run(spec.warmup);
    refs = refsOf(system.memory().aggregateAll());
    core::ExperimentSpec measured = spec;
    measured.warmup = 0;
    core::RunResult r = core::measure(system, measured, wl);
    refs += refsOf(system.memory().aggregateAll());
    return r;
}

/** One build and warmup+measure call of a spec. */
struct Point
{
    core::RunResult run;
    /** Simulated references of the warmup+measure call. */
    std::uint64_t refs = 0;
    double setupS = 0.0;
    double callS = 0.0;
    /** Recorded points: post-measure per-CPU stats and the trace. */
    std::vector<mem::CacheStats> perCpu;
    std::string trace;
    /** What the tracer counted, when one was hooked in. */
    perfbench::TraceCounts traced;
};

/**
 * Build `spec` and run its warmup+measure call, with spans under
 * `parent`. `record` streams the call into an in-memory trace, the
 * steps of core::recordTraceRun; a tracer is hooked in for the call.
 */
Point
runPoint(const core::ExperimentSpec &spec, bool record, SpanLog *spans,
         std::uint32_t parent, Tracer *tracer)
{
    Point p;
    core::BuiltWorkload wl;
    const std::int64_t t0 = nowNs();
    auto system = core::buildSystem(spec, wl);
    const std::int64_t t1 = nowNs();
    if (spans)
        spans->add("build", parent, t0, t1);
    std::optional<trace::TraceWriter> writer;
    if (record) {
        writer.emplace(core::traceHeaderFor(*system, spec));
        system->setTraceSink(&*writer);
    }
    const std::uint32_t phase =
        spans ? spans->open(record ? "record" : "measure", parent) : 0;
    if (tracer)
        tracer->attach(*system, phase);
    p.run = warmAndMeasure(*system, spec, wl, p.refs);
    if (writer) {
        writer->annotation(mem::TraceAnnotation::Instructions, 0,
                           system->now(), p.run.cpi.instructions);
        system->setTraceSink(nullptr);
    }
    const std::int64_t t2 = nowNs();
    if (tracer) {
        tracer->detach();
        p.traced = tracer->counts();
    }
    if (spans)
        spans->close(phase);
    if (writer) {
        p.perCpu = perCpuStats(system->memory());
        p.trace = writer->take();
    }
    p.setupS = secondsBetween(t0, t1);
    p.callS = secondsBetween(t1, t2);
    return p;
}

/** Open an iteration span (0 when spans are off). */
std::uint32_t
openIteration(SpanLog *spans, const Tracer *tracer)
{
    return spans ? spans->open(tracer ? "iteration.traced" : "iteration",
                               SpanLog::noParent)
                 : 0;
}

/** Copy a traced point's observer counts into its iteration. */
void
takeTraced(Iteration &it, const Point &p)
{
    it.traced = p.traced;
    it.observedS = p.callS;
    it.gate.require(p.traced.refs == p.refs,
                    "observer saw every simulated reference");
}

/** Execution-driven iteration: one point, optionally observed. */
Iteration
runExecution(const core::ExperimentSpec &spec, SpanLog *spans,
             Tracer *tracer)
{
    Iteration it;
    const std::uint32_t iter = openIteration(spans, tracer);
    Point p = runPoint(spec, false, spans, iter, tracer);
    if (spans)
        spans->close(iter);
    if (tracer)
        takeTraced(it, p);
    it.setupS = p.setupS;
    it.callS = p.callS;
    it.refs = static_cast<double>(p.refs);
    it.run = std::move(p.run);
    gateRun(it.run, it.gate);
    Digest d;
    d.add(*it.run.metrics);
    it.digest = d.value();
    return it;
}

/** Time `fn` and record it as a span. */
double
timed(SpanLog *spans, const char *name, std::uint32_t parent,
      const std::function<void()> &fn)
{
    const std::int64_t t0 = nowNs();
    fn();
    const std::int64_t t1 = nowNs();
    if (spans)
        spans->add(name, parent, t0, t1);
    return secondsBetween(t0, t1);
}

/** Checks shared by untraced and traced trace-replay iterations. */
void
gateReplay(const core::SweepReplayOutcome &sweep,
           const std::vector<core::HierarchyReplayOutcome> &sharing,
           const std::vector<mem::CacheStats> &recorded, Gate &g,
           Digest &d)
{
    g.require(sweep.valid, "sweep replay valid: " + sweep.error);
    for (const mem::SweepResult &r : sweep.icache) {
        d.add(r.accesses);
        d.add(r.misses);
    }
    for (const mem::SweepResult &r : sweep.dcache) {
        d.add(r.accesses);
        d.add(r.misses);
    }
    g.require(sharing.size() == kSharingDegrees.size(),
              "one sharing outcome per degree");
    for (const core::HierarchyReplayOutcome &o : sharing) {
        g.require(o.valid, "sharing replay valid: " + o.error);
        for (const mem::CacheStats &s : o.perCpu)
            d.add(s);
    }
    g.require(!sharing.empty() && sameStats(sharing[0].perCpu, recorded),
              "degree-1 replay matches the recorded per-CPU CacheStats");
}

/**
 * ECperf record + replay iteration. Untraced, it uses
 * core::recordTraceRun; traced, it records by hand so the observer
 * can be hooked into the recording System, and checks the trace bytes
 * against the untraced recording's.
 */
Iteration
runTraceReplay(const core::ExperimentSpec &spec, SpanLog *spans,
               Tracer *tracer)
{
    Iteration it;
    const std::uint32_t iter = openIteration(spans, tracer);
    std::string data;
    std::vector<mem::CacheStats> recorded;
    double record_s = 0.0;
    if (tracer) {
        Point p = runPoint(spec, true, spans, iter, tracer);
        takeTraced(it, p);
        it.setupS = p.setupS;
        record_s = p.setupS + p.callS;
        it.run = std::move(p.run);
        recorded = std::move(p.perCpu);
        data = std::move(p.trace);
    } else {
        {
            // Timed apart from its teardown, like every other build.
            core::BuiltWorkload wl;
            std::unique_ptr<core::System> system;
            it.setupS = timed(spans, "build", iter, [&] {
                system = core::buildSystem(spec, wl);
            });
        }
        core::TraceRecordOutcome rec;
        record_s = timed(spans, "record", iter, [&] {
            rec = core::recordTraceRun(spec);
        });
        it.run = std::move(rec.result);
        recorded = std::move(rec.perCpu);
        data = std::move(rec.traceData);
    }

    std::string copy = data;
    core::SweepReplayOutcome sweep;
    const double sweep_s = timed(spans, "sweep", iter, [&] {
        sweep = core::replayTraceSweep(std::move(copy));
    });
    copy = data;
    std::vector<core::HierarchyReplayOutcome> sharing;
    const double sharing_s = timed(spans, "sharing", iter, [&] {
        sharing = core::replayTraceSharing(std::move(copy),
                                           kSharingDegrees);
    });
    if (spans)
        spans->close(iter);

    it.callS = record_s + sweep_s + sharing_s;
    // Recording and the sweep see every reference once; the fan-out
    // feeds every reference to one hierarchy per sharing degree.
    it.refs = static_cast<double>(sweep.counts.refs) *
              static_cast<double>(2 + kSharingDegrees.size());
    gateRun(it.run, it.gate);
    Digest d;
    d.add(*it.run.metrics);
    d.add(sim::fnv1a64(data));
    gateReplay(sweep, sharing, recorded, it.gate, d);
    it.digest = d.value();
    return it;
}

/**
 * A run's figure from per-iteration values (iteration i ran seed
 * i mod kRepetitions): each seed's best value, then the median over
 * seeds. An iteration repeats its seed's work bit for bit and host
 * interference only ever slows it, so a seed's best iteration is its
 * least disturbed one; the median keeps any one seed from deciding.
 */
double
bestPerSeedMedian(const std::vector<double> &values, bool higher_is_better)
{
    std::vector<double> best;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double v = values[i];
        if (i < kRepetitions)
            best.push_back(v);
        else if (higher_is_better)
            best[i % kRepetitions] = std::max(best[i % kRepetitions], v);
        else
            best[i % kRepetitions] = std::min(best[i % kRepetitions], v);
    }
    return median(best);
}

/** Iteration `i` of a run: repetition seed i mod kRepetitions. */
Iteration
runIteration(const Workload &w, std::size_t i, SpanLog *spans,
             Tracer *tracer)
{
    const core::ExperimentSpec &spec = w.reps[i % kRepetitions];
    return w.kind == Kind::Execution ? runExecution(spec, spans, tracer)
                                     : runTraceReplay(spec, spans, tracer);
}

// ---------------------------------------------------------------- metrics

/** Ordered name -> (value, unit) result metrics. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value)) {
            std::cerr << "perfbench: metric " << name
                      << " is not finite\n";
            finite_ = false;
            value = 0.0;
        }
        entries_.push_back({name, value, unit});
    }

    bool finite() const { return finite_; }

    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };
    const std::vector<Entry> &entries() const { return entries_; }

    void
    writeJson(std::ostream &os) const
    {
        os << "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", entries_[i].value);
            os << (i ? ", " : "") << "\"" << entries_[i].name
               << "\": {\"value\": " << buf << ", \"unit\": \""
               << entries_[i].unit << "\"}";
        }
        os << "}";
    }

  private:
    std::vector<Entry> entries_;
    bool finite_ = true;
};

// ---------------------------------------------------------------- trace probe

/** Trace-layer costs on the workload's own reference stream. */
struct Probe
{
    Gate gate;
    /** trace.*, sweep.* and replay.* metrics, same order every probe. */
    Metrics metrics;
};

/**
 * Record the workload's spec once with no sink and once into memory,
 * then decode the trace into null frontends, sweep it, and replay it
 * at each sharing degree. Per-ref costs have the decode subtracted.
 */
Probe
runProbe(const core::ExperimentSpec &spec, SpanLog &spans)
{
    Probe p;
    const std::uint32_t iter = spans.open("probe", SpanLog::noParent);
    const double plain_s =
        runPoint(spec, false, &spans, iter, nullptr).callS;
    const Point rec = runPoint(spec, true, &spans, iter, nullptr);
    const double refs = static_cast<double>(rec.refs);
    p.gate.require(rec.refs > 0, "probe recorded references");
    p.metrics.set("trace.record_s", rec.callS, "s");
    p.metrics.set("trace.record_overhead", ratio(rec.callS, plain_s),
                  "ratio");
    p.metrics.set("trace.bytes_per_ref",
                  ratio(static_cast<double>(rec.trace.size()), refs),
                  "B/ref");

    std::string copy = rec.trace;
    const double decode_s = timed(&spans, "decode", iter, [&] {
        trace::TraceReader reader(std::move(copy));
        const trace::ReplayCounts c =
            trace::replayTrace(reader, nullptr, nullptr);
        p.gate.require(reader.complete() && c.refs == rec.refs,
                       "decode into null frontends returns every ref");
    });
    const auto per_ref_ns = [&](double s) {
        return ratio((s - decode_s) * 1e9, refs);
    };
    p.metrics.set("trace.decode_ns_per_ref", ratio(decode_s * 1e9, refs),
                  "ns");

    copy = rec.trace;
    const double sweep_s = timed(&spans, "sweep", iter, [&] {
        const core::SweepReplayOutcome o =
            core::replayTraceSweep(std::move(copy));
        p.gate.require(o.valid, "probe sweep valid: " + o.error);
    });
    p.metrics.set("sweep.ns_per_ref", per_ref_ns(sweep_s), "ns");
    for (unsigned degree : kSharingDegrees) {
        copy = rec.trace;
        const double s = timed(&spans, "sharing", iter, [&] {
            const core::HierarchyReplayOutcome o =
                core::replayTraceHierarchy(std::move(copy),
                                           {0, degree});
            p.gate.require(o.valid, "probe replay valid: " + o.error);
        });
        p.metrics.set("replay.sharing_ns_per_ref.d" + std::to_string(degree),
                      per_ref_ns(s), "ns");
    }
    spans.close(iter);
    return p;
}

// ---------------------------------------------------------------- output

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

/** Refuse builds whose timings would not describe the simulator. */
std::string
instrumentedBuildReason()
{
#if defined(__SANITIZE_ADDRESS__)
    return "AddressSanitizer build";
#elif defined(__SANITIZE_THREAD__)
    return "ThreadSanitizer build";
#elif !defined(__OPTIMIZE__)
    return "unoptimized build";
#else
    const std::string flags = PERFBENCH_CXX_FLAGS;
    for (const char *flag : {"-fsanitize", "--coverage", "-fprofile-arcs",
                             "-ftest-coverage", "-pg"}) {
        if (flags.find(flag) != std::string::npos)
            return std::string("build with ") + flag;
    }
    return "";
#endif
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
    std::string gitDescribe = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "jbb-e6000|jbb-dir128-mesh|ecperf-trace --seed N "
                 "--seconds S --trace 0|1 [--spans-out PATH] "
                 "[--git-describe TEXT]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string val = argv[++i];
        try {
            if (key == "--workload") {
                a.workload = val;
                have_workload = true;
            } else if (key == "--seed") {
                a.seed = std::stoull(val);
            } else if (key == "--seconds") {
                a.seconds = std::stod(val);
            } else if (key == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                a.trace = val == "1";
            } else if (key == "--spans-out") {
                a.spansOut = val;
            } else if (key == "--git-describe") {
                a.gitDescribe = val;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::exception &) {
            usage("bad value for " + key + ": " + val);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

void
printMeta(const Args &a, const Workload &w, std::size_t timed_iterations,
          std::uint64_t digest, const std::vector<double> &refs)
{
    const core::ExperimentSpec &s = w.spec;
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    std::string seeds, per_rep;
    for (unsigned r = 0; r < kRepetitions; ++r) {
        seeds += (r ? ", " : "") + std::to_string(w.reps[r].seed);
        per_rep += (r ? ", " : "") +
                   std::to_string(static_cast<std::uint64_t>(refs[r]));
    }
    std::cout
        << "{\"perfbench\": {\"schema\": \"perfbench-meta-v1\""
        << ", \"workload\": " << jsonString(w.name)
        << ", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
        << ", \"trace\": " << (a.trace ? 1 : 0)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << ", \"compiler\": " << jsonString("gcc " __VERSION__)
        << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
        << ", \"git_describe\": " << jsonString(a.gitDescribe)
        << ", \"threads\": 1"
        << ", \"sim_workload\": "
        << jsonString(s.workload == core::WorkloadKind::SpecJbb ? "specjbb"
                                                                : "ecperf")
        << ", \"protocol\": " << jsonString(sim::toString(s.protocol))
        << ", \"topology\": " << jsonString(sim::toString(s.topology))
        << ", \"dir_occupancy\": " << s.dirOccupancy
        << ", \"numa_nodes\": " << s.numaNodes
        << ", \"total_cpus\": " << s.totalCpus
        << ", \"app_cpus\": " << s.appCpus
        << ", \"cpus_per_l2\": " << s.cpusPerL2
        << ", \"scale\": " << s.resolvedScale()
        << ", \"sim_seeds\": [" << seeds << "]"
        << ", \"warmup_cycles\": " << s.warmup
        << ", \"measure_cycles\": " << s.measure;
    if (w.kind == Kind::TraceReplay) {
        std::cout << ", \"sharing_degrees\": [1, 2, 4, 8]";
    }
    std::cout
        << ", \"warmup_iterations\": 1"
        << ", \"timed_iterations\": " << timed_iterations
        << ", \"refs_per_iteration\": [" << per_rep << "]"
        << ", \"digest\": \"" << digest_hex << "\""
        << ", \"timing\": " << jsonString(
               "per repetition seed the fastest timed iteration, then "
               "the median over seeds")
        << ", \"statistics\": " << jsonString(
               "simulated statistics start after warmup "
               "(System::beginMeasurement); trace replay re-applies the "
               "recorded statistics reset; refs_per_s counts warmup and "
               "measured references of the timed calls")
        << ", \"accuracy\": " << jsonString(
               "host-speed numbers say nothing about model accuracy, "
               "which the golden corpus (tests/golden) and the figure "
               "shape checks track")
        << ", \"spans_out\": " << jsonString(a.spansOut) << "}}\n";
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const Metrics &m)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": ";
    m.writeJson(std::cout);
    std::cout << "}" << std::endl;
}

/** Running tally over every gated iteration. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** First digest and simulated refs of each repetition seed. */
    std::vector<std::optional<std::uint64_t>> digests =
        std::vector<std::optional<std::uint64_t>>(kRepetitions);
    std::vector<double> refs = std::vector<double>(kRepetitions);

    /** Count iteration `i`; its digest must match its seed's first. */
    void
    add(const Iteration &it, std::size_t i, const char *what)
    {
        const std::size_t r = i % kRepetitions;
        ++attempted;
        bool ok = it.gate.failures.empty();
        for (const std::string &f : it.gate.failures)
            std::cerr << "perfbench: " << what << " failed: " << f << "\n";
        if (!digests[r]) {
            digests[r] = it.digest;
            refs[r] = it.refs;
        } else if (*digests[r] != it.digest) {
            std::cerr << "perfbench: " << what
                      << " digest differs from its seed's first\n";
            ok = false;
        }
        if (!ok)
            ++failed;
    }

    /** Count a check with no digest (the trace probe). */
    void
    add(const Gate &gate, const char *what)
    {
        ++attempted;
        for (const std::string &f : gate.failures)
            std::cerr << "perfbench: " << what << " failed: " << f << "\n";
        if (!gate.failures.empty())
            ++failed;
    }

    /** One digest over every repetition's, in seed order. */
    std::uint64_t
    digest() const
    {
        Digest d;
        for (const std::optional<std::uint64_t> &v : digests)
            d.add(v.value_or(0));
        return d.value();
    }
};

double
processPeakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}


/**
 * Run iteration `i` in a forked child, whose peak RSS is that of one
 * iteration of one repetition seed, clear of whatever this process
 * allocated before. A child that fails comes back with a failed gate.
 */
Iteration
isolatedIteration(const Workload &w, std::size_t i)
{
    struct Report
    {
        double rssMb;
        double refs;
        std::uint64_t digest;
        bool ok;
    };
    Iteration it;
    Report rep{};
    int fds[2];
    if (pipe(fds) != 0) {
        it.gate.require(false, "pipe for the isolated iteration");
        return it;
    }
    std::cout.flush();
    std::cerr.flush();
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        const Iteration child = runIteration(w, i, nullptr, nullptr);
        rep = {processPeakRssMb(), child.refs, child.digest,
               child.gate.failures.empty()};
        const bool sent = write(fds[1], &rep, sizeof rep) ==
                          static_cast<ssize_t>(sizeof rep);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    const bool got = pid > 0 && read(fds[0], &rep, sizeof rep) ==
                                    static_cast<ssize_t>(sizeof rep);
    close(fds[0]);
    int status = 0;
    const bool exited = pid > 0 && waitpid(pid, &status, 0) == pid &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    it.gate.require(got && exited && rep.ok,
                    "isolated iteration ran and passed its gate");
    it.peakRssMb = rep.rssMb;
    it.refs = rep.refs;
    it.digest = rep.digest;
    return it;
}

/** Untraced run: the end-to-end metrics. */
int
runUntraced(const Args &a, const Workload &w)
{
    Tally tally;
    // Peak RSS first, one child per repetition seed, before this
    // process allocates anything itself. The workload's peak is the
    // largest: a seed's metadata tables can stay a doubling smaller.
    double rss = 0.0;
    for (unsigned r = 0; r < kRepetitions; ++r) {
        const Iteration it = isolatedIteration(w, r);
        tally.add(it, r, "isolated iteration");
        rss = std::max(rss, it.peakRssMb);
    }
    tally.add(runIteration(w, 0, nullptr, nullptr), 0, "warm-up iteration");

    // Whole cycles over the repetition seeds weigh each seed equally.
    std::vector<double> rate, setup;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(a.seconds * 1e9);
    while (rate.size() < kRepetitions || nowNs() < deadline ||
           rate.size() % kRepetitions != 0) {
        const Iteration it = runIteration(w, rate.size(), nullptr, nullptr);
        tally.add(it, rate.size(), "iteration");
        rate.push_back(it.refsPerS());
        setup.push_back(it.setupS);
    }

    Metrics m;
    m.set("refs_per_s", bestPerSeedMedian(rate, true), "1/s");
    m.set("setup_s", bestPerSeedMedian(setup, false), "s");
    m.set("peak_rss_mb", rss, "MB");
    printMeta(a, w, rate.size(), tally.digest(), tally.refs);
    printResult(tally.failed == 0 && m.finite(), tally.attempted,
                tally.failed, m);
    return 0;
}

/**
 * Traced run: the per-layer metrics.
 *
 * Simulated counts (mem.refs .. mem.c2c_per_kref, dir.*, numa.*,
 * os.migrations, os.context_switches, jvm.gc_count) come from the
 * measured interval of an untraced iteration, over all CPUs, and
 * repeat exactly. Observer counts (os.dispatches_per_kref,
 * jvm.allocs_per_kref) are per 1000 references seen by the observer
 * over warmup+measure. Host times:
 *   mem.*_ns        sampled access cost by ServedBy (miss = Peer,
 *                   Memory, UpgradeOnly), pooled over traced iterations
 *   mem.self_share  mem.access_ns x observed refs / observed seconds
 *   jvm.gc_host_share  seconds inside collections / observed seconds
 *   core.measure_s  seconds of an untraced iteration's timed calls
 *   trace.*, sweep.*, replay.*  the probe (runProbe) on this workload
 *   tracing.overhead  untraced / traced refs_per_s, same run
 * The observed phase is warmup+measure (execution workloads) or the
 * recording (ecperf-trace).
 */
int
runTraced(const Args &a, const Workload &w)
{
    SpanLog spans;
    Tally tally;

    tally.add(runIteration(w, 0, &spans, nullptr), 0, "warm-up iteration");

    // Alternate untraced and traced iterations for 3/4 of the run,
    // then spend the rest on the trace-layer probe.
    const std::int64_t start = nowNs();
    const std::int64_t budget = static_cast<std::int64_t>(a.seconds * 1e9);
    std::vector<Iteration> plain, traced;
    while (traced.size() < 2 || nowNs() < start + budget * 3 / 4) {
        const std::size_t i = traced.size();
        plain.push_back(runIteration(w, i, &spans, nullptr));
        tally.add(plain.back(), i, "iteration");
        Tracer tracer(spans, kSampleEvery);
        traced.push_back(runIteration(w, i, &spans, &tracer));
        // The observer is read-only: traced digests must match.
        tally.add(traced.back(), i, "traced iteration");
    }
    std::vector<Probe> probes;
    while (probes.empty() || nowNs() < start + budget) {
        probes.push_back(runProbe(w.reps[0], spans));
        tally.add(probes.back().gate, "trace probe");
    }

    // Sampled hierarchy host time, pooled over the traced iterations.
    std::array<double, 5> ns{};
    std::array<double, 5> n{};
    double empty_ns = 0.0;
    std::vector<double> self_share, gc_share, traced_rate, plain_rate,
        measure_s;
    for (const Iteration &it : traced) {
        for (std::size_t b = 0; b < 5; ++b) {
            ns[b] += it.traced.sampleNs[b];
            n[b] += static_cast<double>(it.traced.samples[b]);
        }
        empty_ns += it.traced.emptyPairNs;
        traced_rate.push_back(it.refsPerS());
    }
    double samples = 0.0;
    for (double x : n)
        samples += x;
    const double empty_pair_ns = ratio(empty_ns, samples);
    const auto bucket_ns = [&](std::initializer_list<mem::ServedBy> which) {
        double sum = 0.0, cnt = 0.0;
        for (mem::ServedBy s : which) {
            sum += ns[static_cast<std::size_t>(s)];
            cnt += n[static_cast<std::size_t>(s)];
        }
        return cnt > 0.0 ? sum / cnt - empty_pair_ns : 0.0;
    };
    const double access_ns =
        bucket_ns({mem::ServedBy::L1, mem::ServedBy::L2, mem::ServedBy::Peer,
                   mem::ServedBy::Memory, mem::ServedBy::UpgradeOnly});
    for (const Iteration &it : traced) {
        self_share.push_back(
            ratio(access_ns * 1e-9 * static_cast<double>(it.traced.refs),
                  it.observedS));
        gc_share.push_back(ratio(it.traced.gcSeconds, it.observedS));
    }
    for (const Iteration &it : plain) {
        plain_rate.push_back(it.refsPerS());
        measure_s.push_back(it.callS);
    }

    // Simulated counts repeat exactly; take them from an untraced run
    // of the first repetition seed, like the observer counts.
    const core::RunResult &r = plain.front().run;
    const sim::MetricSnapshot &snap = *r.metrics;
    const auto c = [&](const char *name) {
        return static_cast<double>(counterOf(snap, name));
    };
    const double refs = c("mem.all.ifetches") + c("mem.all.loads") +
                        c("mem.all.stores") + c("mem.all.atomics");
    const double misses = c("mem.all.miss_cold") +
                          c("mem.all.miss_coherence") +
                          c("mem.all.miss_capacity");
    const double dir_msgs =
        c("mem.dir.get_s") + c("mem.dir.get_m") + c("mem.dir.upgrades") +
        c("mem.dir.forwards") + c("mem.dir.invalidations_sent") +
        c("mem.dir.acks_received") + c("mem.dir.writebacks_home") +
        c("mem.dir.put_notices");
    const double local = c("mem.numa.local_misses");
    const double remote = c("mem.numa.remote_misses");
    const perfbench::TraceCounts &tc = traced.front().traced;
    const double observed_krefs = static_cast<double>(tc.refs) / 1000.0;

    Metrics m;
    m.set("core.measure_s", bestPerSeedMedian(measure_s, false), "s");
    m.set("mem.refs", refs, "count");
    m.set("mem.l1_hit_ratio",
          ratio(c("mem.all.l1i_hits") + c("mem.all.l1d_hits"), refs),
          "ratio");
    m.set("mem.l2_miss_per_kref", ratio(1000.0 * misses, refs), "1/kref");
    m.set("mem.c2c_per_kref", ratio(1000.0 * c("mem.all.c2c_transfers"), refs),
          "1/kref");
    m.set("mem.access_ns", access_ns, "ns");
    m.set("mem.l1_hit_ns", bucket_ns({mem::ServedBy::L1}), "ns");
    m.set("mem.l2_hit_ns", bucket_ns({mem::ServedBy::L2}), "ns");
    m.set("mem.miss_ns",
          bucket_ns({mem::ServedBy::Peer, mem::ServedBy::Memory,
                     mem::ServedBy::UpgradeOnly}),
          "ns");
    m.set("mem.self_share", median(self_share), "ratio");
    m.set("dir.msgs_per_miss", ratio(dir_msgs, misses), "1/miss");
    m.set("dir.nacks_per_kmiss", ratio(1000.0 * c("mem.dir.nacks"), misses),
          "1/kmiss");
    m.set("dir.queue_delay_per_miss",
          ratio(c("mem.dir.occupancy_queue_delay") +
                    c("mem.numa.link.queue_delay"),
                misses),
          "cycles/miss");
    m.set("numa.remote_frac", ratio(remote, local + remote), "ratio");
    m.set("numa.hops_per_miss", ratio(c("mem.numa.hops"), misses), "1/miss");
    m.set("os.dispatches_per_kref",
          ratio(static_cast<double>(tc.dispatches), observed_krefs),
          "1/kref");
    m.set("os.migrations", c("os.sched.migrations"), "count");
    m.set("os.context_switches", c("os.sched.context_switches"), "count");
    m.set("jvm.gc_count", static_cast<double>(r.gcMinor + r.gcMajor),
          "count");
    m.set("jvm.allocs_per_kref",
          ratio(static_cast<double>(tc.allocations), observed_krefs),
          "1/kref");
    m.set("jvm.gc_host_share", median(gc_share), "ratio");
    m.set("system.rest_share", 1.0 - median(self_share), "ratio");
    const auto &probed = probes.front().metrics.entries();
    for (std::size_t k = 0; k < probed.size(); ++k) {
        std::vector<double> v;
        for (const Probe &p : probes)
            v.push_back(p.metrics.entries()[k].value);
        m.set(probed[k].name, median(v), probed[k].unit);
    }
    m.set("tracing.overhead",
          ratio(bestPerSeedMedian(plain_rate, true),
                bestPerSeedMedian(traced_rate, true)),
          "ratio");

    if (!a.spansOut.empty()) {
        std::ofstream out(a.spansOut);
        spans.writeJson(out);
        if (!out) {
            std::cerr << "perfbench: cannot write spans to " << a.spansOut
                      << "\n";
            return 1;
        }
    }
    printMeta(a, w, plain.size(), tally.digest(), tally.refs);
    printResult(tally.failed == 0 && m.finite(), tally.attempted,
                tally.failed, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::string instrumented = instrumentedBuildReason();
    if (!instrumented.empty()) {
        std::cerr << "perfbench: refusing to time a "
                  << instrumented << "\n";
        return 2;
    }
    const std::optional<Workload> w = makeWorkload(args.workload,
                                                   args.seed);
    if (!w)
        usage("unknown workload '" + args.workload + "'");
    return args.trace ? runTraced(args, *w) : runUntraced(args, *w);
}
