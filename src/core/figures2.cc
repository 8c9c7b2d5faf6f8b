/**
 * @file
 * Figure harnesses 11-16 (memory footprint, cache sweeps,
 * communication footprints, shared caches).
 */

#include <cmath>
#include <future>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>

#include "core/cache.hh"
#include "core/figures.hh"
#include "core/figures_internal.hh"
#include "core/paper.hh"
#include "core/trace_run.hh"
#include "mem/sweep.hh"
#include "sim/log.hh"
#include "sim/threadpool.hh"
#include "trace/reader.hh"

namespace middlesim::core
{

namespace
{

using stats::Series;
using stats::Table;

/** The Figure 11 experiment configuration for one scale point. */
ExperimentSpec
liveSpec(WorkloadKind kind, unsigned scale, const FigureOptions &opt)
{
    ExperimentSpec spec = figureSpec(kind, 8, opt);
    spec.scale = scale;
    return spec;
}

/** Run one scale point until at least `min_gcs` collections happen. */
LivePoint
liveAfterGc(WorkloadKind kind, unsigned scale, const FigureOptions &opt)
{
    const ExperimentSpec spec = liveSpec(kind, scale, opt);
    BuiltWorkload workload;
    auto system = buildSystem(spec, workload);
    system->run(spec.warmup);
    system->beginMeasurement();
    const unsigned min_gcs = 3;
    for (unsigned chunk = 0; chunk < 12; ++chunk) {
        system->run(spec.measure);
        if (system->vm().stats().log.size() >= min_gcs)
            break;
    }
    LivePoint out;
    out.point = pointName(spec);
    out.snap = collectMetrics(*system, spec, workload);
    const auto &st = system->vm().stats();
    if (st.liveAfterMB.count() == 0) {
        // No collection happened (tiny scale): report the workload's
        // live data directly.
        const std::uint64_t live = workload.jbb
            ? workload.jbb->liveBytes()
            : workload.ecperf->liveBytes();
        out.mb = static_cast<double>(live) / (1024.0 * 1024.0);
    } else {
        out.mb = st.liveAfterMB.mean();
    }
    return out;
}

/** The Figure 12/13 uniprocessor sweep configuration. */
ExperimentSpec
sweepPointSpec(WorkloadKind kind, unsigned scale,
               const FigureOptions &opt)
{
    ExperimentSpec spec = figureSpec(kind, 1, opt);
    spec.totalCpus = 1; // uniprocessor full-system configuration
    spec.numaNodes = 1; // a one-CPU machine is a single node
    spec.scale = scale;
    // A single CPU progresses slowly; use a longer interval so large
    // caches see enough references.
    spec.measure = static_cast<sim::Tick>(
        static_cast<double>(spec.measure) * 3.0);
    return spec;
}

/** Uniprocessor full-system run feeding the multi-size cache sweep. */
SweepOutcome
runSweepPoint(WorkloadKind kind, unsigned scale,
              const FigureOptions &opt)
{
    const ExperimentSpec spec = sweepPointSpec(kind, scale, opt);
    mem::SweepSimulator sweep{mem::SweepSimulator::paperSweep()};

    BuiltWorkload workload;
    auto system = buildSystem(spec, workload);
    auto writer = beginTraceRecording(*system, spec);
    // Warm both the hierarchy and the sweep caches, then count only
    // the measured interval.
    system->memory().setSweepTap(&sweep);
    system->run(spec.warmup);
    sweep.resetCounters();
    system->beginMeasurement();
    system->run(spec.measure);
    sweep.countInstructions(system->appCpi().instructions);
    system->memory().setSweepTap(nullptr);
    finishTraceRecording(std::move(writer), *system, spec);

    SweepOutcome out;
    out.icache = sweep.icacheResults();
    out.dcache = sweep.dcacheResults();
    out.instructions = sweep.instructions();
    out.point = pointName(spec);
    out.snap = collectMetrics(*system, spec, workload);
    return out;
}

/**
 * Satisfy a Figure 12/13 sweep point from a --trace-in recording.
 * Returns nothing when replay is not configured, no recording of
 * this spec exists, or the file does not validate (execution-driven
 * fallback). Bypasses the RunCache entirely: the replayed curves are
 * bit-identical to the execution-driven ones, but the metrics
 * snapshot of a replay is minimal (no CPU/OS/JVM layers ran), so it
 * must never be memoized as an execution result.
 */
std::optional<SweepOutcome>
sweepOutcomeFromTrace(WorkloadKind kind, unsigned scale,
                      const FigureOptions &opt)
{
    if (traceInDir().empty())
        return std::nullopt;
    const ExperimentSpec spec = sweepPointSpec(kind, scale, opt);
    const std::string path = traceFilePath(traceInDir(), spec);
    std::string data;
    if (!trace::readTraceFile(path, data))
        return std::nullopt;
    SweepReplayOutcome replay = replayTraceSweep(std::move(data));
    if (!replay.valid) {
        warn("trace: '", path, "' invalid (", replay.error,
             "); falling back to execution");
        return std::nullopt;
    }
    if (replay.header.specKey != encodeSpecKey(spec)) {
        warn("trace: '", path,
             "' records a different spec; falling back to execution");
        return std::nullopt;
    }
    SweepOutcome out;
    out.icache = std::move(replay.icache);
    out.dcache = std::move(replay.dcache);
    out.instructions = replay.instructions;
    out.point = pointName(spec);
    out.snap.counters["trace.replay.refs"] = replay.counts.refs;
    out.snap.counters["trace.replay.annotations"] =
        replay.counts.annotations;
    return out;
}

/** Shared-cache configuration point for Figure 16. */
ExperimentSpec
sharedCacheSpec(WorkloadKind kind, unsigned scale,
                unsigned cpus_per_l2, const FigureOptions &opt)
{
    ExperimentSpec spec = figureSpec(kind, 8, opt);
    spec.totalCpus = 8;
    spec.cpusPerL2 = cpus_per_l2;
    spec.scale = scale;
    // The sharing sweep varies the L2 group count (8 CPUs at degrees
    // 1..8), so a fixed --numa-nodes cannot divide every point; keep
    // the largest topology consistent with each geometry.
    spec.numaNodes = std::gcd(spec.numaNodes,
                              spec.totalCpus / spec.cpusPerL2);
    return spec;
}

double
dataMpki(const RunResult &r)
{
    return 1000.0 * static_cast<double>(r.cache.dataMisses) /
           static_cast<double>(r.cpi.instructions);
}

} // namespace

LivePoint
cachedLivePoint(WorkloadKind kind, unsigned scale,
                const FigureOptions &opt)
{
    return throughCache<LivePoint>(
        "live", liveSpec(kind, scale, opt),
        [&] { return liveAfterGc(kind, scale, opt); });
}

SweepOutcome
cachedSweepOutcome(WorkloadKind kind, unsigned scale,
                   const FigureOptions &opt)
{
    if (auto replayed = sweepOutcomeFromTrace(kind, scale, opt))
        return std::move(*replayed);
    return throughCache<SweepOutcome>(
        "sweep", sweepPointSpec(kind, scale, opt),
        [&] { return runSweepPoint(kind, scale, opt); });
}

// ---------------------------------------------------------------------
// Figure 11: memory use vs scale factor
// ---------------------------------------------------------------------

const std::vector<unsigned> &
fig11JbbScales()
{
    static const std::vector<unsigned> scales = {1, 5, 10, 15, 20, 25,
                                                 30, 35, 40};
    return scales;
}

const std::vector<unsigned> &
fig11EcperfScales()
{
    static const std::vector<unsigned> scales = {1, 2, 4, 6, 10, 15,
                                                 20, 30, 40};
    return scales;
}

FigureResult
runFig11(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig11";
    fig.title = "Live memory after collection vs scale factor (MB)";

    const std::vector<unsigned> &jbb_scales = fig11JbbScales();
    const std::vector<unsigned> &ec_scales = fig11EcperfScales();

    // Every scale point is an independent run: fan them all out.
    sim::ThreadPool &pool = sim::ThreadPool::global();
    std::vector<std::future<LivePoint>> jbb_f, ec_f;
    for (std::size_t i = 0; i < jbb_scales.size(); ++i) {
        const unsigned js = jbb_scales[i], es = ec_scales[i];
        jbb_f.push_back(pool.submit([js, opt] {
            return cachedLivePoint(WorkloadKind::SpecJbb, js, opt);
        }));
        ec_f.push_back(pool.submit([es, opt] {
            return cachedLivePoint(WorkloadKind::Ecperf, es, opt);
        }));
    }

    Series jbb("specjbb"), ec("ecperf");
    Table table({"scale", "specjbb(MB)", "ecperf(MB)", "paper-jbb",
                 "paper-ec"});
    for (std::size_t i = 0; i < jbb_scales.size(); ++i) {
        const LivePoint j = jbb_f[i].get();
        const LivePoint e = ec_f[i].get();
        fig.metricsByPoint.emplace(j.point, j.snap);
        fig.metricsByPoint.emplace(e.point, e.snap);
        jbb.add(jbb_scales[i], j.mb);
        ec.add(ec_scales[i], e.mb);
        table.addRow({fmt(jbb_scales[i], 0), fmt(j.mb, 0), fmt(e.mb, 0),
                      fmt(paper::fig11SpecJbb().yAt(jbb_scales[i]), 0),
                      fmt(paper::fig11Ecperf().yAt(ec_scales[i]), 0)});
    }

    // Linearity of SPECjbb growth between 5 and 25 warehouses.
    const double slope_lo = (jbb.yAt(15) - jbb.yAt(5)) / 10.0;
    const double slope_hi = (jbb.yAt(25) - jbb.yAt(15)) / 10.0;
    fig.checks.push_back(check(
        "SPECjbb memory grows linearly with warehouses",
        slope_lo > 2.0 && std::abs(slope_hi - slope_lo) <
                              0.5 * std::max(slope_lo, slope_hi),
        "slope 5-15=" + fmt(slope_lo, 1) + " MB/wh, 15-25=" +
            fmt(slope_hi, 1) + " MB/wh"));
    fig.checks.push_back(check(
        "SPECjbb growth breaks beyond ~30 warehouses (compaction)",
        jbb.yAt(35) < jbb.yAt(30) * 1.05,
        "live(30)=" + fmt(jbb.yAt(30), 0) + " live(35)=" +
            fmt(jbb.yAt(35), 0)));
    const double ec_late = ec.yAt(40) - ec.yAt(10);
    const double ec_early = ec.yAt(6) - ec.yAt(1);
    fig.checks.push_back(check(
        "ECperf memory saturates around injection rate ~6",
        ec_early > 2.0 * std::abs(ec_late),
        "rise(1->6)=" + fmt(ec_early, 0) + " MB, rise(10->40)=" +
            fmt(ec_late, 0) + " MB"));

    fig.measured = {jbb, ec};
    fig.paperRef = {paper::fig11SpecJbb(), paper::fig11Ecperf()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figures 12/13: instruction and data cache miss rates
// ---------------------------------------------------------------------

namespace
{

struct SweepSet
{
    SweepOutcome ecperf;
    SweepOutcome jbb1;
    SweepOutcome jbb10;
    SweepOutcome jbb25;

    MetricsMap
    metrics() const
    {
        MetricsMap map;
        for (const SweepOutcome *o : {&ecperf, &jbb1, &jbb10, &jbb25})
            map.emplace(o->point, o->snap);
        return map;
    }
};

/** Run all four uniprocessor sweeps once per options. */
SweepSet &
sweepSet(const FigureOptions &opt)
{
    static std::map<FigureOptions, SweepSet> cache;
    const auto [it, fresh] = cache.try_emplace(opt);
    SweepSet &set = it->second;
    if (!fresh)
        return set;
    // The four uniprocessor sweeps are independent simulations; run
    // them concurrently, each into its slot of fig12SweepRuns() order.
    const std::vector<SweepRun> &runs = fig12SweepRuns();
    SweepOutcome *const slots[] = {&set.ecperf, &set.jbb1, &set.jbb10,
                                   &set.jbb25};
    sim_assert(runs.size() == std::size(slots));
    sim::ThreadPool &pool = sim::ThreadPool::global();
    std::vector<std::future<void>> points;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        points.push_back(pool.submit([slot = slots[i], run = runs[i], opt] {
            *slot = cachedSweepOutcome(run.kind, run.scale, opt);
        }));
    }
    for (auto &f : points)
        f.get();
    return set;
}

} // namespace

const std::vector<SweepRun> &
fig12SweepRuns()
{
    static const std::vector<SweepRun> runs = {
        {WorkloadKind::Ecperf, 8},
        {WorkloadKind::SpecJbb, 1},
        {WorkloadKind::SpecJbb, 10},
        {WorkloadKind::SpecJbb, 25},
    };
    return runs;
}

FigureResult
runFig12(const FigureOptions &opt)
{
    SweepSet &set = sweepSet(opt);

    FigureResult fig;
    fig.id = "fig12";
    fig.title = "Instruction cache misses per 1000 instructions";
    fig.metricsByPoint = set.metrics();

    Series ec("ecperf"), j1("specjbb-1"), j10("specjbb-10"),
        j25("specjbb-25");
    Table table({"size(KB)", "ecperf", "jbb-1", "jbb-10", "jbb-25",
                 "paper-ec", "paper-jbb"});
    const auto &configs = set.ecperf.icache;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const double kb =
            static_cast<double>(configs[i].params.sizeBytes) / 1024.0;
        const double e = set.ecperf.imissPer1000(i);
        const double a = set.jbb1.imissPer1000(i);
        const double b = set.jbb10.imissPer1000(i);
        const double c = set.jbb25.imissPer1000(i);
        ec.add(kb, e);
        j1.add(kb, a);
        j10.add(kb, b);
        j25.add(kb, c);
        table.addRow({fmt(kb, 0), fmt(e, 3), fmt(a, 3), fmt(b, 3),
                      fmt(c, 3),
                      fmt(paper::fig12EcperfIcache().yAt(kb), 3),
                      fmt(paper::fig12SpecJbbIcache().yAt(kb), 3)});
    }

    fig.checks.push_back(check(
        "ECperf instruction misses exceed SPECjbb's at 256 KB",
        ec.yAt(256) > 1.8 * j10.yAt(256),
        "ec=" + fmt(ec.yAt(256), 2) + " jbb-10=" +
            fmt(j10.yAt(256), 2)));
    fig.checks.push_back(check(
        "instruction misses are small (< ~1/1000) at >= 1 MB",
        ec.yAt(1024) < 1.3 && j25.yAt(1024) < 1.0,
        "ec(1MB)=" + fmt(ec.yAt(1024), 2) + " jbb-25(1MB)=" +
            fmt(j25.yAt(1024), 2)));
    fig.checks.push_back(check(
        "miss rate decreases monotonically with cache size",
        [&] {
            for (std::size_t i = 1; i < ec.points.size(); ++i) {
                if (ec.points[i].y > ec.points[i - 1].y + 0.01)
                    return false;
            }
            return true;
        }(),
        "ecperf curve"));

    fig.measured = {ec, j1, j10, j25};
    fig.paperRef = {paper::fig12EcperfIcache(),
                    paper::fig12SpecJbbIcache()};
    fig.table = table;
    return fig;
}

FigureResult
runFig13(const FigureOptions &opt)
{
    SweepSet &set = sweepSet(opt);

    FigureResult fig;
    fig.id = "fig13";
    fig.title = "Data cache misses per 1000 instructions";
    fig.metricsByPoint = set.metrics();

    Series ec("ecperf"), j1("specjbb-1"), j10("specjbb-10"),
        j25("specjbb-25");
    Table table({"size(KB)", "ecperf", "jbb-1", "jbb-10", "jbb-25",
                 "paper-ec", "paper-jbb25"});
    const auto &configs = set.ecperf.dcache;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const double kb =
            static_cast<double>(configs[i].params.sizeBytes) / 1024.0;
        const double e = set.ecperf.dmissPer1000(i);
        const double a = set.jbb1.dmissPer1000(i);
        const double b = set.jbb10.dmissPer1000(i);
        const double c = set.jbb25.dmissPer1000(i);
        ec.add(kb, e);
        j1.add(kb, a);
        j10.add(kb, b);
        j25.add(kb, c);
        table.addRow({fmt(kb, 0), fmt(e, 3), fmt(a, 3), fmt(b, 3),
                      fmt(c, 3),
                      fmt(paper::fig13EcperfDcache().yAt(kb), 3),
                      fmt(paper::fig13SpecJbb25Dcache().yAt(kb), 3)});
    }

    fig.checks.push_back(check(
        "SPECjbb data misses grow with the warehouse count",
        j25.yAt(1024) > j10.yAt(1024) && j10.yAt(1024) > j1.yAt(1024),
        "1MB: jbb-1=" + fmt(j1.yAt(1024), 2) + " jbb-10=" +
            fmt(j10.yAt(1024), 2) + " jbb-25=" +
            fmt(j25.yAt(1024), 2)));
    // Residual gap (EXPERIMENTS.md): the paper reports ~30% growth
    // from 1 to 25 warehouses; our per-transaction reference stream
    // has a larger scale-independent floor, so the gradient is
    // present but shallower.
    fig.checks.push_back(check(
        "SPECjbb data misses grow monotonically 1 -> 25 warehouses",
        j25.yAt(2048) > 1.03 * j1.yAt(2048) &&
            j25.yAt(1024) > j10.yAt(1024) &&
            j10.yAt(1024) > j1.yAt(1024),
        "ratio@2MB=" + fmt(j25.yAt(2048) / std::max(j1.yAt(2048), 1e-9),
                           2)));
    fig.checks.push_back(check(
        "ECperf's data miss rate is below SPECjbb-1's",
        ec.yAt(1024) < j1.yAt(1024),
        "1MB: ec=" + fmt(ec.yAt(1024), 2) + " jbb-1=" +
            fmt(j1.yAt(1024), 2)));
    fig.checks.push_back(check(
        "data misses fall below ~2/1000 at >= 1 MB",
        ec.yAt(1024) < 2.5 && j25.yAt(1024) < 3.5,
        "ec=" + fmt(ec.yAt(1024), 2) + " jbb-25=" +
            fmt(j25.yAt(1024), 2)));

    fig.measured = {ec, j1, j10, j25};
    fig.paperRef = {paper::fig13EcperfDcache(),
                    paper::fig13SpecJbb1Dcache(),
                    paper::fig13SpecJbb10Dcache(),
                    paper::fig13SpecJbb25Dcache()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figures 14/15: communication footprint
// ---------------------------------------------------------------------

namespace
{

/** The Figure 14/15 communication-tracking configuration. */
ExperimentSpec
commSpec(WorkloadKind kind, unsigned cpus, unsigned scale,
         const FigureOptions &opt)
{
    ExperimentSpec spec = figureSpec(kind, cpus, opt);
    spec.scale = scale;
    spec.trackCommunication = true;
    spec.measure = static_cast<sim::Tick>(
        static_cast<double>(spec.measure) * 1.5);
    return spec;
}

CommPoint
commFootprint(WorkloadKind kind, unsigned cpus, unsigned scale,
              const FigureOptions &opt)
{
    const ExperimentSpec spec = commSpec(kind, cpus, scale, opt);
    BuiltWorkload workload;
    auto system = buildSystem(spec, workload);
    const RunResult res = measure(*system, spec, workload);
    CommPoint point;
    point.curve = system->memory().c2cPerLine().concentration();
    point.touchedLines = system->memory().touchedLines();
    point.point = pointName(spec);
    point.snap = *res.metrics;
    return point;
}

struct CommSet
{
    CommPoint jbb;
    CommPoint ec;
};

/** Both communication-tracking runs, computed concurrently once per
 *  options. */
CommSet &
commSet(const FigureOptions &opt)
{
    static std::map<FigureOptions, CommSet> cache;
    const auto [it, fresh] = cache.try_emplace(opt);
    CommSet &set = it->second;
    if (!fresh)
        return set;
    const std::vector<CommRun> &runs = fig14CommRuns();
    CommPoint *const slots[] = {&set.jbb, &set.ec};
    sim_assert(runs.size() == std::size(slots));
    sim::ThreadPool &pool = sim::ThreadPool::global();
    std::vector<std::future<void>> points;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        points.push_back(pool.submit([slot = slots[i], run = runs[i], opt] {
            *slot = cachedCommFootprint(run.kind, run.cpus, run.scale, opt);
        }));
    }
    for (auto &f : points)
        f.get();
    return set;
}

CommPoint &
jbbComm(const FigureOptions &opt)
{
    return commSet(opt).jbb;
}

CommPoint &
ecComm(const FigureOptions &opt)
{
    return commSet(opt).ec;
}

} // namespace

const std::vector<CommRun> &
fig14CommRuns()
{
    static const std::vector<CommRun> runs = {
        {WorkloadKind::SpecJbb, 15, 15},
        {WorkloadKind::Ecperf, 8, 8},
    };
    return runs;
}

CommPoint
cachedCommFootprint(WorkloadKind kind, unsigned cpus, unsigned scale,
                    const FigureOptions &opt)
{
    return throughCache<CommPoint>(
        "comm", commSpec(kind, cpus, scale, opt),
        [&] { return commFootprint(kind, cpus, scale, opt); });
}

FigureResult
runFig14(const FigureOptions &opt)
{
    const CommPoint &jbb = jbbComm(opt);
    const CommPoint &ec = ecComm(opt);

    FigureResult fig;
    fig.id = "fig14";
    fig.title = "Distribution of c2c transfers vs % of lines touched";
    fig.metricsByPoint.emplace(jbb.point, jbb.snap);
    fig.metricsByPoint.emplace(ec.point, ec.snap);

    // x = fraction of *touched* lines (communicating lines are a
    // subset); y = cumulative share of all c2c transfers.
    const std::vector<double> fractions = {0.0001, 0.0005, 0.001,
                                           0.005, 0.01, 0.05, 0.1,
                                           0.25, 0.5, 1.0};
    Series jbb_s("specjbb"), ec_s("ecperf");
    Table table({"frac-of-touched", "specjbb", "ecperf"});
    for (double f : fractions) {
        auto shareAt = [&](const CommPoint &p) {
            const auto k = static_cast<std::size_t>(
                std::ceil(f * static_cast<double>(p.touchedLines)));
            return p.curve.shareOfTopK(std::max<std::size_t>(k, 1));
        };
        const double j = shareAt(jbb);
        const double e = shareAt(ec);
        jbb_s.add(f, j);
        ec_s.add(f, e);
        table.addRow({fmt(f, 4), fmt(j, 3), fmt(e, 3)});
    }

    const double j_top = jbb.curve.maxShare();
    const double e_top = ec.curve.maxShare();
    const double j_01 = jbb_s.yAt(0.001);
    const double e_01 = ec_s.yAt(0.001);
    fig.checks.push_back(check(
        "SPECjbb's hottest line carries a larger share than ECperf's",
        j_top > e_top,
        "jbb top=" + fmt(100 * j_top, 1) + "% ec top=" +
            fmt(100 * e_top, 1) + "%"));
    fig.checks.push_back(check(
        "top 0.1% of lines: SPECjbb more concentrated than ECperf",
        j_01 > e_01,
        "jbb=" + fmt(100 * j_01, 1) + "% ec=" + fmt(100 * e_01, 1) +
            "%"));
    const double jbb_all_frac =
        static_cast<double>(jbb.curve.numKeys()) /
        static_cast<double>(std::max<std::uint64_t>(jbb.touchedLines,
                                                    1));
    const double ec_all_frac =
        static_cast<double>(ec.curve.numKeys()) /
        static_cast<double>(std::max<std::uint64_t>(ec.touchedLines,
                                                    1));
    fig.checks.push_back(check(
        "ECperf communication spreads over more of its touched lines",
        ec_all_frac > jbb_all_frac,
        "jbb frac=" + fmt(jbb_all_frac, 3) + " ec frac=" +
            fmt(ec_all_frac, 3)));

    fig.measured = {jbb_s, ec_s};
    fig.paperRef = {paper::fig14SpecJbb(), paper::fig14Ecperf()};
    fig.table = table;
    return fig;
}

FigureResult
runFig15(const FigureOptions &opt)
{
    const CommPoint &jbb = jbbComm(opt);
    const CommPoint &ec = ecComm(opt);

    FigureResult fig;
    fig.id = "fig15";
    fig.title =
        "Distribution of c2c transfers vs absolute lines (64 B)";
    fig.metricsByPoint.emplace(jbb.point, jbb.snap);
    fig.metricsByPoint.emplace(ec.point, ec.snap);

    const std::vector<double> shares = {0.1, 0.2, 0.3, 0.4, 0.5,
                                        0.6, 0.7, 0.8, 0.9, 1.0};
    Series jbb_s("specjbb"), ec_s("ecperf");
    Table table({"share-of-c2c", "specjbb-lines", "ecperf-lines"});
    for (double s : shares) {
        const double j =
            static_cast<double>(jbb.curve.keysForShare(s));
        const double e = static_cast<double>(ec.curve.keysForShare(s));
        jbb_s.add(j, s);
        ec_s.add(e, s);
        table.addRow({fmt(s, 1), fmt(j, 0), fmt(e, 0)});
    }

    fig.checks.push_back(check(
        "ECperf's absolute communication footprint exceeds SPECjbb's",
        ec.curve.keysForShare(0.95) > jbb.curve.keysForShare(0.95),
        "lines for 95%: ec=" +
            std::to_string(ec.curve.keysForShare(0.95)) + " jbb=" +
            std::to_string(jbb.curve.keysForShare(0.95))));
    fig.checks.push_back(check(
        "SPECjbb touches more memory overall",
        jbb.touchedLines > ec.touchedLines,
        "touched: jbb=" + std::to_string(jbb.touchedLines) + " ec=" +
            std::to_string(ec.touchedLines)));

    fig.measured = {jbb_s, ec_s};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 16: shared caches
// ---------------------------------------------------------------------

std::vector<ExperimentSpec>
fig16GridSpecs(const FigureOptions &opt)
{
    const std::vector<unsigned> shares = {1, 2, 4, 8};
    std::vector<ExperimentSpec> specs;
    for (unsigned share : shares) {
        specs.push_back(
            sharedCacheSpec(WorkloadKind::Ecperf, 8, share, opt));
        specs.push_back(
            sharedCacheSpec(WorkloadKind::SpecJbb, 25, share, opt));
    }
    return specs;
}

FigureResult
runFig16(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig16";
    fig.title =
        "Data miss rate with 1 MB L2s shared by 1/2/4/8 processors";

    const std::vector<unsigned> shares = {1, 2, 4, 8};
    const std::vector<ExperimentSpec> specs = fig16GridSpecs(opt);
    const std::vector<RunResult> results = runGrid(specs);
    for (std::size_t i = 0; i < specs.size(); ++i)
        fig.metricsByPoint.emplace(pointName(specs[i]),
                                   *results[i].metrics);

    Series ec("ecperf"), jbb("specjbb-25");
    Table table({"cpus/L2", "ecperf", "specjbb-25", "paper-ec",
                 "paper-jbb25"});
    for (std::size_t i = 0; i < shares.size(); ++i) {
        const unsigned share = shares[i];
        const double e = dataMpki(results[2 * i]);
        const double j = dataMpki(results[2 * i + 1]);
        ec.add(share, e);
        jbb.add(share, j);
        table.addRow({fmt(share, 0), fmt(e, 2), fmt(j, 2),
                      fmt(paper::fig16Ecperf().yAt(share), 2),
                      fmt(paper::fig16SpecJbb25().yAt(share), 2)});
    }

    fig.checks.push_back(check(
        "sharing reduces ECperf's miss rate (best fully shared)",
        ec.yAt(8) < ec.yAt(1),
        "private=" + fmt(ec.yAt(1), 2) + " shared-8=" +
            fmt(ec.yAt(8), 2)));
    fig.checks.push_back(check(
        "sharing increases SPECjbb-25's miss rate",
        jbb.yAt(8) > jbb.yAt(1),
        "private=" + fmt(jbb.yAt(1), 2) + " shared-8=" +
            fmt(jbb.yAt(8), 2)));
    fig.checks.push_back(check(
        "the workloads reach opposite conclusions",
        ec.yAt(8) < ec.yAt(1) && jbb.yAt(8) > jbb.yAt(1),
        "crossover reproduced"));

    fig.measured = {ec, jbb};
    fig.paperRef = {paper::fig16Ecperf(), paper::fig16SpecJbb25()};
    fig.table = table;
    return fig;
}

} // namespace middlesim::core
