#include "core/figures.hh"

#include <cmath>
#include <map>
#include <sstream>

#include "core/cache.hh"
#include "core/figures_internal.hh"
#include "core/paper.hh"
#include "mem/sweep.hh"
#include "sim/log.hh"

namespace middlesim::core
{

namespace
{

using stats::Series;
using stats::Table;

/** Mean of a metric over repeated runs. */
double
meanOf(const std::vector<RunResult> &runs,
       const std::function<double(const RunResult &)> &metric)
{
    return summarize(runs, metric).mean();
}

double
stdOf(const std::vector<RunResult> &runs,
      const std::function<double(const RunResult &)> &metric)
{
    return summarize(runs, metric).stddev();
}

} // namespace

ExperimentSpec
figureSpec(WorkloadKind kind, unsigned cpus, const FigureOptions &opt)
{
    ExperimentSpec spec;
    spec.workload = kind;
    spec.appCpus = cpus;
    spec.seed = opt.seed;
    spec.protocol = opt.protocol;
    spec.numaNodes = opt.numaNodes;
    spec.topology = opt.topology;
    spec.dirOccupancy = opt.dirOccupancy;
    spec.warmup = static_cast<sim::Tick>(
        static_cast<double>(spec.warmup) * opt.timeScale);
    spec.measure = static_cast<sim::Tick>(
        static_cast<double>(spec.measure) * opt.timeScale);
    return spec;
}

namespace
{

struct SweepCacheEntry
{
    std::vector<ScalingPoint> sweep;
    MetricsMap metrics;
};

SweepCacheEntry &
scalingSweepEntry(const FigureOptions &opt)
{
    static std::map<FigureOptions, SweepCacheEntry> cache;
    auto it = cache.find(opt);
    if (it != cache.end())
        return it->second;

    const std::vector<ExperimentSpec> specs = scalingGridSpecs(opt);
    const std::vector<RunResult> results = runGrid(specs);

    SweepCacheEntry entry;
    for (std::size_t i = 0; i < specs.size(); ++i)
        entry.metrics.emplace(pointName(specs[i]), *results[i].metrics);

    auto next = results.begin();
    for (double cpus_d : paper::cpuSweep()) {
        ScalingPoint point;
        point.cpus = static_cast<unsigned>(cpus_d);
        point.ecperf.assign(next, next + opt.runs);
        next += opt.runs;
        point.jbb.assign(next, next + opt.runs);
        next += opt.runs;
        entry.sweep.push_back(std::move(point));
    }
    return cache.emplace(opt, std::move(entry)).first->second;
}

} // namespace

std::vector<ExperimentSpec>
scalingGridSpecs(const FigureOptions &opt)
{
    // Flatten every (cpu count, workload, repetition) into one grid
    // so independent points fan out across the thread pool together;
    // seeds come from repeatedSpec(), so the regrouped results are
    // identical to running each point's repetitions on its own.
    std::vector<ExperimentSpec> specs;
    for (double cpus_d : paper::cpuSweep()) {
        const auto cpus = static_cast<unsigned>(cpus_d);
        for (unsigned r = 0; r < opt.runs; ++r) {
            specs.push_back(repeatedSpec(
                figureSpec(WorkloadKind::Ecperf, cpus, opt), r));
        }
        for (unsigned r = 0; r < opt.runs; ++r) {
            specs.push_back(repeatedSpec(
                figureSpec(WorkloadKind::SpecJbb, cpus, opt), r));
        }
    }
    return specs;
}

const std::vector<ScalingPoint> &
scalingSweep(const FigureOptions &opt)
{
    return scalingSweepEntry(opt).sweep;
}

const MetricsMap &
scalingSweepMetrics(const FigureOptions &opt)
{
    return scalingSweepEntry(opt).metrics;
}

// ---------------------------------------------------------------------
// Figure 4: throughput scaling
// ---------------------------------------------------------------------

FigureResult
runFig04(const FigureOptions &opt)
{
    const auto &sweep = scalingSweep(opt);
    auto tput = [](const RunResult &r) { return r.throughput; };

    const double ec_base = meanOf(sweep.front().ecperf, tput);
    const double jbb_base = meanOf(sweep.front().jbb, tput);

    FigureResult fig;
    fig.id = "fig04";
    fig.title = "Throughput scaling on a Sun E6000 (speedup vs 1 CPU)";
    fig.metricsByPoint = scalingSweepMetrics(opt);

    Series ec("ecperf"), jbb("specjbb");
    Table table({"cpus", "ecperf", "+-", "specjbb", "+-",
                 "paper-ec", "paper-jbb"});
    for (const auto &p : sweep) {
        const double e = meanOf(p.ecperf, tput) / ec_base;
        const double es = stdOf(p.ecperf, tput) / ec_base;
        const double j = meanOf(p.jbb, tput) / jbb_base;
        const double js = stdOf(p.jbb, tput) / jbb_base;
        ec.add(p.cpus, e, es);
        jbb.add(p.cpus, j, js);
        table.addRow({fmt(p.cpus, 0), fmt(e), fmt(es), fmt(j), fmt(js),
                      fmt(paper::fig4Ecperf().yAt(p.cpus)),
                      fmt(paper::fig4SpecJbb().yAt(p.cpus))});
    }

    const double ec8 = ec.yAt(8), jbb10 = jbb.yAt(10);
    const double jbb15 = jbb.yAt(15), ec15 = ec.yAt(15);
    const double ec_peak = ec.maxY();
    fig.checks.push_back(check(
        "ECperf scales super-linearly to 8 CPUs", ec8 >= 7.2,
        "speedup(8)=" + fmt(ec8)));
    fig.checks.push_back(check(
        "ECperf gains little beyond 12 CPUs",
        ec15 <= ec.yAt(12) * 1.15,
        "speedup(12)=" + fmt(ec.yAt(12)) + " speedup(15)=" + fmt(ec15)));
    fig.checks.push_back(check(
        "SPECjbb scales sub-linearly and flattens",
        jbb10 <= 9.0 && jbb15 <= jbb10 * 1.5,
        "speedup(10)=" + fmt(jbb10) + " speedup(15)=" + fmt(jbb15)));
    fig.checks.push_back(check(
        "ECperf outscales SPECjbb at its peak", ec_peak > jbb.maxY(),
        "ecperf peak=" + fmt(ec_peak) + " jbb peak=" + fmt(jbb.maxY())));

    fig.measured = {ec, jbb};
    fig.paperRef = {paper::fig4Ecperf(), paper::fig4SpecJbb()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 5: execution mode breakdown
// ---------------------------------------------------------------------

FigureResult
runFig05(const FigureOptions &opt)
{
    const auto &sweep = scalingSweep(opt);

    FigureResult fig;
    fig.id = "fig05";
    fig.title = "Execution mode breakdown vs number of processors (%)";
    fig.metricsByPoint = scalingSweepMetrics(opt);

    auto frac = [](const RunResult &r, sim::Tick os::ModeBreakdown::*m) {
        return 100.0 * r.modes.fraction(r.modes.*m);
    };

    Series ec_user("ecperf-user"), ec_sys("ecperf-system"),
        ec_idle("ecperf-idle"), ec_gc("ecperf-gcidle");
    Series jbb_user("specjbb-user"), jbb_sys("specjbb-system"),
        jbb_idle("specjbb-idle"), jbb_gc("specjbb-gcidle");

    Table table({"cpus", "ec-user", "ec-sys", "ec-idle", "ec-gcidle",
                 "jbb-user", "jbb-sys", "jbb-idle", "jbb-gcidle"});
    for (const auto &p : sweep) {
        auto m = [&](const std::vector<RunResult> &rs,
                     sim::Tick os::ModeBreakdown::*field) {
            return meanOf(rs, [&](const RunResult &r) {
                return frac(r, field);
            });
        };
        const double eu = m(p.ecperf, &os::ModeBreakdown::user);
        const double es = m(p.ecperf, &os::ModeBreakdown::system);
        const double ei = m(p.ecperf, &os::ModeBreakdown::idle);
        const double eg = m(p.ecperf, &os::ModeBreakdown::gcIdle);
        const double ju = m(p.jbb, &os::ModeBreakdown::user);
        const double js = m(p.jbb, &os::ModeBreakdown::system);
        const double ji = m(p.jbb, &os::ModeBreakdown::idle);
        const double jg = m(p.jbb, &os::ModeBreakdown::gcIdle);
        ec_user.add(p.cpus, eu);
        ec_sys.add(p.cpus, es);
        ec_idle.add(p.cpus, ei);
        ec_gc.add(p.cpus, eg);
        jbb_user.add(p.cpus, ju);
        jbb_sys.add(p.cpus, js);
        jbb_idle.add(p.cpus, ji);
        jbb_gc.add(p.cpus, jg);
        table.addRow({fmt(p.cpus, 0), fmt(eu, 1), fmt(es, 1),
                      fmt(ei, 1), fmt(eg, 1), fmt(ju, 1), fmt(js, 1),
                      fmt(ji, 1), fmt(jg, 1)});
    }

    // Part of the system-time rise is bus queueing inside kernel
    // paths; the directory plane removes it, so the growth floor
    // softens there (the absolute 20% floor still applies).
    const bool fig5_bus =
        opt.protocol == sim::CoherenceProtocol::SnoopBus;
    fig.checks.push_back(check(
        "ECperf system time grows substantially with CPUs",
        ec_sys.yAt(15) >= (fig5_bus ? 2.2 : 1.8) * ec_sys.yAt(1) &&
            ec_sys.yAt(15) >= 20.0,
        "system(1)=" + fmt(ec_sys.yAt(1), 1) + "% system(15)=" +
            fmt(ec_sys.yAt(15), 1) + "%"));
    fig.checks.push_back(check(
        "SPECjbb spends essentially no system time",
        jbb_sys.yAt(15) <= 6.0,
        "system(15)=" + fmt(jbb_sys.yAt(15), 1) + "%"));
    fig.checks.push_back(check(
        "Significant non-GC idle time appears on large systems",
        jbb_idle.yAt(15) >= 12.0,
        "jbb idle(15)=" + fmt(jbb_idle.yAt(15), 1) + "%"));
    fig.checks.push_back(check(
        "GC idle is a minor slice of total idle",
        jbb_gc.yAt(15) <= jbb_idle.yAt(15),
        "gcidle(15)=" + fmt(jbb_gc.yAt(15), 1) + "% idle(15)=" +
            fmt(jbb_idle.yAt(15), 1) + "%"));

    fig.measured = {ec_user, ec_sys, ec_idle, ec_gc,
                    jbb_user, jbb_sys, jbb_idle, jbb_gc};
    fig.paperRef = {paper::fig5EcperfSystem(), paper::fig5EcperfIdle(),
                    paper::fig5SpecJbbSystem(),
                    paper::fig5SpecJbbIdle()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 6: CPI breakdown
// ---------------------------------------------------------------------

FigureResult
runFig06(const FigureOptions &opt)
{
    const auto &sweep = scalingSweep(opt);

    FigureResult fig;
    fig.id = "fig06";
    fig.title = "CPI breakdown vs number of processors";
    fig.metricsByPoint = scalingSweepMetrics(opt);

    Series ec_cpi("ecperf-cpi"), jbb_cpi("specjbb-cpi");
    Series ec_ds("ecperf-datastall"), jbb_ds("specjbb-datastall");
    Series ec_is("ecperf-istall"), jbb_is("specjbb-istall");

    Table table({"cpus", "ec-cpi", "ec-istall", "ec-dstall",
                 "jbb-cpi", "jbb-istall", "jbb-dstall",
                 "paper-ec-cpi", "paper-jbb-cpi"});
    for (const auto &p : sweep) {
        auto cpi = [](const RunResult &r) { return r.cpi.cpi(); };
        auto dstall = [](const RunResult &r) {
            return r.cpi.cpi() * r.cpi.fraction(r.cpi.dataStall());
        };
        auto istall = [](const RunResult &r) {
            return r.cpi.cpi() * r.cpi.fraction(r.cpi.iStall);
        };
        const double ec = meanOf(p.ecperf, cpi);
        const double ed = meanOf(p.ecperf, dstall);
        const double ei = meanOf(p.ecperf, istall);
        const double jc = meanOf(p.jbb, cpi);
        const double jd = meanOf(p.jbb, dstall);
        const double ji = meanOf(p.jbb, istall);
        ec_cpi.add(p.cpus, ec, stdOf(p.ecperf, cpi));
        jbb_cpi.add(p.cpus, jc, stdOf(p.jbb, cpi));
        ec_ds.add(p.cpus, ed);
        jbb_ds.add(p.cpus, jd);
        ec_is.add(p.cpus, ei);
        jbb_is.add(p.cpus, ji);
        table.addRow({fmt(p.cpus, 0), fmt(ec), fmt(ei), fmt(ed),
                      fmt(jc), fmt(ji), fmt(jd),
                      fmt(paper::fig6EcperfCpi().yAt(p.cpus)),
                      fmt(paper::fig6SpecJbbCpi().yAt(p.cpus))});
    }

    // Residual gap (EXPERIMENTS.md): the paper reports +40%/+33%;
    // our sparser reference stream yields a shallower but clearly
    // monotone rise driven by memory-system stalls. The paper's
    // growth figures are for a snooping bus; a directory machine has
    // no shared-bus queueing, so its CPI rise is milder — that is the
    // point of a directory — and the floor softens accordingly.
    const double ec_growth = ec_cpi.yAt(15) / ec_cpi.yAt(1);
    const double jbb_growth = jbb_cpi.yAt(15) / jbb_cpi.yAt(1);
    const bool on_bus = opt.protocol == sim::CoherenceProtocol::SnoopBus;
    fig.checks.push_back(check(
        "CPI grows with processor count (both workloads)",
        ec_growth > (on_bus ? 1.08 : 1.02) &&
            jbb_growth > (on_bus ? 1.03 : 1.02),
        "ecperf x" + fmt(ec_growth) + " jbb x" + fmt(jbb_growth)));
    fig.checks.push_back(check(
        "Memory-system stalls drive the CPI increase",
        (ec_ds.yAt(15) - ec_ds.yAt(1)) >
            0.5 * (ec_is.yAt(15) - ec_is.yAt(1)) &&
        (jbb_ds.yAt(15) - jbb_ds.yAt(1)) >
            (jbb_is.yAt(15) - jbb_is.yAt(1)),
        "ec dstall " + fmt(ec_ds.yAt(1)) + "->" + fmt(ec_ds.yAt(15)) +
            ", jbb dstall " + fmt(jbb_ds.yAt(1)) + "->" +
            fmt(jbb_ds.yAt(15))));
    fig.checks.push_back(check(
        "CPIs are moderate for commercial workloads (< 3.2)",
        ec_cpi.maxY() < 3.2 && jbb_cpi.maxY() < 3.2,
        "max ec=" + fmt(ec_cpi.maxY()) + " max jbb=" +
            fmt(jbb_cpi.maxY())));

    fig.measured = {ec_cpi, jbb_cpi, ec_ds, jbb_ds, ec_is, jbb_is};
    fig.paperRef = {paper::fig6EcperfCpi(), paper::fig6SpecJbbCpi()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 7: data stall decomposition
// ---------------------------------------------------------------------

FigureResult
runFig07(const FigureOptions &opt)
{
    const auto &sweep = scalingSweep(opt);

    FigureResult fig;
    fig.id = "fig07";
    fig.title = "Data stall time decomposition vs processors";
    fig.metricsByPoint = scalingSweepMetrics(opt);

    Series ec_c2c("ecperf-c2c-share"), jbb_c2c("specjbb-c2c-share");
    Series ec_mem("ecperf-mem-share"), jbb_mem("specjbb-mem-share");

    Table table({"cpus", "wl", "storebuf", "raw", "l2hit", "c2c",
                 "mem", "other"});
    auto addRows = [&](const char *wl,
                       const std::vector<RunResult> &runs,
                       unsigned cpus, Series &c2c_series,
                       Series &mem_series) {
        auto share = [&](sim::Tick cpu::CpiBreakdown::*field) {
            return meanOf(runs, [&](const RunResult &r) {
                const double ds =
                    static_cast<double>(r.cpi.dataStall());
                return ds > 0
                    ? static_cast<double>(r.cpi.*field) / ds
                    : 0.0;
            });
        };
        const double sb = share(&cpu::CpiBreakdown::dsStoreBuf);
        const double raw = share(&cpu::CpiBreakdown::dsRaw);
        const double l2 = share(&cpu::CpiBreakdown::dsL2Hit);
        const double c2c = share(&cpu::CpiBreakdown::dsC2C);
        const double mem = share(&cpu::CpiBreakdown::dsMemory);
        const double other = share(&cpu::CpiBreakdown::dsOther);
        c2c_series.add(cpus, c2c);
        mem_series.add(cpus, mem);
        table.addRow({fmt(cpus, 0), wl, fmt(sb), fmt(raw), fmt(l2),
                      fmt(c2c), fmt(mem), fmt(other)});
    };

    for (const auto &p : sweep) {
        addRows("ecperf", p.ecperf, p.cpus, ec_c2c, ec_mem);
        addRows("specjbb", p.jbb, p.cpus, jbb_c2c, jbb_mem);
    }

    fig.checks.push_back(check(
        "c2c share of data stall grows with processors",
        ec_c2c.yAt(15) > ec_c2c.yAt(2) &&
            jbb_c2c.yAt(15) > jbb_c2c.yAt(2),
        "ec " + fmt(ec_c2c.yAt(2)) + "->" + fmt(ec_c2c.yAt(15)) +
            ", jbb " + fmt(jbb_c2c.yAt(2)) + "->" +
            fmt(jbb_c2c.yAt(15))));
    fig.checks.push_back(check(
        "c2c transfers are a major data-stall component at scale",
        ec_c2c.yAt(15) >= 0.25 && jbb_c2c.yAt(15) >= 0.12,
        "ec(15)=" + fmt(ec_c2c.yAt(15)) + " jbb(15)=" +
            fmt(jbb_c2c.yAt(15))));

    // Store-buffer and RAW stalls as fractions of *total execution*:
    // the paper reports 1-2% and ~1%.
    auto exec_share = [&](const std::vector<RunResult> &runs,
                          sim::Tick cpu::CpiBreakdown::*field) {
        return meanOf(runs, [&](const RunResult &r) {
            return r.cpi.fraction(r.cpi.*field);
        });
    };
    const auto &big = sweep.back();
    const double sb_exec =
        exec_share(big.jbb, &cpu::CpiBreakdown::dsStoreBuf);
    const double raw_exec =
        exec_share(big.jbb, &cpu::CpiBreakdown::dsRaw);
    fig.checks.push_back(check(
        "store buffer stalls are a small fraction of execution",
        sb_exec < 0.05, "storebuf=" + fmt(100 * sb_exec, 2) + "%"));
    fig.checks.push_back(check(
        "RAW hazard stalls are a small fraction of execution",
        raw_exec < 0.04, "raw=" + fmt(100 * raw_exec, 2) + "%"));

    fig.measured = {ec_c2c, jbb_c2c, ec_mem, jbb_mem};
    fig.paperRef = {paper::fig7EcperfC2cShare(),
                    paper::fig7SpecJbbC2cShare()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 8: cache-to-cache transfer ratio
// ---------------------------------------------------------------------

FigureResult
runFig08(const FigureOptions &opt)
{
    const auto &sweep = scalingSweep(opt);

    FigureResult fig;
    fig.id = "fig08";
    fig.title = "Cache-to-cache transfer ratio (% of L2 misses)";
    fig.metricsByPoint = scalingSweepMetrics(opt);

    auto ratio = [](const RunResult &r) {
        return 100.0 * r.cache.c2cRatio();
    };

    Series ec("ecperf"), jbb("specjbb");
    Table table({"cpus", "ecperf", "+-", "specjbb", "+-", "paper-ec",
                 "paper-jbb"});
    for (const auto &p : sweep) {
        const double e = meanOf(p.ecperf, ratio);
        const double j = meanOf(p.jbb, ratio);
        ec.add(p.cpus, e, stdOf(p.ecperf, ratio));
        jbb.add(p.cpus, j, stdOf(p.jbb, ratio));
        table.addRow({fmt(p.cpus, 0), fmt(e, 1),
                      fmt(stdOf(p.ecperf, ratio), 1), fmt(j, 1),
                      fmt(stdOf(p.jbb, ratio), 1),
                      fmt(paper::fig8Ecperf().yAt(p.cpus), 0),
                      fmt(paper::fig8SpecJbb().yAt(p.cpus), 0)});
    }

    // Residual gap (EXPERIMENTS.md): the paper reaches >60% at 14
    // CPUs; our capacity-miss denominator stays larger, so the rise
    // is steep in relative terms but tops out near 15-30%. The rise
    // itself is a MOSI-bus claim: an O-state owner supplies every
    // reader, so dirty sharing converts misses to c2c transfers as
    // CPUs are added. Directory MESI has no O state — clean sharers
    // are served by the home — so there the qualitative claim is
    // only that communication stays substantial, not that its share
    // keeps rising.
    const bool fig8_bus =
        opt.protocol == sim::CoherenceProtocol::SnoopBus;
    fig.checks.push_back(check(
        fig8_bus ? "ratio rises substantially with processor count"
                 : "c2c share stays substantial (MESI: home serves "
                   "clean sharers, no O-state supply)",
        fig8_bus ? (jbb.yAt(14) >= 1.4 * jbb.yAt(2) &&
                    jbb.yAt(14) >= 11.0 &&
                    ec.yAt(14) >= 1.4 * ec.yAt(2))
                 : (jbb.yAt(14) >= 8.0 && ec.yAt(14) >= 15.0),
        "jbb " + fmt(jbb.yAt(2), 1) + "% -> " + fmt(jbb.yAt(14), 1) +
            "%, ec " + fmt(ec.yAt(2), 1) + "% -> " +
            fmt(ec.yAt(14), 1) + "%"));
    fig.checks.push_back(check(
        "transfers occur even with one application CPU (OS activity)",
        ec.yAt(1) > 0.0 && jbb.yAt(1) > 0.0,
        "ec(1)=" + fmt(ec.yAt(1), 2) + "% jbb(1)=" +
            fmt(jbb.yAt(1), 2) + "%"));
    fig.checks.push_back(check(
        "both workloads show comparable sharing behavior",
        std::abs(ec.yAt(14) - jbb.yAt(14)) <
            0.6 * std::max(ec.yAt(14), jbb.yAt(14)),
        "ec(14)=" + fmt(ec.yAt(14), 1) + "% jbb(14)=" +
            fmt(jbb.yAt(14), 1) + "%"));

    fig.measured = {ec, jbb};
    fig.paperRef = {paper::fig8Ecperf(), paper::fig8SpecJbb()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 9: effect of garbage collection on scaling
// ---------------------------------------------------------------------

FigureResult
runFig09(const FigureOptions &opt)
{
    const auto &sweep = scalingSweep(opt);

    FigureResult fig;
    fig.id = "fig09";
    fig.title = "Effect of garbage collection on throughput scaling";
    fig.metricsByPoint = scalingSweepMetrics(opt);

    auto tput = [](const RunResult &r) { return r.throughput; };
    auto tput_nogc = [](const RunResult &r) {
        // Factor the collection time out of the runtime.
        const double gc = r.gcFraction();
        return gc < 0.95 ? r.throughput / (1.0 - gc) : r.throughput;
    };

    const double ec_base = meanOf(sweep.front().ecperf, tput);
    const double jbb_base = meanOf(sweep.front().jbb, tput);
    const double ec_base_n = meanOf(sweep.front().ecperf, tput_nogc);
    const double jbb_base_n = meanOf(sweep.front().jbb, tput_nogc);

    Series ec("ecperf"), ecn("ecperf-nogc");
    Series jbb("specjbb"), jbbn("specjbb-nogc");
    Table table({"cpus", "ecperf", "ecperf-nogc", "specjbb",
                 "specjbb-nogc"});
    for (const auto &p : sweep) {
        const double e = meanOf(p.ecperf, tput) / ec_base;
        const double en = meanOf(p.ecperf, tput_nogc) / ec_base_n;
        const double j = meanOf(p.jbb, tput) / jbb_base;
        const double jn = meanOf(p.jbb, tput_nogc) / jbb_base_n;
        ec.add(p.cpus, e);
        ecn.add(p.cpus, en);
        jbb.add(p.cpus, j);
        jbbn.add(p.cpus, jn);
        table.addRow({fmt(p.cpus, 0), fmt(e), fmt(en), fmt(j),
                      fmt(jn)});
    }

    // GC helps the no-GC curve, but only modestly: it explains a
    // small part of the gap to linear speedup.
    const double jbb_gap = 15.0 - jbb.yAt(15);
    const double jbb_gc_gain = jbbn.yAt(15) - jbb.yAt(15);
    fig.checks.push_back(check(
        "removing GC time closes only a fraction of the speedup gap",
        jbb_gap > 0 && jbb_gc_gain < 0.6 * jbb_gap,
        "gap=" + fmt(jbb_gap) + " gc-gain=" + fmt(jbb_gc_gain)));
    fig.checks.push_back(check(
        "no-GC speedup is at least the measured speedup",
        jbbn.yAt(15) >= jbb.yAt(15) * 0.98 &&
            ecn.yAt(15) >= ec.yAt(15) * 0.98,
        "jbb " + fmt(jbb.yAt(15)) + " vs nogc " + fmt(jbbn.yAt(15))));

    fig.measured = {ec, ecn, jbb, jbbn};
    fig.paperRef = {paper::fig4Ecperf(), paper::fig4SpecJbb()};
    fig.table = table;
    return fig;
}

// ---------------------------------------------------------------------
// Figure 10: copyback rate over time (GC windows)
// ---------------------------------------------------------------------

namespace
{

/** The Figure 10 experiment configuration. */
ExperimentSpec
fig10Spec(const FigureOptions &opt)
{
    ExperimentSpec spec = figureSpec(WorkloadKind::SpecJbb, 8, opt);
    spec.measure = static_cast<sim::Tick>(340'000'000 * opt.timeScale);
    // A larger young generation for the timeline: with a compressed
    // nursery a noticeable fraction of from-space is still cached,
    // blurring the copyback collapse the paper observes.
    spec.sys.jvm.heap.newGenBytes = 48ULL << 20;
    return spec;
}

Fig10Data
fig10Leaf(const FigureOptions &opt)
{
    const ExperimentSpec spec = fig10Spec(opt);
    BuiltWorkload workload;
    auto system = buildSystem(spec, workload);
    system->run(spec.warmup);
    system->beginMeasurement();

    // Timeline bins are indexed by absolute time.
    const sim::Tick t0 = system->now();
    system->memory().enableTimeline(
        fig10BinWidth,
        static_cast<unsigned>((t0 + spec.measure) / fig10BinWidth) + 2);
    system->run(spec.measure);

    Fig10Data d;
    d.t0 = t0;
    d.bins = system->memory().timeline()->bins();
    for (const auto &rec : system->vm().stats().log)
        d.gcWindows.emplace_back(rec.start, rec.start + rec.duration);
    d.point = pointName(spec);
    d.snap = collectMetrics(*system, spec, workload);
    return d;
}

} // namespace

Fig10Data
cachedFig10Data(const FigureOptions &opt)
{
    return throughCache<Fig10Data>("fig10", fig10Spec(opt),
                                   [&] { return fig10Leaf(opt); });
}

FigureResult
runFig10(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig10";
    fig.title =
        "Cache-to-cache transfers per second over time (SPECjbb)";

    const Fig10Data data = cachedFig10Data(opt);
    const sim::Tick bin = fig10BinWidth;
    const sim::Tick t0 = data.t0;
    const auto &timeline = data.bins;
    const auto first_bin = static_cast<std::size_t>(t0 / bin);

    // Normalize to the peak rate, as the paper does.
    std::uint64_t peak = 1;
    for (std::size_t b = first_bin; b < timeline.size(); ++b)
        peak = std::max(peak, timeline[b]);

    Series rate("specjbb-c2c-rate");
    Table table({"t(ms)", "c2c-rate(norm)", "gc-active"});

    // Identify GC windows from the collection log.
    // A bin counts as in-GC only when it lies fully inside the
    // collection window (edge bins mix application activity).
    auto inGc = [&](sim::Tick lo, sim::Tick hi) {
        for (const auto &[start, end] : data.gcWindows) {
            if (lo >= start && hi <= end)
                return true;
        }
        return false;
    };

    double in_sum = 0, in_n = 0, out_sum = 0, out_n = 0;
    for (std::size_t b = first_bin; b < timeline.size(); ++b) {
        const sim::Tick t = static_cast<sim::Tick>(b) * bin;
        const double norm = static_cast<double>(timeline[b]) /
                            static_cast<double>(peak);
        const bool gc = inGc(t, t + bin);
        rate.add(1000.0 * sim::ticksToSeconds(t - t0), norm);
        if (gc) {
            in_sum += norm;
            in_n += 1;
        } else {
            out_sum += norm;
            out_n += 1;
        }
        if (b % 4 == 0) {
            table.addRow({fmt(1000.0 * sim::ticksToSeconds(t - t0), 1),
                          fmt(norm), gc ? "yes" : "no"});
        }
    }

    fig.metricsByPoint.emplace(data.point, data.snap);

    const double in_mean = in_n ? in_sum / in_n : 0.0;
    const double out_mean = out_n ? out_sum / out_n : 1.0;
    fig.checks.push_back(check(
        "at least 3 collections occur in the interval",
        data.gcWindows.size() >= 3,
        std::to_string(data.gcWindows.size()) + " collections"));
    fig.checks.push_back(check(
        "copyback rate collapses during garbage collection",
        in_n > 0 && in_mean < 0.35 * out_mean,
        "mean in-GC=" + fmt(in_mean, 3) + " out-GC=" +
            fmt(out_mean, 3)));

    fig.measured = {rate};
    fig.table = table;
    return fig;
}

} // namespace middlesim::core
