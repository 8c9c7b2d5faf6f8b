/**
 * @file
 * Figure-harness plumbing tests: paper reference data, report
 * rendering, and one cheap end-to-end harness run.
 *
 * Full-fidelity shape checks run in the bench binaries; here we use
 * minimal effort options and verify structure, not calibration.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "core/figures.hh"
#include "core/figures_internal.hh"
#include "core/paper.hh"
#include "core/report.hh"
#include "sim/args.hh"

using namespace middlesim;
using core::FigureOptions;
using core::FigureResult;

TEST(PaperData, SweepAndSeriesAreConsistent)
{
    const auto &sweep = core::paper::cpuSweep();
    ASSERT_FALSE(sweep.empty());
    EXPECT_EQ(sweep.front(), 1.0);
    EXPECT_EQ(sweep.back(), 15.0);
    // Every scaling series covers every sweep point.
    for (const auto &series :
         {core::paper::fig4Ecperf(), core::paper::fig4SpecJbb(),
          core::paper::fig8Ecperf(), core::paper::fig8SpecJbb()}) {
        for (double x : sweep)
            EXPECT_GT(series.yAt(x, -1.0), 0.0) << series.name;
    }
}

TEST(PaperData, Fig16Crossover)
{
    // The digitized reference must itself encode the crossover.
    const auto ec = core::paper::fig16Ecperf();
    const auto jbb = core::paper::fig16SpecJbb25();
    EXPECT_LT(ec.yAt(8), ec.yAt(1));
    EXPECT_GT(jbb.yAt(8), jbb.yAt(1));
}

namespace
{

/** The figure options the shared driver rows read from the env. */
FigureOptions
optionsFromEnv()
{
    core::DriverOptions d;
    sim::parseOptions("test_figures", core::driverOptions(d), 0, nullptr);
    return d.fig;
}

} // namespace

TEST(FigureOptions, FromEnvQuick)
{
    setenv("MIDDLESIM_QUICK", "1", 1);
    const auto opt = optionsFromEnv();
    EXPECT_EQ(opt.runs, 1u);
    EXPECT_LT(opt.timeScale, 1.0);
    unsetenv("MIDDLESIM_QUICK");
    setenv("MIDDLESIM_RUNS", "5", 1);
    EXPECT_EQ(optionsFromEnv().runs, 5u);
    unsetenv("MIDDLESIM_RUNS");
}

TEST(FigureOptions, TimescaleShrinksIntervalsProportionally)
{
    setenv("MIDDLESIM_TIMESCALE", "0.25", 1);
    const FigureOptions quarter = optionsFromEnv();
    EXPECT_DOUBLE_EQ(quarter.timeScale, 0.25);
    unsetenv("MIDDLESIM_TIMESCALE");
    const FigureOptions full = optionsFromEnv();
    EXPECT_DOUBLE_EQ(full.timeScale, 1.0);

    // The scaled option must shrink every grid spec's warmup and
    // measure interval by exactly the requested factor.
    const auto specs_q = core::fig16GridSpecs(quarter);
    const auto specs_f = core::fig16GridSpecs(full);
    ASSERT_EQ(specs_q.size(), specs_f.size());
    ASSERT_FALSE(specs_q.empty());
    for (std::size_t i = 0; i < specs_q.size(); ++i) {
        EXPECT_EQ(specs_q[i].warmup,
                  static_cast<sim::Tick>(
                      static_cast<double>(specs_f[i].warmup) * 0.25));
        EXPECT_EQ(specs_q[i].measure,
                  static_cast<sim::Tick>(
                      static_cast<double>(specs_f[i].measure) * 0.25));
        EXPECT_LT(specs_q[i].warmup, specs_f[i].warmup);
        EXPECT_LT(specs_q[i].measure, specs_f[i].measure);
    }

    // Zero and negative values are fatal errors naming the variable.
    setenv("MIDDLESIM_TIMESCALE", "0", 1);
    EXPECT_EXIT(optionsFromEnv(), testing::ExitedWithCode(1),
                "test_figures: bad environment variable "
                "MIDDLESIM_TIMESCALE='0'");
    setenv("MIDDLESIM_TIMESCALE", "-2", 1);
    EXPECT_EXIT(optionsFromEnv(), testing::ExitedWithCode(1),
                "test_figures: bad environment variable "
                "MIDDLESIM_TIMESCALE='-2'");
    unsetenv("MIDDLESIM_TIMESCALE");
}

TEST(FigureOptions, Fig16SpecsCarryInterconnectSettings)
{
    // Every figure builds its points from one spec builder, so the
    // interconnect options reach Figure 16 just as they reach 4-10.
    FigureOptions opt;
    opt.protocol = sim::CoherenceProtocol::DirectoryMesi;
    opt.numaNodes = 2;
    opt.topology = sim::Topology::Mesh;
    opt.dirOccupancy = 4;
    const auto specs = core::fig16GridSpecs(opt);
    ASSERT_FALSE(specs.empty());
    for (const core::ExperimentSpec &spec : specs) {
        EXPECT_EQ(spec.topology, opt.topology);
        EXPECT_EQ(spec.dirOccupancy, opt.dirOccupancy);
    }
}

namespace
{

/** A figure's printed report followed by its metrics document. */
std::string
render(const FigureResult &fig)
{
    std::ostringstream os;
    core::printFigure(fig, os);
    core::writeMetricsJson(os, fig.id, fig.metricsByPoint);
    return os.str();
}

} // namespace

TEST(FigureOptions, FigureMemosKeyOnEveryOption)
{
    // The Figure 12/13 and 14/15 memos are per process; a second call
    // with other options must simulate those options, not return the
    // first call's figure.
    FigureOptions snoop;
    snoop.runs = 1;
    snoop.timeScale = 0.05;
    FigureOptions directory = snoop;
    directory.protocol = sim::CoherenceProtocol::DirectoryMesi;
    const std::string fig12_snoop = render(core::runFig12(snoop));
    EXPECT_NE(render(core::runFig12(directory)), fig12_snoop);

    FigureOptions longer = snoop;
    longer.timeScale = 0.1;
    const std::string fig14_short = render(core::runFig14(snoop));
    EXPECT_NE(render(core::runFig14(longer)), fig14_short);
}

TEST(Report, RendersTablesAndVerdicts)
{
    FigureResult fig;
    fig.id = "figXX";
    fig.title = "test";
    fig.table = stats::Table({"a", "b"});
    fig.table.addRow({"1", "2"});
    fig.checks.push_back({"always true", true, "ok"});
    std::ostringstream os;
    core::printFigure(fig, os);
    EXPECT_NE(os.str().find("figXX"), std::string::npos);
    EXPECT_NE(os.str().find("[PASS]"), std::string::npos);
    EXPECT_NE(os.str().find("all shape checks passed"),
              std::string::npos);
    EXPECT_TRUE(fig.allPass());
    fig.checks.push_back({"always false", false, "no"});
    EXPECT_FALSE(fig.allPass());
}

TEST(FigureHarness, Fig16RunsAtMinimalEffort)
{
    FigureOptions opt;
    opt.runs = 1;
    opt.timeScale = 0.12;
    opt.seed = 5;
    const FigureResult fig = core::runFig16(opt);
    EXPECT_EQ(fig.id, "fig16");
    EXPECT_EQ(fig.measured.size(), 2u);
    // Four sharing degrees per series.
    EXPECT_EQ(fig.measured[0].points.size(), 4u);
    EXPECT_EQ(fig.table.numRows(), 4u);
    EXPECT_FALSE(fig.checks.empty());
    for (const auto &series : fig.measured) {
        for (const auto &p : series.points)
            EXPECT_GT(p.y, 0.0);
    }
}
