/**
 * @file
 * Option-table parser tests: every row kind is strict on argv and in
 * the environment, flags beat variables, the shared driver rows keep
 * their precedence, and the figure drivers and run_all accept the
 * same machine settings.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hh"
#include "core/run_all.hh"
#include "core/trace_run.hh"
#include "sim/args.hh"

using namespace middlesim;

namespace
{

/** One destination per row kind. */
struct Sink
{
    unsigned count = 0;
    std::uint64_t big = 0;
    double budget = 0.0;
    double scale = 1.0;
    std::string name;
    bool on = false;
    sim::Topology topology = sim::Topology::Ring;
};

sim::OptionTable
kindTable(Sink &s)
{
    return {
        {"--count", "ARGS_TEST_COUNT", "N", "an integer in [1, 8]",
         sim::setUint(s.count, 1, 8)},
        {"--big", "ARGS_TEST_BIG", "N", "a 64-bit integer",
         sim::setU64(s.big)},
        {"--budget", "ARGS_TEST_BUDGET", "SECONDS", "seconds",
         sim::setSeconds(s.budget)},
        {"--scale", "ARGS_TEST_SCALE", "F", "a positive number",
         sim::setPositive(s.scale)},
        {"--name", "ARGS_TEST_NAME", "TEXT", "any text",
         sim::setText(s.name)},
        {"--on", "ARGS_TEST_ON", "", "a switch", sim::setSwitch(s.on)},
        {"--topology", "ARGS_TEST_TOPOLOGY", "ring|mesh", "a choice",
         sim::setChoice(s.topology, sim::parseTopology, "ring or mesh")},
    };
}

/** An argv of `tool` followed by `args`. */
struct Argv
{
    Argv(std::vector<std::string> args, std::string tool)
        : strings(std::move(args))
    {
        strings.insert(strings.begin(), std::move(tool));
        for (std::string &s : strings)
            ptrs.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
};

Sink
parseKinds(const std::vector<std::string> &args)
{
    Sink s;
    Argv a(args, "args_test");
    sim::parseOptions("args_test", kindTable(s), a.argc(), a.argv());
    return s;
}

core::DriverOptions
parseDriver(const std::vector<std::string> &args)
{
    core::DriverOptions d;
    Argv a(args, "driver_test");
    sim::parseOptions("driver_test", core::driverOptions(d), a.argc(),
                      a.argv());
    return d;
}

/** Every variable the tables here read starts unset. */
class Args : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        Sink s;
        core::DriverOptions d;
        for (const sim::OptionTable &table :
             {kindTable(s), core::driverOptions(d)}) {
            for (const sim::Option &row : table) {
                if (!row.env.empty())
                    unsetenv(row.env.c_str());
            }
        }
    }
};

} // namespace

TEST_F(Args, EveryKindAcceptsWholeValues)
{
    const Sink s = parseKinds({"--count=8", "--big=18446744073709551615",
                               "--budget=0.5s", "--scale=0.05",
                               "--name=x", "--on", "--topology=mesh"});
    EXPECT_EQ(s.count, 8u);
    EXPECT_EQ(s.big, UINT64_MAX);
    EXPECT_DOUBLE_EQ(s.budget, 0.5);
    EXPECT_DOUBLE_EQ(s.scale, 0.05);
    EXPECT_EQ(s.name, "x");
    EXPECT_TRUE(s.on);
    EXPECT_EQ(s.topology, sim::Topology::Mesh);
    EXPECT_DOUBLE_EQ(parseKinds({"--budget=60"}).budget, 60.0);

    setenv("ARGS_TEST_ON", "1", 1);
    setenv("ARGS_TEST_BUDGET", "7s", 1);
    EXPECT_TRUE(parseKinds({}).on);
    EXPECT_DOUBLE_EQ(parseKinds({}).budget, 7.0);
    setenv("ARGS_TEST_ON", "0", 1);
    EXPECT_FALSE(parseKinds({}).on);
}

TEST_F(Args, EveryKindRejectsGarbageFromArgv)
{
    for (const char *arg :
         {"--count=abc", "--count=3x", "--count=0", "--count=9",
          "--count=-1", "--count= 3", "--count=", "--big=abc",
          "--big=18446744073709551616", "--big=-1", "--budget=abc",
          "--budget=-1", "--budget=1x", "--budget=s", "--scale=0",
          "--scale=-2", "--scale=abc", "--scale=inf", "--name=",
          "--on=1", "--count", "--topology=star", "--topology="}) {
        EXPECT_EXIT(parseKinds({arg}), testing::ExitedWithCode(1),
                    std::string("args_test: bad flag '") + arg + "'")
            << arg;
    }
}

TEST_F(Args, EveryKindRejectsGarbageFromTheEnvironment)
{
    const std::vector<std::pair<const char *, const char *>> cases = {
        {"ARGS_TEST_COUNT", "abc"},  {"ARGS_TEST_COUNT", "3x"},
        {"ARGS_TEST_COUNT", "0"},    {"ARGS_TEST_COUNT", "-1"},
        {"ARGS_TEST_BIG", "1e3"},    {"ARGS_TEST_BUDGET", "soon"},
        {"ARGS_TEST_SCALE", "0"},    {"ARGS_TEST_SCALE", "-2"},
        {"ARGS_TEST_SCALE", "abc"},  {"ARGS_TEST_ON", "yes"},
        {"ARGS_TEST_ON", "2"},       {"ARGS_TEST_TOPOLOGY", "star"},
    };
    for (const auto &[name, value] : cases) {
        setenv(name, value, 1);
        EXPECT_EXIT(parseKinds({}), testing::ExitedWithCode(1),
                    std::string("args_test: bad environment variable ") +
                        name + "='" + value + "'")
            << name << "=" << value;
        unsetenv(name);
    }
}

TEST_F(Args, EmptyVariableCountsAsUnset)
{
    setenv("ARGS_TEST_NAME", "", 1);
    setenv("ARGS_TEST_COUNT", "", 1);
    const Sink s = parseKinds({});
    EXPECT_EQ(s.name, "");
    EXPECT_EQ(s.count, 0u);
}

TEST_F(Args, ArgvBeatsEnvironment)
{
    setenv("ARGS_TEST_COUNT", "3", 1);
    setenv("ARGS_TEST_TOPOLOGY", "mesh", 1);
    EXPECT_EQ(parseKinds({}).count, 3u);
    const Sink s = parseKinds({"--count=5", "--topology=ring"});
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(s.topology, sim::Topology::Ring);

    setenv("MIDDLESIM_NUMA_NODES", "4", 1);
    setenv("MIDDLESIM_JOBS", "3", 1);
    const core::DriverOptions d =
        parseDriver({"--numa-nodes=2", "--jobs=1"});
    EXPECT_EQ(d.fig.numaNodes, 2u);
    EXPECT_EQ(d.jobs, 1u);
    EXPECT_EQ(parseDriver({}).fig.numaNodes, 4u);
}

TEST_F(Args, QuickOverridesRunsAndTimescaleOverridesQuick)
{
    setenv("MIDDLESIM_RUNS", "5", 1);
    EXPECT_EQ(parseDriver({}).fig.runs, 5u);
    setenv("MIDDLESIM_QUICK", "0", 1);
    EXPECT_EQ(parseDriver({}).fig.runs, 5u);
    EXPECT_DOUBLE_EQ(parseDriver({}).fig.timeScale, 1.0);

    setenv("MIDDLESIM_QUICK", "1", 1);
    core::DriverOptions d = parseDriver({});
    EXPECT_EQ(d.fig.runs, 1u);
    EXPECT_DOUBLE_EQ(d.fig.timeScale, 0.5);

    setenv("MIDDLESIM_TIMESCALE", "0.05", 1);
    d = parseDriver({});
    EXPECT_EQ(d.fig.runs, 1u);
    EXPECT_DOUBLE_EQ(d.fig.timeScale, 0.05);
}

TEST_F(Args, TraceVariableAppliesOnlyWithoutTraceFlags)
{
    const std::string root = testing::TempDir() + "args_test_trace";
    const std::string both = root + "/both";
    const std::string flag = root + "/flag";
    setenv("MIDDLESIM_TRACE", both.c_str(), 1);

    core::applyDriverOptions(parseDriver({}));
    EXPECT_EQ(core::traceOutDir(), both);
    EXPECT_EQ(core::traceInDir(), both);

    core::applyDriverOptions(parseDriver({"--trace-in=" + flag}));
    EXPECT_EQ(core::traceOutDir(), "");
    EXPECT_EQ(core::traceInDir(), flag);

    core::applyDriverOptions(parseDriver({"--trace-out=" + flag}));
    EXPECT_EQ(core::traceOutDir(), flag);
    EXPECT_EQ(core::traceInDir(), "");
    core::configureTracing("", "");
}

TEST_F(Args, UnknownFlagListsEveryFlag)
{
    EXPECT_EXIT(parseKinds({"--bogus"}), testing::ExitedWithCode(1),
                "args_test: unknown flag '--bogus' .supported: "
                "--count=N, --big=N, --budget=SECONDS, --scale=F, "
                "--name=TEXT, --on, --topology=ring.mesh, --help.");
    EXPECT_EXIT(parseKinds({"stray"}), testing::ExitedWithCode(1),
                "args_test: unknown flag 'stray'");
}

TEST_F(Args, HelpListsEveryFlagAndVariable)
{
    Sink s;
    const sim::OptionTable table = kindTable(s);
    const std::string help = sim::optionsHelp(table);
    for (const sim::Option &row : table) {
        EXPECT_NE(help.find(row.flag), std::string::npos) << row.flag;
        EXPECT_NE(help.find(row.env), std::string::npos) << row.env;
        EXPECT_NE(help.find(row.help), std::string::npos) << row.help;
    }
    EXPECT_NE(help.find("  --count=N   "), std::string::npos);
    EXPECT_NE(help.find("  ARGS_TEST_COUNT  "), std::string::npos);
    EXPECT_NE(help.find("  ARGS_TEST_ON=0|1  "), std::string::npos);

    core::DriverOptions d;
    const std::string driver_help =
        sim::optionsHelp(core::driverOptions(d));
    for (const char *name :
         {"--protocol=", "MIDDLESIM_PROTOCOL ", "--numa-nodes=",
          "MIDDLESIM_NUMA_NODES ", "--topology=", "MIDDLESIM_TOPOLOGY ",
          "--dir-occupancy=", "MIDDLESIM_DIR_OCCUPANCY ", "--jobs=",
          "MIDDLESIM_JOBS ", "--cache-dir=", "MIDDLESIM_CACHE ",
          "--no-cache ", "--check ", "MIDDLESIM_CHECK=0|1",
          "--trace-out=", "--trace-in=", "MIDDLESIM_TRACE=DIR",
          "MIDDLESIM_RUNS=N", "MIDDLESIM_QUICK=0|1",
          "MIDDLESIM_TIMESCALE=F"}) {
        EXPECT_NE(driver_help.find(name), std::string::npos) << name;
    }

    // --help exits 0 even when the environment holds garbage.
    setenv("ARGS_TEST_COUNT", "abc", 1);
    EXPECT_EXIT(parseKinds({"--count=3", "--help"}),
                testing::ExitedWithCode(0), "");
}

TEST_F(Args, FigureDriversAndRunAllShareTheMachineRows)
{
    const char *machine =
        ".supported: .*--protocol=snoop.directory, --numa-nodes=N, "
        "--topology=ring.mesh, --dir-occupancy=N, ";
    Argv fig({"--bogus"}, "fig04_scaling");
    EXPECT_EXIT(core::figureMain(core::runFig04, fig.argc(), fig.argv()),
                testing::ExitedWithCode(1),
                std::string("fig04_scaling: unknown flag '--bogus' ") +
                    machine + ".*--metrics-out=PATH");
    Argv all({"--bogus"}, "run_all");
    EXPECT_EXIT(core::runAllMain(all.argc(), all.argv()),
                testing::ExitedWithCode(1),
                std::string("run_all: unknown flag '--bogus' ") + machine +
                    ".*--stats-out=PATH");
}
