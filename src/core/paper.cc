#include "core/paper.hh"

namespace middlesim::core::paper
{

namespace
{

stats::Series
make(const char *name, std::initializer_list<std::pair<double, double>> pts)
{
    stats::Series s(name);
    for (const auto &[x, y] : pts)
        s.add(x, y);
    return s;
}

} // namespace

const std::vector<double> &
cpuSweep()
{
    static const std::vector<double> sweep =
        {1, 2, 4, 6, 8, 10, 12, 14, 15};
    return sweep;
}

stats::Series
fig4Ecperf()
{
    return make("paper-ecperf", {{1, 1.0}, {2, 2.2}, {4, 4.8},
                                 {6, 7.3}, {8, 9.4}, {10, 10.0},
                                 {12, 10.2}, {14, 9.4}, {15, 9.0}});
}

stats::Series
fig4SpecJbb()
{
    return make("paper-specjbb", {{1, 1.0}, {2, 1.9}, {4, 3.6},
                                  {6, 5.1}, {8, 6.3}, {10, 7.0},
                                  {12, 7.1}, {14, 7.1}, {15, 7.0}});
}

stats::Series
fig5EcperfSystem()
{
    return make("paper-ecperf-system",
                {{1, 5}, {2, 8}, {4, 12}, {6, 16}, {8, 20}, {10, 24},
                 {12, 26}, {14, 29}, {15, 30}});
}

stats::Series
fig5EcperfIdle()
{
    return make("paper-ecperf-idle",
                {{1, 4}, {2, 5}, {4, 7}, {6, 10}, {8, 14}, {10, 20},
                 {12, 23}, {14, 25}, {15, 25}});
}

stats::Series
fig5SpecJbbSystem()
{
    return make("paper-specjbb-system",
                {{1, 1}, {2, 1}, {4, 2}, {6, 2}, {8, 2}, {10, 3},
                 {12, 3}, {14, 3}, {15, 3}});
}

stats::Series
fig5SpecJbbIdle()
{
    return make("paper-specjbb-idle",
                {{1, 1}, {2, 3}, {4, 6}, {6, 10}, {8, 15}, {10, 20},
                 {12, 23}, {14, 25}, {15, 26}});
}

stats::Series
fig6EcperfCpi()
{
    return make("paper-ecperf-cpi",
                {{1, 2.0}, {2, 2.1}, {4, 2.2}, {6, 2.35}, {8, 2.5},
                 {10, 2.6}, {12, 2.65}, {14, 2.75}, {15, 2.8}});
}

stats::Series
fig6SpecJbbCpi()
{
    return make("paper-specjbb-cpi",
                {{1, 1.8}, {2, 1.85}, {4, 1.95}, {6, 2.05}, {8, 2.1},
                 {10, 2.2}, {12, 2.3}, {14, 2.35}, {15, 2.4}});
}

stats::Series
fig7EcperfC2cShare()
{
    return make("paper-ecperf-c2cshare",
                {{1, 0.02}, {2, 0.12}, {4, 0.25}, {6, 0.33}, {8, 0.40},
                 {10, 0.44}, {12, 0.47}, {14, 0.50}, {15, 0.50}});
}

stats::Series
fig7SpecJbbC2cShare()
{
    return make("paper-specjbb-c2cshare",
                {{1, 0.02}, {2, 0.10}, {4, 0.22}, {6, 0.30}, {8, 0.36},
                 {10, 0.41}, {12, 0.44}, {14, 0.47}, {15, 0.48}});
}

stats::Series
fig8Ecperf()
{
    return make("paper-ecperf",
                {{1, 12}, {2, 25}, {4, 38}, {6, 46}, {8, 52},
                 {10, 57}, {12, 60}, {14, 63}, {15, 64}});
}

stats::Series
fig8SpecJbb()
{
    return make("paper-specjbb",
                {{1, 10}, {2, 24}, {4, 36}, {6, 44}, {8, 50},
                 {10, 55}, {12, 58}, {14, 61}, {15, 62}});
}

stats::Series
fig11Ecperf()
{
    return make("paper-ecperf",
                {{1, 95}, {2, 130}, {4, 170}, {6, 205}, {10, 210},
                 {15, 208}, {20, 212}, {25, 210}, {30, 212},
                 {35, 210}, {40, 211}});
}

stats::Series
fig11SpecJbb()
{
    return make("paper-specjbb",
                {{1, 30}, {5, 95}, {10, 180}, {15, 260}, {20, 340},
                 {25, 420}, {30, 500}, {33, 470}, {36, 440},
                 {40, 420}});
}

stats::Series
fig12EcperfIcache()
{
    return make("paper-ecperf",
                {{64, 10.0}, {128, 5.5}, {256, 2.8}, {512, 1.2},
                 {1024, 0.5}, {2048, 0.18}, {4096, 0.06},
                 {8192, 0.02}, {16384, 0.01}});
}

stats::Series
fig12SpecJbbIcache()
{
    return make("paper-specjbb",
                {{64, 4.5}, {128, 1.8}, {256, 0.7}, {512, 0.3},
                 {1024, 0.12}, {2048, 0.05}, {4096, 0.02},
                 {8192, 0.01}, {16384, 0.005}});
}

stats::Series
fig13EcperfDcache()
{
    return make("paper-ecperf",
                {{64, 11.0}, {128, 7.0}, {256, 4.3}, {512, 2.2},
                 {1024, 1.1}, {2048, 0.7}, {4096, 0.45},
                 {8192, 0.25}, {16384, 0.15}});
}

stats::Series
fig13SpecJbb1Dcache()
{
    return make("paper-specjbb-1",
                {{64, 12.0}, {128, 7.7}, {256, 4.8}, {512, 2.5},
                 {1024, 1.25}, {2048, 0.8}, {4096, 0.5},
                 {8192, 0.3}, {16384, 0.17}});
}

stats::Series
fig13SpecJbb10Dcache()
{
    return make("paper-specjbb-10",
                {{64, 13.2}, {128, 8.6}, {256, 5.4}, {512, 2.9},
                 {1024, 1.45}, {2048, 0.95}, {4096, 0.6},
                 {8192, 0.38}, {16384, 0.24}});
}

stats::Series
fig13SpecJbb25Dcache()
{
    return make("paper-specjbb-25",
                {{64, 15.6}, {128, 10.0}, {256, 6.2}, {512, 3.3},
                 {1024, 1.63}, {2048, 1.1}, {4096, 0.72},
                 {8192, 0.48}, {16384, 0.3}});
}

stats::Series
fig14Ecperf()
{
    return make("paper-ecperf",
                {{0.001, 0.56}, {0.01, 0.66}, {0.1, 0.80},
                 {0.25, 0.90}, {0.5, 1.0}, {1.0, 1.0}});
}

stats::Series
fig14SpecJbb()
{
    return make("paper-specjbb",
                {{0.001, 0.70}, {0.01, 0.85}, {0.05, 0.94},
                 {0.12, 1.0}, {1.0, 1.0}});
}

stats::Series
fig16Ecperf()
{
    return make("paper-ecperf",
                {{1, 1.1}, {2, 0.92}, {4, 0.78}, {8, 0.66}});
}

stats::Series
fig16SpecJbb25()
{
    return make("paper-specjbb-25",
                {{1, 1.6}, {2, 2.8}, {4, 6.0}, {8, 16.0}});
}

} // namespace middlesim::core::paper
