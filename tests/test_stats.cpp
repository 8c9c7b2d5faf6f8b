/**
 * @file
 * Unit tests for the statistics toolkit.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/distribution.hh"
#include "stats/series.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace middlesim::stats;

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, MeanAndVariance)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic data set is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStat, SingleSampleHasZeroVariance)
{
    RunningStat s;
    s.add(3.5);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(ConcentrationCurve, Shares)
{
    // Counts 50, 30, 15, 5 (total 100).
    ConcentrationCurve c({5, 50, 15, 30});
    EXPECT_EQ(c.total(), 100u);
    EXPECT_EQ(c.numKeys(), 4u);
    EXPECT_DOUBLE_EQ(c.maxShare(), 0.50);
    EXPECT_DOUBLE_EQ(c.shareOfTopK(2), 0.80);
    EXPECT_DOUBLE_EQ(c.shareOfTopK(4), 1.0);
    EXPECT_DOUBLE_EQ(c.shareOfTopK(100), 1.0);
    EXPECT_EQ(c.shareOfTopK(0), 0.0);
}

TEST(ConcentrationCurve, KeysForShare)
{
    ConcentrationCurve c({50, 30, 15, 5});
    EXPECT_EQ(c.keysForShare(0.5), 1u);
    EXPECT_EQ(c.keysForShare(0.51), 2u);
    EXPECT_EQ(c.keysForShare(0.8), 2u);
    EXPECT_EQ(c.keysForShare(1.0), 4u);
}

TEST(ConcentrationCurve, SingleKeyOwnsEverything)
{
    ConcentrationCurve c({42});
    EXPECT_DOUBLE_EQ(c.maxShare(), 1.0);
    EXPECT_EQ(c.keysForShare(0.01), 1u);
    EXPECT_EQ(c.keysForShare(1.0), 1u);
}

TEST(KeyCounts, AddAndConcentrate)
{
    KeyCounts k;
    for (int i = 0; i < 10; ++i)
        k.add(0x1000);
    k.add(0x2000, 5);
    EXPECT_EQ(k.numKeys(), 2u);
    EXPECT_EQ(k.total(), 15u);
    using Item = std::pair<std::uint64_t, std::uint64_t>;
    EXPECT_EQ(k.sortedItems(),
              (std::vector<Item>{{0x1000, 10}, {0x2000, 5}}));
    const auto curve = k.concentration();
    EXPECT_DOUBLE_EQ(curve.maxShare(), 10.0 / 15.0);
}

TEST(Series, Access)
{
    Series s("x");
    s.add(1, 10);
    s.add(2, 30);
    s.add(3, 20);
    EXPECT_DOUBLE_EQ(s.yAt(2), 30.0);
    EXPECT_DOUBLE_EQ(s.yAt(99, -1.0), -1.0);
    EXPECT_DOUBLE_EQ(s.maxY(), 30.0);
}

TEST(Table, PrintAlignsColumns)
{
    Table t({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream os;
    t.print(os);
    EXPECT_EQ(os.str(), "  a  bb\n"
                        "-------\n"
                        "  1   2\n"
                        "333   4\n");
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, NumFormat)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}
