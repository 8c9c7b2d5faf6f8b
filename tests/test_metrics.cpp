/**
 * @file
 * Unit tests for the observability data: histogram bucketing, journal
 * bounding, and the deterministic JSON serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "sim/metrics.hh"

using namespace middlesim::sim;

TEST(HistogramMetric, EmptyHasNoBucketsOrSamples)
{
    HistogramMetric h;
    EXPECT_EQ(h.count, 0u);
    EXPECT_EQ(h.sum, 0u);
    EXPECT_TRUE(h.buckets.empty());
}

TEST(HistogramMetric, SingleSampleLandsInOneBucket)
{
    HistogramMetric h;
    h.add(6); // [4, 8) -> bucket 2
    EXPECT_EQ(h.count, 1u);
    EXPECT_EQ(h.sum, 6u);
    ASSERT_EQ(h.buckets.size(), 3u);
    EXPECT_EQ(h.buckets[0], 0u);
    EXPECT_EQ(h.buckets[1], 0u);
    EXPECT_EQ(h.buckets[2], 1u);
}

TEST(HistogramMetric, ZeroAndOneShareBucketZero)
{
    HistogramMetric h;
    h.add(0);
    h.add(1);
    ASSERT_EQ(h.buckets.size(), 1u);
    EXPECT_EQ(h.buckets[0], 2u);
}

TEST(HistogramMetric, HugeSampleGetsTopBucketWithoutOverflow)
{
    HistogramMetric h;
    const std::uint64_t huge = ~0ULL; // 2^64 - 1 -> bucket 63
    h.add(huge);
    ASSERT_EQ(h.buckets.size(), 64u);
    EXPECT_EQ(h.buckets[63], 1u);
    EXPECT_EQ(h.sum, huge);
}

TEST(HistogramMetric, WeightedAddAndReset)
{
    HistogramMetric h;
    h.add(3, 5);
    EXPECT_EQ(h.count, 5u);
    EXPECT_EQ(h.sum, 15u);
    ASSERT_EQ(h.buckets.size(), 2u);
    EXPECT_EQ(h.buckets[1], 5u);
    // Jvm::resetStats() resets the pause histogram by assigning a
    // fresh record.
    h = HistogramMetric();
    EXPECT_EQ(h.count, 0u);
    EXPECT_EQ(h.sum, 0u);
    EXPECT_TRUE(h.buckets.empty());
}

TEST(EventJournal, CapsRetainedEventsAndCountsDrops)
{
    EventJournal j(3);
    for (int i = 0; i < 5; ++i)
        j.record(i * 100, "tick", std::to_string(i));
    ASSERT_EQ(j.events().size(), 3u);
    EXPECT_EQ(j.dropped(), 2u);
    EXPECT_EQ(j.events()[0].detail, "0");
    EXPECT_EQ(j.events()[2].detail, "2");
    j.reset();
    EXPECT_TRUE(j.events().empty());
    EXPECT_EQ(j.dropped(), 0u);
}

TEST(MetricsJson, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(MetricsJson, FormatDoubleRoundTrips)
{
    const double cases[] = {0.0,     1.0,        -1.5,     0.1,
                            1.0 / 3, 1e-12,      3.25e17,  42.0,
                            2.5,     0.30000001, 123456.75};
    for (double v : cases) {
        const std::string s = formatDouble(v);
        double back = 0.0;
        ASSERT_EQ(std::sscanf(s.c_str(), "%lf", &back), 1) << s;
        EXPECT_EQ(back, v) << "formatDouble(" << v << ") = " << s;
    }
}

TEST(MetricsJson, SerializationIsDeterministic)
{
    auto build = [] {
        MetricSnapshot snap;
        // Insert in scrambled order; output must still be sorted.
        snap.counters["z.last"] = 2;
        snap.counters["a.first"] = 1;
        snap.gauges["m.mid"] = 0.125;
        snap.histograms["h.dist"].add(17);
        snap.series["t.line"] = {250, {3.5}};
        EventJournal journal;
        journal.record(9, "evt", "x=\"1\"");
        snap.events = journal.events();
        return snap;
    };
    std::ostringstream s1, s2;
    build().writeJson(s1, 2);
    build().writeJson(s2, 2);
    EXPECT_EQ(s1.str(), s2.str());
    // Sorted keys: "a.first" precedes "z.last" in the emitted text.
    const std::string text = s1.str();
    EXPECT_LT(text.find("a.first"), text.find("z.last"));
    EXPECT_NE(text.find("\\\"1\\\""), std::string::npos);
}
