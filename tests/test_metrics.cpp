/**
 * @file
 * Unit tests for the unified observability layer: metric registry
 * handle semantics, journal bounding, snapshots, and the
 * deterministic JSON serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/metrics.hh"

using namespace middlesim::sim;

TEST(Counter, IncrementsAndSet)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c.inc(9);
    c += 10;
    EXPECT_EQ(c.value(), 20u);
    c.set(5);
    EXPECT_EQ(c.value(), 5u);
}

TEST(Counter, ConcurrentIncrementsAreLossless)
{
    Counter c;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i)
                ++c;
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramMetric, EmptyHasNoBucketsOrSamples)
{
    HistogramMetric h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_TRUE(h.buckets().empty());
}

TEST(HistogramMetric, SingleSampleLandsInOneBucket)
{
    HistogramMetric h;
    h.add(6); // [4, 8) -> bucket 2
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 6u);
    ASSERT_EQ(h.buckets().size(), 3u);
    EXPECT_EQ(h.buckets()[0], 0u);
    EXPECT_EQ(h.buckets()[1], 0u);
    EXPECT_EQ(h.buckets()[2], 1u);
}

TEST(HistogramMetric, ZeroAndOneShareBucketZero)
{
    HistogramMetric h;
    h.add(0);
    h.add(1);
    ASSERT_EQ(h.buckets().size(), 1u);
    EXPECT_EQ(h.buckets()[0], 2u);
}

TEST(HistogramMetric, HugeSampleGetsTopBucketWithoutOverflow)
{
    HistogramMetric h;
    const std::uint64_t huge = ~0ULL; // 2^64 - 1 -> bucket 63
    h.add(huge);
    ASSERT_EQ(h.buckets().size(), 64u);
    EXPECT_EQ(h.buckets()[63], 1u);
    EXPECT_EQ(h.sum(), huge);
}

TEST(HistogramMetric, WeightedAddAndReset)
{
    HistogramMetric h;
    h.add(3, 5);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 15u);
    ASSERT_EQ(h.buckets().size(), 2u);
    EXPECT_EQ(h.buckets()[1], 5u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_TRUE(h.buckets().empty());
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

TEST(MetricRegistry, HandlesAreIdempotent)
{
    MetricRegistry reg;
    Counter &a = reg.counter("mem.misses");
    Counter &b = reg.counter("mem.misses");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.size(), 1u);
    reg.gauge("sys.cpi");
    reg.histogram("jvm.gc.pause");
    reg.series("sys.heap", 1000);
    EXPECT_EQ(reg.size(), 4u);
}

TEST(MetricRegistry, NameCollisionAcrossKindsIsFatal)
{
    MetricRegistry reg;
    reg.counter("mem.misses");
    EXPECT_EXIT(reg.gauge("mem.misses"),
                ::testing::ExitedWithCode(1), "mem.misses");
}

TEST(MetricRegistry, HandlesSurviveRegistryGrowth)
{
    MetricRegistry reg;
    Counter &first = reg.counter("c.0");
    for (int i = 1; i < 200; ++i)
        reg.counter("c." + std::to_string(i));
    ++first;
    EXPECT_EQ(reg.counter("c.0").value(), 1u);
}

TEST(MetricRegistry, SnapshotFreezesAllKinds)
{
    MetricRegistry reg;
    reg.counter("a.count").inc(7);
    reg.gauge("a.level").set(2.5);
    reg.histogram("a.dist").add(4);
    reg.series("a.wave", 500).push(1.0);
    reg.journal().record(42, "phase", "warm");

    const MetricSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("a.count"), 7u);
    EXPECT_EQ(snap.gauges.at("a.level"), 2.5);
    EXPECT_EQ(snap.histograms.at("a.dist").count, 1u);
    EXPECT_EQ(snap.series.at("a.wave").period, 500);
    ASSERT_EQ(snap.events.size(), 1u);
    EXPECT_EQ(snap.events[0].type, "phase");

    reg.reset();
    const MetricSnapshot zero = reg.snapshot();
    EXPECT_EQ(zero.counters.at("a.count"), 0u);
    EXPECT_EQ(zero.gauges.at("a.level"), 0.0);
    EXPECT_EQ(zero.histograms.at("a.dist").count, 0u);
    EXPECT_TRUE(zero.series.at("a.wave").values.empty());
    EXPECT_TRUE(zero.events.empty());
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
        MetricRegistry reg;
        // Register in scrambled order; output must still be sorted.
        reg.counter("z.last").inc(2);
        reg.counter("a.first").inc(1);
        reg.gauge("m.mid").set(0.125);
        reg.histogram("h.dist").add(17);
        reg.series("t.line", 250).push(3.5);
        reg.journal().record(9, "evt", "x=\"1\"");
        return reg.snapshot();
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
