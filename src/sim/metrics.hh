/**
 * @file
 * Unified observability: the metric registry, the event journal, and
 * periodic time-series sampling.
 *
 * Every simulated System owns one MetricRegistry; each layer (CPU
 * cores, store buffer, cache hierarchy, bus/coherence, scheduler,
 * JVM/GC/TLAB, workload models) registers hierarchical dotted names
 * ("mem.coherence.invalidations") and keeps the returned handle for
 * hot-path increments. Counters are relaxed atomics, so an increment
 * costs one uncontended atomic add; everything else (gauges,
 * histograms, series, the journal) is written on cold paths only.
 *
 * A snapshot() freezes the registry into a MetricSnapshot — a sorted,
 * plain-data view serialized to the stable metrics JSON schema (see
 * EXPERIMENTS.md). Because each parallel grid point owns its private
 * registry and snapshots are taken before results are handed back,
 * serialized output is byte-identical for any --jobs count.
 */

#ifndef SIM_METRICS_HH
#define SIM_METRICS_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace middlesim::sim
{

/** Monotonic event count; hot-path increments are relaxed atomics. */
class Counter
{
  public:
    void
    inc(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    Counter &
    operator++()
    {
        inc();
        return *this;
    }

    Counter &
    operator+=(std::uint64_t delta)
    {
        inc(delta);
        return *this;
    }

    /** Overwrite (snapshot-time export of an externally kept total). */
    void
    set(std::uint64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Point-in-time level (occupancy, rate, ratio). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Power-of-two bucketed sample distribution (bucket k holds values in
 * [2^k, 2^(k+1)); bucket 0 holds 0 and 1). Single-writer: histograms
 * belong to one simulated System and are not written concurrently.
 */
class HistogramMetric
{
  public:
    void add(std::uint64_t x, std::uint64_t weight = 1);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    void reset();

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Fixed-period sampled values (one per `period` ticks). The System
 * drives sampling on window boundaries; probes are deterministic
 * functions of simulation state, so the series is reproducible.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(Tick period = 0) : period_(period) {}

    void push(double v) { values_.push_back(v); }

    Tick period() const { return period_; }
    const std::vector<double> &values() const { return values_; }

    void reset() { values_.clear(); }

  private:
    Tick period_;
    std::vector<double> values_;
};

/**
 * Phase-annotated event journal: GC/safepoint windows, scheduler
 * migrations, workload phase transitions. Bounded: once `capacity`
 * events are retained further records only bump the dropped count,
 * so hot paths may journal freely.
 */
class EventJournal
{
  public:
    struct Event
    {
        Tick tick = 0;
        std::string type;
        std::string detail;
    };

    explicit EventJournal(std::size_t capacity = 4096)
        : capacity_(capacity)
    {
    }

    void record(Tick tick, std::string type, std::string detail = "");

    const std::vector<Event> &events() const { return events_; }
    std::uint64_t dropped() const { return dropped_; }

    void reset();

  private:
    std::size_t capacity_;
    std::vector<Event> events_;
    std::uint64_t dropped_ = 0;
};

/**
 * Frozen, plain-data view of a registry: sorted by name,
 * serializable. This is what travels from a grid-point simulation
 * back to the runner thread.
 */
struct MetricSnapshot
{
    struct HistogramData
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::vector<std::uint64_t> buckets;
    };

    struct SeriesData
    {
        Tick period = 0;
        std::vector<double> values;
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;
    std::map<std::string, SeriesData> series;
    std::vector<EventJournal::Event> events;
    std::uint64_t eventsDropped = 0;

    /**
     * Append this snapshot as a JSON object (stable field order,
     * deterministic number formatting). `indent` spaces prefix every
     * emitted line.
     */
    void writeJson(std::ostream &os, int indent = 0) const;
};

/** Deterministic shortest-round-trip formatting of a double. */
std::string formatDouble(double v);

/** JSON string escaping (control characters, quotes, backslash). */
std::string jsonEscape(const std::string &s);

/**
 * The per-System registry. Handle getters are idempotent: asking for
 * an existing name returns the same handle (so independent layers may
 * share a metric); re-registering a name as a different kind is a
 * fatal configuration error. Handles stay valid for the registry's
 * lifetime (deque storage).
 */
class MetricRegistry
{
  public:
    explicit MetricRegistry(std::size_t journal_capacity = 4096)
        : journal_(journal_capacity)
    {
    }

    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    HistogramMetric &histogram(const std::string &name);
    TimeSeries &series(const std::string &name, Tick period);

    EventJournal &journal() { return journal_; }
    const EventJournal &journal() const { return journal_; }

    /** Number of registered metrics (all kinds, journal excluded). */
    std::size_t size() const { return kinds_.size(); }

    MetricSnapshot snapshot() const;

    /** Zero every metric and clear the journal (measurement start). */
    void reset();

  private:
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram,
        Series,
    };

    /** Find-or-create the slot for (name, kind); fatal on kind clash. */
    std::size_t slotFor(const std::string &name, Kind kind);

    std::map<std::string, std::pair<Kind, std::size_t>> kinds_;
    std::deque<Counter> counters_;
    std::deque<Gauge> gauges_;
    std::deque<HistogramMetric> histograms_;
    std::deque<TimeSeries> series_;
    /** name of each slot, per kind, in creation order. */
    std::vector<std::string> counterNames_;
    std::vector<std::string> gaugeNames_;
    std::vector<std::string> histogramNames_;
    std::vector<std::string> seriesNames_;
    EventJournal journal_;
};

} // namespace middlesim::sim

#endif // SIM_METRICS_HH
