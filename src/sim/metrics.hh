/**
 * @file
 * Observability data: the metric snapshot, the event journal and the
 * power-of-two histogram.
 *
 * Each layer counts in plain fields of its own stats records (CPU
 * cores, cache hierarchy, directory, scheduler, JVM/GC/TLAB, workload
 * models), zeroed when the measured interval starts
 * (System::beginMeasurement(), core::measure()); a System runs on one
 * thread, so no count is atomic. core::collectMetrics() reads them
 * once, after the measured interval, into a MetricSnapshot under
 * hierarchical dotted names ("mem.coherence.invalidations"): a
 * sorted, plain-data view serialized to the stable metrics JSON
 * schema (see EXPERIMENTS.md). Because each parallel grid point
 * builds its own System and snapshots are taken before results are
 * handed back, serialized output is byte-identical for any --jobs
 * count.
 */

#ifndef SIM_METRICS_HH
#define SIM_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace middlesim::sim
{

/**
 * Power-of-two bucketed sample distribution (bucket k holds values in
 * [2^k, 2^(k+1)); bucket 0 holds 0 and 1).
 */
struct HistogramMetric
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buckets;

    void add(std::uint64_t x, std::uint64_t weight = 1);
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
 * Frozen, plain-data view of one System's metrics: sorted by name,
 * serializable. This is what travels from a grid-point simulation
 * back to the runner thread.
 */
struct MetricSnapshot
{
    /** Values sampled once per `period` ticks. */
    struct SeriesData
    {
        Tick period = 0;
        std::vector<double> values;
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramMetric> histograms;
    std::map<std::string, SeriesData> series;
    std::vector<EventJournal::Event> events;
    std::uint64_t eventsDropped = 0;

    /** Field list (sim/serialize.hh) of the cached payloads' snapshot. */
    template <typename S, typename Self>
    static void
    fields(S &s, Self &m)
    {
        s.map(m.counters, [](auto &s, auto &v) { s.u64(v); });
        s.map(m.gauges, [](auto &s, auto &v) { s.f64(v); });
        s.map(m.histograms, [](auto &s, auto &h) {
            s.u64(h.count);
            s.u64(h.sum);
            s.vecU64(h.buckets);
        });
        s.map(m.series, [](auto &s, auto &d) {
            s.u64(d.period);
            s.vecF64(d.values);
        });
        s.records(m.events, [](auto &s, auto &e) {
            s.u64(e.tick);
            s.str(e.type);
            s.str(e.detail);
        });
        s.u64(m.eventsDropped);
    }

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

} // namespace middlesim::sim

#endif // SIM_METRICS_HH
