#include "sim/metrics.hh"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "sim/log.hh"

namespace middlesim::sim
{

void
HistogramMetric::add(std::uint64_t x, std::uint64_t weight)
{
    const unsigned bucket =
        x < 2 ? 0 : static_cast<unsigned>(std::bit_width(x)) - 1;
    if (bucket >= buckets_.size())
        buckets_.resize(bucket + 1, 0);
    buckets_[bucket] += weight;
    count_ += weight;
    sum_ += x * weight;
}

void
HistogramMetric::reset()
{
    buckets_.clear();
    count_ = 0;
    sum_ = 0;
}

void
EventJournal::record(Tick tick, std::string type, std::string detail)
{
    if (events_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    events_.push_back({tick, std::move(type), std::move(detail)});
}

void
EventJournal::reset()
{
    events_.clear();
    dropped_ = 0;
}

std::string
formatDouble(double v)
{
    // Shortest representation that round-trips, searched over
    // increasing precision; deterministic for a given value.
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(buf, "%lf", &back);
        if (back == v)
            break;
    }
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

namespace
{

std::string
pad(int indent)
{
    return std::string(static_cast<std::size_t>(indent), ' ');
}

template <typename Map, typename Fn>
void
writeMap(std::ostream &os, const std::string &key, const Map &map,
         int indent, bool trailing_comma, Fn &&write_value)
{
    const std::string p = pad(indent);
    os << p << '"' << key << "\": {";
    bool first = true;
    for (const auto &[name, value] : map) {
        os << (first ? "\n" : ",\n") << p << "  \""
           << jsonEscape(name) << "\": ";
        write_value(value);
        first = false;
    }
    if (!first)
        os << '\n' << p;
    os << '}' << (trailing_comma ? "," : "") << '\n';
}

} // namespace

void
MetricSnapshot::writeJson(std::ostream &os, int indent) const
{
    const std::string p = pad(indent);
    os << p << "{\n";
    writeMap(os, "counters", counters, indent + 2, true,
             [&](std::uint64_t v) { os << v; });
    writeMap(os, "gauges", gauges, indent + 2, true,
             [&](double v) { os << formatDouble(v); });
    writeMap(os, "histograms", histograms, indent + 2, true,
             [&](const HistogramData &h) {
                 os << "{\"count\": " << h.count << ", \"sum\": "
                    << h.sum << ", \"buckets\": [";
                 for (std::size_t b = 0; b < h.buckets.size(); ++b)
                     os << (b ? ", " : "") << h.buckets[b];
                 os << "]}";
             });
    writeMap(os, "series", series, indent + 2, true,
             [&](const SeriesData &s) {
                 os << "{\"period\": " << s.period
                    << ", \"values\": [";
                 for (std::size_t i = 0; i < s.values.size(); ++i) {
                     os << (i ? ", " : "")
                        << formatDouble(s.values[i]);
                 }
                 os << "]}";
             });
    os << p << "  \"events_dropped\": " << eventsDropped << ",\n";
    os << p << "  \"events\": [";
    for (std::size_t i = 0; i < events.size(); ++i) {
        os << (i ? ",\n" : "\n") << p << "    {\"t\": "
           << events[i].tick << ", \"type\": \""
           << jsonEscape(events[i].type) << '"';
        if (!events[i].detail.empty()) {
            os << ", \"detail\": \"" << jsonEscape(events[i].detail)
               << '"';
        }
        os << '}';
    }
    if (!events.empty())
        os << '\n' << p << "  ";
    os << "]\n" << p << "}";
}

std::size_t
MetricRegistry::slotFor(const std::string &name, Kind kind)
{
    auto it = kinds_.find(name);
    if (it != kinds_.end()) {
        if (it->second.first != kind) {
            fatal("metric '", name,
                  "' re-registered as a different kind");
        }
        return it->second.second;
    }
    std::size_t slot = 0;
    switch (kind) {
      case Kind::Counter:
        slot = counters_.size();
        counters_.emplace_back();
        counterNames_.push_back(name);
        break;
      case Kind::Gauge:
        slot = gauges_.size();
        gauges_.emplace_back();
        gaugeNames_.push_back(name);
        break;
      case Kind::Histogram:
        slot = histograms_.size();
        histograms_.emplace_back();
        histogramNames_.push_back(name);
        break;
      case Kind::Series:
        // period is patched by series(); slot creation only here.
        slot = series_.size();
        series_.emplace_back();
        seriesNames_.push_back(name);
        break;
    }
    kinds_.emplace(name, std::make_pair(kind, slot));
    return slot;
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    return counters_[slotFor(name, Kind::Counter)];
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    return gauges_[slotFor(name, Kind::Gauge)];
}

HistogramMetric &
MetricRegistry::histogram(const std::string &name)
{
    return histograms_[slotFor(name, Kind::Histogram)];
}

TimeSeries &
MetricRegistry::series(const std::string &name, Tick period)
{
    const bool fresh = kinds_.find(name) == kinds_.end();
    TimeSeries &s = series_[slotFor(name, Kind::Series)];
    if (fresh)
        s = TimeSeries(period);
    return s;
}

MetricSnapshot
MetricRegistry::snapshot() const
{
    MetricSnapshot snap;
    for (std::size_t i = 0; i < counters_.size(); ++i)
        snap.counters[counterNames_[i]] = counters_[i].value();
    for (std::size_t i = 0; i < gauges_.size(); ++i)
        snap.gauges[gaugeNames_[i]] = gauges_[i].value();
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
        MetricSnapshot::HistogramData h;
        h.count = histograms_[i].count();
        h.sum = histograms_[i].sum();
        h.buckets = histograms_[i].buckets();
        snap.histograms[histogramNames_[i]] = std::move(h);
    }
    for (std::size_t i = 0; i < series_.size(); ++i) {
        MetricSnapshot::SeriesData s;
        s.period = series_[i].period();
        s.values = series_[i].values();
        snap.series[seriesNames_[i]] = std::move(s);
    }
    snap.events = journal_.events();
    snap.eventsDropped = journal_.dropped();
    return snap;
}

void
MetricRegistry::reset()
{
    for (auto &c : counters_)
        c.set(0);
    for (auto &g : gauges_)
        g.set(0.0);
    for (auto &h : histograms_)
        h.reset();
    for (auto &s : series_)
        s.reset();
    journal_.reset();
}

} // namespace middlesim::sim
