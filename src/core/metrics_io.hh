/**
 * @file
 * Metrics export: snapshot-time aggregation and the versioned
 * metrics JSON document.
 *
 * collectMetrics() reads every layer's plain counts once, after the
 * measured interval (CPI stall buckets, execution modes, scheduler,
 * cache/coherence/directory/bus counters, region miss attribution,
 * allocation and GC, workload transactions), together with the
 * System's sampled series and event journal, into one
 * MetricSnapshot. Figure harnesses attach one snapshot per (spec,
 * seed) grid point under a canonical point name; writeMetricsJson()
 * serializes the whole set as one schema-versioned document. All
 * maps are sorted and all numbers deterministically formatted, so
 * the document is byte-identical for any --jobs count.
 */

#ifndef CORE_METRICS_IO_HH
#define CORE_METRICS_IO_HH

#include <map>
#include <ostream>
#include <string>

#include "core/experiment.hh"
#include "sim/metrics.hh"

namespace middlesim::core
{

/** Schema identifier embedded in every metrics document. */
inline constexpr const char *metricsSchemaVersion =
    "middlesim-metrics-v1";

/**
 * Canonical name of a grid point: workload, machine shape, scale and
 * seed — unique per (spec, seed).
 */
std::string pointName(const ExperimentSpec &spec);

/**
 * The metric snapshot of `system`'s measured interval. Call after the
 * interval; every count was zeroed by System::beginMeasurement().
 */
sim::MetricSnapshot collectMetrics(System &system,
                                   const ExperimentSpec &spec,
                                   const BuiltWorkload &workload);

/** Named grid-point snapshots of one figure run (sorted by name). */
using MetricsMap = std::map<std::string, sim::MetricSnapshot>;

/**
 * Serialize `points` as the versioned metrics document:
 *   {"schema": ..., "figure": <id>, "points": {<name>: <snapshot>}}
 */
void writeMetricsJson(std::ostream &os, const std::string &figure,
                      const MetricsMap &points);

} // namespace middlesim::core

#endif // CORE_METRICS_IO_HH
