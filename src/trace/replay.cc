#include "trace/replay.hh"

namespace middlesim::trace
{

std::unique_ptr<mem::Hierarchy>
hierarchyFor(const TraceHeader &header, const ReplayOverrides &overrides)
{
    sim::MachineConfig machine = header.machine();
    if (overrides.l2SizeBytes != 0)
        machine.l2.sizeBytes = overrides.l2SizeBytes;
    if (overrides.cpusPerL2 != 0)
        machine.cpusPerL2 = overrides.cpusPerL2;
    machine.validate();

    auto hierarchy = std::make_unique<mem::Hierarchy>(
        machine, header.latency, header.busContention);
    if (header.trackCommunication)
        hierarchy->setCommunicationTracking(true);
    for (const TraceRegion &region : header.regions)
        hierarchy->defineRegion(region.name, region.base, region.bytes);
    return hierarchy;
}

ReplayCounts
replayTrace(TraceReader &reader, mem::Hierarchy *hierarchy,
            mem::SweepSimulator *sweep)
{
    ReplayCounts counts;
    TraceRecord rec;
    while (reader.next(rec)) {
        counts.lastTick = rec.tick;
        if (rec.isRef) {
            ++counts.refs;
            if (hierarchy)
                hierarchy->access(rec.ref, rec.tick);
            if (sweep)
                sweep->access(rec.ref);
            continue;
        }
        ++counts.annotations;
        switch (rec.kind) {
          case mem::TraceAnnotation::MeasureBegin:
            counts.sawMeasureBegin = true;
            counts.measureTick = rec.tick;
            break;
          case mem::TraceAnnotation::StatsReset:
            // The execution-driven runs reset the sweep counters
            // adjacent to beginMeasurement()'s hierarchy stat reset
            // (no references in between), so one annotation serves
            // both frontends.
            if (hierarchy)
                hierarchy->resetStats();
            if (sweep)
                sweep->resetCounters();
            break;
          case mem::TraceAnnotation::RegionStatsReset:
            if (hierarchy)
                hierarchy->resetRegionStats();
            break;
          case mem::TraceAnnotation::CommTrackReset:
            if (hierarchy)
                hierarchy->resetCommunicationTracking();
            break;
          case mem::TraceAnnotation::InvalidateAll:
            if (hierarchy)
                hierarchy->invalidateAll();
            break;
          case mem::TraceAnnotation::Instructions:
            counts.instructions += rec.arg;
            if (sweep)
                sweep->countInstructions(rec.arg);
            break;
          default:
            // GC windows, mode switches, migrations and transaction
            // boundaries are timeline metadata: they do not affect
            // memory-system state.
            break;
        }
    }
    return counts;
}

} // namespace middlesim::trace
