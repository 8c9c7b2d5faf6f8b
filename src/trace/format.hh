/**
 * @file
 * The `middlesim-trace-v3` binary reference-trace format.
 *
 * A trace file is the middlesim analogue of the paper's Simics->Sumo
 * hand-off: the complete interleaved per-CPU reference stream of one
 * execution-driven run (application, JVM, GC and OS activity alike),
 * recorded once and replayable against any memory hierarchy.
 *
 * Layout (all multi-byte scalars little-endian via sim/serialize.hh):
 *
 *   header:
 *     str   magic                "middlesim-trace-v3"
 *           TraceHeader::fields  spec key, label, CPU topology, caches,
 *                                latencies, intervals and regions
 *
 *   records (the checksummed region), one tag byte each:
 *     ref:        tag 0x00-0x7f = (type << 4) | min(cpu, 15)
 *                 [varint cpu, iff the low nibble is 15]
 *                 zigzag-varint addr delta  (per-CPU previous addr)
 *                 zigzag-varint tick delta  (per-CPU previous tick)
 *     annotation: tag 0x80 | kind   (kind < numTraceAnnotations)
 *                 varint cpu
 *                 zigzag-varint tick delta  (previous annotation tick)
 *                 varint arg
 *
 *   footer:
 *     u8 0xff, u64 refCount, u64 annotationCount,
 *     u64 fnv1a64(all bytes before the footer tag: header + records)
 *
 * Per-CPU delta state starts at (addr 0, tick 0); the annotation tick
 * delta chain starts at 0. Readers must treat any unknown tag, any
 * over-long varint, any truncation and any checksum or count mismatch
 * as a hard, loudly-reported error — never as data.
 */

#ifndef TRACE_FORMAT_HH
#define TRACE_FORMAT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/latency.hh"
#include "sim/config.hh"
#include "sim/ticks.hh"

namespace middlesim::trace
{

/** Format identifier; bump on any layout change. */
inline constexpr const char *traceMagic = "middlesim-trace-v3";

/** File extension used for content-addressed trace artifacts. */
inline constexpr const char *traceFileExt = ".mst";

/** Tag constants (see file comment). */
inline constexpr std::uint8_t tagAnnotationBase = 0x80;
inline constexpr std::uint8_t tagFooter = 0xff;
/** Low-nibble escape: explicit varint CPU follows the ref tag. */
inline constexpr unsigned refCpuEscape = 15;

/** A named address range, mirrored from Hierarchy::defineRegion. */
struct TraceRegion
{
    std::string name;
    std::uint64_t base = 0;
    std::uint64_t bytes = 0;
};

/** Decoded trace header: everything needed to rebuild the hierarchy. */
struct TraceHeader
{
    /** core::encodeSpecKey of the recorded run ("" if none). */
    std::string specKey;
    /** Human-readable point name (core::pointName). */
    std::string label;

    unsigned totalCpus = 1;
    unsigned appCpus = 1;
    unsigned cpusPerL2 = 1;
    sim::CoherenceProtocol protocol = sim::CoherenceProtocol::SnoopBus;
    unsigned numaNodes = 1;
    sim::Topology topology = sim::Topology::Ring;
    unsigned dirOccupancy = 0;
    sim::CacheParams l1i{16 * 1024, 4, 64};
    sim::CacheParams l1d{16 * 1024, 4, 64};
    sim::CacheParams l2{1u << 20, 4, 64};
    mem::LatencyModel latency;
    bool busContention = true;
    bool trackCommunication = false;

    std::uint64_t seed = 0;
    sim::Tick warmupTicks = 0;
    sim::Tick measureTicks = 0;

    std::vector<TraceRegion> regions;

    /** Field list (sim/serialize.hh): the header after the magic. */
    template <typename S, typename Self>
    static void
    fields(S &s, Self &h)
    {
        s.str(h.specKey);
        s.str(h.label);
        s.u32(h.totalCpus);
        s.u32(h.appCpus);
        s.u32(h.cpusPerL2);
        s.u8(h.protocol);
        s.u32(h.numaNodes);
        s.u8(h.topology);
        s.u32(h.dirOccupancy);
        s.record(h.l1i);
        s.record(h.l1d);
        s.record(h.l2);
        s.record(h.latency);
        s.u8(h.busContention);
        s.u8(h.trackCommunication);
        s.u64(h.seed);
        s.u64(h.warmupTicks);
        s.u64(h.measureTicks);
        s.records(h.regions, [](auto &s, auto &region) {
            s.str(region.name);
            s.u64(region.base);
            s.u64(region.bytes);
        });
    }

    /** The machine configuration this header describes. */
    sim::MachineConfig
    machine() const
    {
        sim::MachineConfig m;
        m.totalCpus = totalCpus;
        m.appCpus = appCpus;
        m.cpusPerL2 = cpusPerL2;
        m.protocol = protocol;
        m.numaNodes = numaNodes;
        m.topology = topology;
        m.dirOccupancy = dirOccupancy;
        m.l1i = l1i;
        m.l1d = l1d;
        m.l2 = l2;
        return m;
    }
};

} // namespace middlesim::trace

#endif // TRACE_FORMAT_HH
