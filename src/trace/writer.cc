#include "trace/writer.hh"

#include <cstdio>

#include "sim/log.hh"

namespace middlesim::trace
{

namespace
{

/** Flush threshold of file-backed recording (bytes). */
constexpr std::size_t flushBytes = 4u << 20;

void
encodeCacheParams(sim::ByteWriter &w, const sim::CacheParams &p)
{
    w.u64(p.sizeBytes);
    w.u32(p.assoc);
    w.u32(p.blockBytes);
}

bool
decodeCacheParams(sim::ByteReader &r, sim::CacheParams &p)
{
    p.sizeBytes = r.u64();
    p.assoc = r.u32();
    p.blockBytes = r.u32();
    return r.ok() && p.blockBytes != 0 && p.assoc != 0 &&
           (p.blockBytes & (p.blockBytes - 1)) == 0 &&
           p.sizeBytes % (static_cast<std::uint64_t>(p.blockBytes) *
                          p.assoc) == 0 &&
           p.numSets() != 0;
}

} // namespace

void
encodeHeader(sim::ByteWriter &w, const TraceHeader &h)
{
    w.str(traceMagic);
    w.str(h.specKey);
    w.str(h.label);
    w.u32(h.totalCpus);
    w.u32(h.appCpus);
    w.u32(h.cpusPerL2);
    w.u8(static_cast<std::uint8_t>(h.protocol));
    w.u32(h.numaNodes);
    w.u8(static_cast<std::uint8_t>(h.topology));
    w.u32(h.dirOccupancy);
    encodeCacheParams(w, h.l1i);
    encodeCacheParams(w, h.l1d);
    encodeCacheParams(w, h.l2);
    w.u64(h.latency.l1Hit);
    w.u64(h.latency.l2Hit);
    w.u64(h.latency.memory);
    w.u64(h.latency.cacheToCache);
    w.u64(h.latency.upgrade);
    w.u64(h.latency.busOccupancy);
    w.u64(h.latency.busAddrOccupancy);
    w.u64(h.latency.hop);
    w.u64(h.latency.directoryLookup);
    w.u8(h.busContention ? 1 : 0);
    w.u8(h.trackCommunication ? 1 : 0);
    w.u64(h.seed);
    w.u64(h.warmupTicks);
    w.u64(h.measureTicks);
    w.u64(h.regions.size());
    for (const TraceRegion &region : h.regions) {
        w.str(region.name);
        w.u64(region.base);
        w.u64(region.bytes);
    }
}

bool
decodeHeader(sim::ByteReader &r, TraceHeader &out, std::string &err)
{
    const std::string magic = r.str();
    if (!r.ok() || magic != traceMagic) {
        err = r.ok() ? "bad magic '" + magic + "' (want '" +
                           std::string(traceMagic) + "')"
                     : "truncated magic";
        return false;
    }
    TraceHeader h;
    h.specKey = r.str();
    h.label = r.str();
    h.totalCpus = r.u32();
    h.appCpus = r.u32();
    h.cpusPerL2 = r.u32();
    const std::uint8_t protocol_raw = r.u8();
    h.protocol = static_cast<sim::CoherenceProtocol>(protocol_raw);
    h.numaNodes = r.u32();
    const std::uint8_t topology_raw = r.u8();
    h.topology = static_cast<sim::Topology>(topology_raw);
    h.dirOccupancy = r.u32();
    bool caches_ok = decodeCacheParams(r, h.l1i);
    caches_ok = decodeCacheParams(r, h.l1d) && caches_ok;
    caches_ok = decodeCacheParams(r, h.l2) && caches_ok;
    h.latency.l1Hit = r.u64();
    h.latency.l2Hit = r.u64();
    h.latency.memory = r.u64();
    h.latency.cacheToCache = r.u64();
    h.latency.upgrade = r.u64();
    h.latency.busOccupancy = r.u64();
    h.latency.busAddrOccupancy = r.u64();
    h.latency.hop = r.u64();
    h.latency.directoryLookup = r.u64();
    h.busContention = r.u8() != 0;
    h.trackCommunication = r.u8() != 0;
    h.seed = r.u64();
    h.warmupTicks = r.u64();
    h.measureTicks = r.u64();
    const std::uint64_t nregions = r.u64();
    if (r.ok() && nregions > r.remaining() / 24) {
        err = "implausible region count";
        return false;
    }
    for (std::uint64_t i = 0; r.ok() && i < nregions; ++i) {
        TraceRegion region;
        region.name = r.str();
        region.base = r.u64();
        region.bytes = r.u64();
        h.regions.push_back(std::move(region));
    }
    if (!r.ok()) {
        err = "truncated header";
        return false;
    }
    if (!caches_ok) {
        err = "invalid cache geometry in header";
        return false;
    }
    if (h.totalCpus == 0 || h.totalCpus > 4096 || h.appCpus == 0 ||
        h.appCpus > h.totalCpus || h.cpusPerL2 == 0 ||
        h.totalCpus % h.cpusPerL2 != 0) {
        err = "invalid CPU topology in header";
        return false;
    }
    if (protocol_raw >
            static_cast<std::uint8_t>(
                sim::CoherenceProtocol::DirectoryMesi) ||
        h.numaNodes == 0 ||
        (h.totalCpus / h.cpusPerL2) % h.numaNodes != 0) {
        err = "invalid protocol/NUMA topology in header";
        return false;
    }
    if (topology_raw > static_cast<std::uint8_t>(sim::Topology::Mesh) ||
        (h.protocol == sim::CoherenceProtocol::SnoopBus &&
         (h.topology != sim::Topology::Ring || h.dirOccupancy != 0))) {
        err = "invalid interconnect topology/occupancy in header";
        return false;
    }
    out = std::move(h);
    return true;
}

TraceWriter::TraceWriter(TraceHeader header)
    : header_(std::move(header))
{
    // The footer checksum covers every byte before the footer tag —
    // header included, so a flipped bit in a header string (which no
    // field validation could catch) still fails loudly.
    encodeHeader(buf_, header_);
    hash_ = sim::fnv1a64(buf_.data());
    cpuState_.assign(header_.totalCpus, {});
}

TraceWriter::TraceWriter(TraceHeader header, const std::string &path)
    : TraceWriter(std::move(header))
{
    fileMode_ = true;
    path_ = path;
    tmpPath_ = sim::tempPathFor(path);
    file_.open(tmpPath_, std::ios::binary | std::ios::trunc);
    if (!file_)
        warn("trace: cannot open '", tmpPath_, "' for writing");
}

TraceWriter::~TraceWriter()
{
    if (fileMode_ && !finished_) {
        file_.close();
        std::remove(tmpPath_.c_str());
    }
}

void
TraceWriter::ref(const mem::MemRef &ref, sim::Tick now)
{
    sim_assert(!finished_, "trace: ref() after finalize");
    sim_assert(ref.cpu < cpuState_.size(),
               "trace: ref cpu out of range");
    const unsigned nib =
        ref.cpu < refCpuEscape ? ref.cpu : refCpuEscape;
    char rec[maxRecordBytes];
    std::size_t n = 0;
    rec[n++] = static_cast<char>(
        (static_cast<unsigned>(ref.type) << 4) | nib);
    if (nib == refCpuEscape)
        n += sim::putVarU64(rec + n, ref.cpu);
    PerCpu &st = cpuState_[ref.cpu];
    n += sim::putVarU64(rec + n, sim::zigzagEncode(static_cast<std::int64_t>(
                                     ref.addr - st.addr)));
    n += sim::putVarU64(rec + n, sim::zigzagEncode(static_cast<std::int64_t>(
                                     now - st.tick)));
    append(rec, n);
    st.addr = ref.addr;
    st.tick = now;
    ++refs_;
    if (fileMode_ && buf_.data().size() >= flushBytes)
        flushToFile();
}

void
TraceWriter::annotation(mem::TraceAnnotation kind, unsigned cpu,
                        sim::Tick now, std::uint64_t arg)
{
    sim_assert(!finished_, "trace: annotation() after finalize");
    char rec[maxRecordBytes];
    std::size_t n = 0;
    rec[n++] = static_cast<char>(
        tagAnnotationBase | static_cast<unsigned>(kind));
    n += sim::putVarU64(rec + n, cpu);
    n += sim::putVarU64(rec + n, sim::zigzagEncode(static_cast<std::int64_t>(
                                     now - lastAnnTick_)));
    n += sim::putVarU64(rec + n, arg);
    append(rec, n);
    lastAnnTick_ = now;
    ++annotations_;
}

void
TraceWriter::append(const char *rec, std::size_t n)
{
    hash_ = sim::fnv1a64Step(hash_, {rec, n});
    buf_.raw(rec, n);
}

void
TraceWriter::flushToFile()
{
    const std::string chunk = buf_.take();
    file_.write(chunk.data(),
                static_cast<std::streamsize>(chunk.size()));
    buf_ = sim::ByteWriter();
}

void
TraceWriter::appendFooter()
{
    buf_.u8(tagFooter);
    buf_.u64(refs_);
    buf_.u64(annotations_);
    buf_.u64(hash_);
    finished_ = true;
}

std::string
TraceWriter::take()
{
    sim_assert(!fileMode_, "trace: take() on a file-backed writer");
    sim_assert(!finished_, "trace: take() called twice");
    appendFooter();
    return buf_.take();
}

bool
TraceWriter::close()
{
    sim_assert(fileMode_, "trace: close() on an in-memory writer");
    sim_assert(!finished_, "trace: close() called twice");
    appendFooter();
    const std::string chunk = buf_.take();
    file_.write(chunk.data(),
                static_cast<std::streamsize>(chunk.size()));
    file_.close();
    if (!file_) {
        std::remove(tmpPath_.c_str());
        return false;
    }
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        std::remove(tmpPath_.c_str());
        return false;
    }
    return true;
}

} // namespace middlesim::trace
