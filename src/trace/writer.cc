#include "trace/writer.hh"

#include <cstdio>

#include "sim/log.hh"

namespace middlesim::trace
{

namespace
{

/** Flush threshold of file-backed recording (bytes). */
constexpr std::size_t flushBytes = 4u << 20;

} // namespace

void
encodeHeader(sim::ByteWriter &w, const TraceHeader &h)
{
    w.str(traceMagic);
    sim::FieldWriter out(w);
    out.record(h);
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
    sim::FieldReader in(r);
    in.record(h);
    if (in.implausibleCount()) {
        err = "implausible region count";
        return false;
    }
    if (!r.ok()) {
        err = "truncated header";
        return false;
    }
    if (h.l1i.problem() || h.l1d.problem() || h.l2.problem()) {
        err = "invalid cache geometry in header";
        return false;
    }
    if (h.totalCpus == 0 || h.totalCpus > 4096 || h.appCpus == 0 ||
        h.appCpus > h.totalCpus || h.cpusPerL2 == 0 ||
        h.totalCpus % h.cpusPerL2 != 0) {
        err = "invalid CPU topology in header";
        return false;
    }
    if (h.protocol > sim::CoherenceProtocol::DirectoryMesi ||
        h.numaNodes == 0 ||
        (h.totalCpus / h.cpusPerL2) % h.numaNodes != 0) {
        err = "invalid protocol/NUMA topology in header";
        return false;
    }
    if (h.topology > sim::Topology::Mesh ||
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
