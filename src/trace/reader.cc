#include "trace/reader.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "trace/writer.hh"

namespace middlesim::trace
{

TraceReader::TraceReader(std::string data)
    : TraceReader(std::make_shared<const std::string>(std::move(data)))
{
}

TraceReader::TraceReader(std::shared_ptr<const std::string> data)
    : data_(std::move(data)), r_(*data_), hash_(sim::fnv1a64Init)
{
    annCounts_.assign(mem::numTraceAnnotations, 0);
    std::string err;
    if (!decodeHeader(r_, header_, err)) {
        fail("header: " + err);
        return;
    }
    cpuState_.assign(header_.totalCpus, {});
    hashedUpTo_ = 0; // checksum covers header + records (see writer)
}

void
TraceReader::fail(const std::string &why)
{
    if (!ok_)
        return;
    ok_ = false;
    std::ostringstream os;
    os << why << " (at byte " << r_.pos() << " of " << data_->size()
       << ")";
    error_ = os.str();
}

bool
TraceReader::readFooter()
{
    // Everything before the footer tag is checksummed.
    hash_ = sim::fnv1a64Step(
        hash_,
        std::string_view(*data_).substr(hashedUpTo_,
                                       r_.pos() - 1 - hashedUpTo_));
    const std::uint64_t want_refs = r_.u64();
    const std::uint64_t want_anns = r_.u64();
    const std::uint64_t want_hash = r_.u64();
    if (!r_.ok()) {
        fail("truncated footer");
        return false;
    }
    if (!r_.atEnd()) {
        fail("garbage after footer");
        return false;
    }
    if (want_refs != refs_ || want_anns != annotations_) {
        std::ostringstream os;
        os << "record count mismatch (footer says " << want_refs
           << " refs / " << want_anns << " annotations, decoded "
           << refs_ << " / " << annotations_ << ")";
        fail(os.str());
        return false;
    }
    if (want_hash != hash_) {
        fail("record checksum mismatch (" + sim::hashHex(hash_) +
             " != footer " + sim::hashHex(want_hash) + ")");
        return false;
    }
    complete_ = true;
    return true;
}

bool
TraceReader::next(TraceRecord &out)
{
    if (!ok_ || complete_)
        return false;
    const std::uint8_t tag = r_.u8();
    if (!r_.ok()) {
        fail("truncated record stream (missing footer)");
        return false;
    }

    if (tag == tagFooter) {
        readFooter();
        return false;
    }

    if (tag < tagAnnotationBase) {
        // Memory reference.
        const unsigned type = tag >> 4;
        if (type > static_cast<unsigned>(mem::AccessType::BlockStore)) {
            fail("unknown ref tag");
            return false;
        }
        unsigned cpu = tag & 0x0f;
        if (cpu == refCpuEscape) {
            const std::uint64_t wide = r_.varU64();
            if (wide >= header_.totalCpus) {
                fail("ref cpu out of range");
                return false;
            }
            cpu = static_cast<unsigned>(wide);
        } else if (cpu >= header_.totalCpus) {
            fail("ref cpu out of range");
            return false;
        }
        PerCpu &st = cpuState_[cpu];
        const std::int64_t addr_delta = r_.varI64();
        const std::int64_t tick_delta = r_.varI64();
        if (!r_.ok()) {
            fail("corrupt ref record (truncated or over-long varint)");
            return false;
        }
        st.addr += static_cast<std::uint64_t>(addr_delta);
        st.tick += static_cast<std::uint64_t>(tick_delta);
        out.isRef = true;
        out.ref = {st.addr, static_cast<mem::AccessType>(type), cpu};
        out.tick = st.tick;
        ++refs_;
        return true;
    }

    // Annotation.
    const unsigned kind = tag & 0x7f;
    if (kind >= mem::numTraceAnnotations) {
        fail("unknown annotation tag");
        return false;
    }
    const std::uint64_t cpu = r_.varU64();
    const std::int64_t tick_delta = r_.varI64();
    const std::uint64_t arg = r_.varU64();
    if (!r_.ok()) {
        fail("corrupt annotation record");
        return false;
    }
    if (cpu >= header_.totalCpus) {
        fail("annotation cpu out of range");
        return false;
    }
    lastAnnTick_ += static_cast<std::uint64_t>(tick_delta);
    out.isRef = false;
    out.kind = static_cast<mem::TraceAnnotation>(kind);
    out.ref.cpu = static_cast<unsigned>(cpu);
    out.tick = lastAnnTick_;
    out.arg = arg;
    ++annotations_;
    ++annCounts_[kind];
    return true;
}

bool
TraceReader::drain()
{
    TraceRecord rec;
    while (next(rec)) {
    }
    return complete_;
}

bool
readTraceFile(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    // One read into a string sized from the file; whatever that size
    // does not cover, such as the bytes of a pipe, is appended.
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    out.assign(ec ? 0 : size, '\0');
    if (!is.read(out.data(), static_cast<std::streamsize>(out.size())))
        return false;
    std::ostringstream rest;
    rest << is.rdbuf();
    out += rest.str();
    return true;
}

bool
traceFileExists(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return static_cast<bool>(is);
}

} // namespace middlesim::trace
