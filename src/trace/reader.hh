/**
 * @file
 * TraceReader: streaming decoder of `middlesim-trace-v3` with hard
 * validation.
 *
 * A trace is an artifact that may have been truncated, bit-flipped
 * or handcrafted; the reader therefore never trusts a byte. Every
 * structural violation — bad magic, unknown tag, over-long varint,
 * out-of-range CPU, truncation, count or checksum mismatch — stops
 * decoding with ok() == false and a human-readable error(), and no
 * decoded-so-far state is ever read out of bounds. A trace only
 * counts as fully valid once complete() is true.
 */

#ifndef TRACE_READER_HH
#define TRACE_READER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/memref.hh"
#include "mem/trace_sink.hh"
#include "sim/serialize.hh"
#include "trace/format.hh"

namespace middlesim::trace
{

/** One decoded record (a ref or an annotation). */
struct TraceRecord
{
    bool isRef = true;

    // Ref fields.
    mem::MemRef ref{0, mem::AccessType::Load, 0};
    sim::Tick tick = 0;

    // Annotation fields (tick is shared).
    mem::TraceAnnotation kind = mem::TraceAnnotation::MeasureBegin;
    std::uint64_t arg = 0;
};

/** Streaming decoder; owns the trace bytes. */
class TraceReader
{
  public:
    /** Parse the header of `data` eagerly; check ok() afterwards. */
    explicit TraceReader(std::string data);

    /** False once any structural violation has been detected. */
    bool ok() const { return ok_; }

    /** Diagnostic for the first violation (empty while ok). */
    const std::string &error() const { return error_; }

    /** True once the footer was reached and every check passed. */
    bool complete() const { return complete_; }

    const TraceHeader &header() const { return header_; }

    /**
     * Decode the next record. Returns false at the footer (after
     * validating counts and checksum; complete() turns true) or on a
     * violation (ok() turns false).
     */
    bool next(TraceRecord &out);

    /** Records decoded so far. */
    std::uint64_t refCount() const { return refs_; }
    std::uint64_t annotationCount() const { return annotations_; }

    /** Per-kind annotation counts (index = TraceAnnotation). */
    const std::vector<std::uint64_t> &
    annotationCounts() const
    {
        return annCounts_;
    }

    /**
     * Decode every remaining record, discarding them. @return true
     * iff the trace validated end to end (complete()).
     */
    bool drain();

  private:
    void fail(const std::string &why);
    bool readFooter();

    std::string data_;
    sim::ByteReader r_;
    TraceHeader header_;

    struct PerCpu
    {
        std::uint64_t addr = 0;
        sim::Tick tick = 0;
    };
    std::vector<PerCpu> cpuState_;
    sim::Tick lastAnnTick_ = 0;

    std::uint64_t refs_ = 0;
    std::uint64_t annotations_ = 0;
    std::vector<std::uint64_t> annCounts_;

    std::uint64_t hash_;
    std::size_t hashedUpTo_ = 0;

    bool ok_ = true;
    bool complete_ = false;
    std::string error_;
};

/** Read a whole file into `out`. @return false on IO error. */
bool readTraceFile(const std::string &path, std::string &out);

/** True if `path` exists and is readable. */
bool traceFileExists(const std::string &path);

} // namespace middlesim::trace

#endif // TRACE_READER_HH
