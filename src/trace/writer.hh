/**
 * @file
 * TraceWriter: records a reference stream into `middlesim-trace-v3`.
 */

#ifndef TRACE_WRITER_HH
#define TRACE_WRITER_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "mem/trace_sink.hh"
#include "sim/serialize.hh"
#include "trace/format.hh"

namespace middlesim::trace
{

/** Encode a header into `w`: the magic, then TraceHeader::fields. */
void encodeHeader(sim::ByteWriter &w, const TraceHeader &h);

/**
 * Decode a header by the same field list and validate it. Returns
 * false (with a diagnostic in `err`) on bad magic, truncation or
 * implausible field values.
 */
bool decodeHeader(sim::ByteReader &r, TraceHeader &out,
                  std::string &err);

/**
 * Records the stream delivered through the mem::TraceSink interface.
 *
 * Two modes:
 *  - in-memory (default): the whole trace accumulates in a buffer and
 *    take() returns the finished bytes;
 *  - file-backed: records stream through a bounded buffer into a
 *    temp file beside `path` (sim::tempPathFor, unique per process
 *    and writer), and close() atomically renames the finished file
 *    into place — memory use stays flat for arbitrarily long runs.
 *
 * Each record is encoded into a stack buffer, hashed into the footer
 * checksum and appended once, so neither mode ever makes a hash pass
 * over its buffer.
 */
class TraceWriter final : public mem::TraceSink
{
  public:
    /** In-memory recording. */
    explicit TraceWriter(TraceHeader header);

    /** File-backed recording into `path` (via a temp file beside it). */
    TraceWriter(TraceHeader header, const std::string &path);

    /** A file-backed writer left unclosed discards its temp file. */
    ~TraceWriter() override;

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void ref(const mem::MemRef &ref, sim::Tick now) override;
    void annotation(mem::TraceAnnotation kind, unsigned cpu,
                    sim::Tick now, std::uint64_t arg) override;

    std::uint64_t refCount() const { return refs_; }

    /** Finalize an in-memory recording and return the trace bytes. */
    std::string take();

    /**
     * Finalize a file-backed recording: flush, append the footer and
     * rename the temp file into place. @return false on any IO error.
     */
    bool close();

  private:
    /** A record's largest encoding: a tag and three 10-byte varints. */
    static constexpr std::size_t maxRecordBytes = 31;

    /** Hash one encoded record into the checksum and append it. */
    void append(const char *rec, std::size_t n);
    void appendFooter();
    void flushToFile();

    TraceHeader header_;
    sim::ByteWriter buf_;
    /** FNV-1a of every byte written so far (header and records). */
    std::uint64_t hash_;

    struct PerCpu
    {
        std::uint64_t addr = 0;
        sim::Tick tick = 0;
    };
    std::vector<PerCpu> cpuState_;
    sim::Tick lastAnnTick_ = 0;

    std::uint64_t refs_ = 0;
    std::uint64_t annotations_ = 0;
    bool finished_ = false;

    // File-backed mode.
    std::string path_;
    std::string tmpPath_;
    std::ofstream file_;
    bool fileMode_ = false;
};

} // namespace middlesim::trace

#endif // TRACE_WRITER_HH
