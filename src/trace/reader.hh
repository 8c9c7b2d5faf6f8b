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
 *
 * The footer checksum is computed as the trace decodes: the header is
 * hashed once it validates and each record right after it decodes,
 * so the footer only compares. A plain ref (tag below 0x50, CPU
 * nibble below min(15, totalCpus), at least 32 bytes left) decodes on
 * an inline fast path with no per-byte bounds checks; anything else,
 * including a varint the fast path finds over-long, is decoded by the
 * checked path from the same byte, so every error text and byte
 * offset is the checked path's.
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

/** Streaming decoder over trace bytes it owns. */
class TraceReader
{
  public:
    /**
     * Take the bytes over (a move, not a copy) and parse the header
     * eagerly; check ok() afterwards.
     */
    explicit TraceReader(std::string data);

    /** The decode position points into the owned bytes. */
    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

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
    bool
    next(TraceRecord &out)
    {
        const std::size_t pos = r_.pos();
        if (pos < plainEnd_) {
            const auto *p =
                reinterpret_cast<const std::uint8_t *>(data_.data()) + pos;
            const unsigned tag = p[0];
            const unsigned cpu = tag & 0x0f;
            const std::uint8_t *q = p + 1;
            std::uint64_t addr_delta = 0;
            std::uint64_t tick_delta = 0;
            if (tag < 0x50 && cpu < plainCpus_ &&
                plainVarU64(q, addr_delta) && plainVarU64(q, tick_delta)) {
                const auto len = static_cast<std::size_t>(q - p);
                hash_ = sim::fnv1a64Step(
                    hash_, {reinterpret_cast<const char *>(p), len});
                r_.skip(len);
                PerCpu &st = cpuState_[cpu];
                st.addr += static_cast<std::uint64_t>(
                    sim::zigzagDecode(addr_delta));
                st.tick += static_cast<std::uint64_t>(
                    sim::zigzagDecode(tick_delta));
                out.isRef = true;
                out.ref = {st.addr, static_cast<mem::AccessType>(tag >> 4),
                           cpu};
                out.tick = st.tick;
                ++refs_;
                return true;
            }
        }
        return nextChecked(out);
    }

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
    /**
     * The fast path's varint: ByteReader::varU64's rules with no
     * bounds checks (the caller guarantees 10 readable bytes). False
     * where varU64 fails; `q` then points anywhere.
     */
    static bool
    plainVarU64(const std::uint8_t *&q, std::uint64_t &v)
    {
        std::uint64_t x = 0;
        for (unsigned i = 0; i < 10; ++i) {
            const std::uint8_t b = q[i];
            if (i == 9 && (b & 0xfe) != 0)
                return false;
            x |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
            if ((b & 0x80) == 0) {
                q += i + 1;
                v = x;
                return true;
            }
        }
        return false;
    }

    /** The checked decoder of any record (see next()). */
    bool nextChecked(TraceRecord &out);
    /** Fold the record decoded from `start` on into the checksum. */
    void hashRecord(std::size_t start);
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

    /** FNV-1a of every byte decoded so far, footer excluded. */
    std::uint64_t hash_ = sim::fnv1a64Init;
    /**
     * The fast path serves a record whose tag sits below this offset:
     * 31 bytes before the end once the header validated (so at least
     * 32 bytes are left), 0 before that and after any failure.
     */
    std::size_t plainEnd_ = 0;
    /** CPU nibbles the fast path serves: below min(15, totalCpus). */
    unsigned plainCpus_ = 0;

    bool ok_ = true;
    bool complete_ = false;
    std::string error_;
};

/**
 * Read a whole file into `out`: a regular file with one read into a
 * string sized from it. @return false on IO error.
 */
bool readTraceFile(const std::string &path, std::string &out);

/** True if `path` exists and is readable. */
bool traceFileExists(const std::string &path);

} // namespace middlesim::trace

#endif // TRACE_READER_HH
