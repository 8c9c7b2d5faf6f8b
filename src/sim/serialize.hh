/**
 * @file
 * Exact binary serialization helpers, content hashing, and the
 * temp-file naming shared by the writers of cache entries and traces.
 *
 * ByteWriter/ByteReader implement a tiny little-endian byte stream
 * used by the run-result cache and the reference-trace format:
 * fixed-width unsigned integers, LEB128 varints (with zigzag for
 * signed deltas), doubles as IEEE-754 bit patterns (so every value
 * round-trips bit-exactly), and length-prefixed strings. The reader
 * carries a sticky failure flag instead of throwing: a truncated or
 * corrupt stream simply reads as zeros with ok() == false, which
 * cache loaders treat as a miss and trace loaders as a hard error.
 */

#ifndef SIM_SERIALIZE_HH
#define SIM_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace middlesim::sim
{

/** FNV-1a 64-bit hash (content addressing of cache keys). */
std::uint64_t fnv1a64(std::string_view data);

/** Fixed-width hex rendering of a 64-bit hash (16 lowercase digits). */
std::string hashHex(std::uint64_t h);

/**
 * Incremental FNV-1a: fold `data` into running hash `h`. Inline, so
 * that a trace codec hashing each record as it goes pays no call.
 */
inline std::uint64_t
fnv1a64Step(std::uint64_t h, std::string_view data)
{
    for (char c : data) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Initial value of the incremental FNV-1a hash (offset basis). */
inline constexpr std::uint64_t fnv1a64Init = 0xcbf29ce484222325ULL;

/** Zigzag-map a signed value so small-magnitude deltas varint small. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/**
 * Write `v` as an LEB128 varint (1-10 bytes, 7 payload bits each) at
 * `out`, which has room for 10 bytes; @return the bytes written.
 * Signed deltas go through zigzagEncode() first.
 */
inline std::size_t
putVarU64(char *out, std::uint64_t v)
{
    std::size_t n = 0;
    while (v >= 0x80) {
        out[n++] = static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    out[n++] = static_cast<char>(v);
    return n;
}

/** Append-only little-endian byte stream. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        appendLe(v, 4);
    }

    void
    u64(std::uint64_t v)
    {
        appendLe(v, 8);
    }

    /** Bit-exact double (IEEE-754 pattern as u64). */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(std::string_view s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    /** Append `n` bytes as they are. */
    void raw(const char *p, std::size_t n) { buf_.append(p, n); }

    void
    vecU64(const std::vector<std::uint64_t> &v)
    {
        u64(v.size());
        for (std::uint64_t x : v)
            u64(x);
    }

    void
    vecF64(const std::vector<double> &v)
    {
        u64(v.size());
        for (double x : v)
            f64(x);
    }

    const std::string &data() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    void
    appendLe(std::uint64_t v, unsigned bytes)
    {
        for (unsigned i = 0; i < bytes; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    std::string buf_;
};

/** Sequential reader with a sticky failure flag (no exceptions). */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view data) : data_(data) {}

    bool ok() const { return ok_; }

    /** True when every byte has been consumed and nothing failed. */
    bool atEnd() const { return ok_ && pos_ == data_.size(); }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint32_t
    u32()
    {
        return static_cast<std::uint32_t>(readLe(4));
    }

    std::uint64_t u64() { return readLe(8); }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (!need(n))
            return {};
        std::string s(data_.substr(pos_, n));
        pos_ += n;
        return s;
    }

    /**
     * LEB128 unsigned varint. More than 10 bytes, or a 10th byte
     * carrying anything beyond the top bit of a u64, is corruption
     * (it would silently wrap) and trips the failure flag.
     */
    std::uint64_t
    varU64()
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 10; ++i) {
            if (!need(1))
                return 0;
            const auto b = static_cast<std::uint8_t>(data_[pos_++]);
            if (i == 9 && (b & 0xfe) != 0) {
                ok_ = false; // 64-bit overflow or over-length varint
                return 0;
            }
            v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
            if ((b & 0x80) == 0)
                return v;
        }
        ok_ = false;
        return 0;
    }

    /** Zigzag-encoded signed varint. */
    std::int64_t varI64() { return zigzagDecode(varU64()); }

    /** Step over `n` <= remaining() bytes the caller decoded itself. */
    void skip(std::size_t n) { pos_ += n; }

    std::vector<std::uint64_t>
    vecU64()
    {
        // Validate the count against the remaining bytes *before*
        // sizing anything by it: `n * 8` may wrap modulo 2^64, so a
        // corrupt length prefix must never reach a multiply or a
        // reserve.
        const std::uint64_t n = u64();
        std::vector<std::uint64_t> v;
        if (!ok_ || n > remaining() / 8) {
            ok_ = false;
            return v;
        }
        v.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            v.push_back(u64());
        return v;
    }

    std::vector<double>
    vecF64()
    {
        const std::uint64_t n = u64();
        std::vector<double> v;
        if (!ok_ || n > remaining() / 8) {
            ok_ = false;
            return v;
        }
        v.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            v.push_back(f64());
        return v;
    }

    /** Bytes left to read (0 once the stream has failed). */
    std::uint64_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

    /** Absolute read position (bytes consumed so far). */
    std::size_t pos() const { return pos_; }

  private:
    bool
    need(std::uint64_t bytes)
    {
        if (!ok_ || bytes > data_.size() - pos_) {
            ok_ = false;
            return false;
        }
        return true;
    }

    std::uint64_t
    readLe(unsigned bytes)
    {
        if (!need(bytes))
            return 0;
        std::uint64_t v = 0;
        for (unsigned i = 0; i < bytes; ++i) {
            v |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(data_[pos_ + i]))
                 << (8 * i);
        }
        pos_ += bytes;
        return v;
    }

    std::string_view data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * A temp-file name for writing `final_path` before renaming it into
 * place: "<final_path>.tmp<pid>.<seq>", with `seq` a process-wide
 * counter. Unique across the threads of one process and across the
 * processes sharing one directory, so two writers of the same entry
 * never write or rename each other's partial file.
 */
std::string tempPathFor(const std::string &final_path);

} // namespace middlesim::sim

#endif // SIM_SERIALIZE_HH
