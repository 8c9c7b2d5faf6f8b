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
 *
 * FieldWriter/FieldReader run a record's *field list* over those
 * streams: one function that names the record's fields in byte
 * order, so its encoder and decoder are the same code.
 */

#ifndef SIM_SERIALIZE_HH
#define SIM_SERIALIZE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
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

    /** Trip the failure flag (a caller's own validation failed). */
    void fail() { ok_ = false; }

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
 * The writing stream of a field list. A record's field list is its
 * `template <typename S, typename Self> static void fields(S &s,
 * Self &self)`, naming every field once, in byte order, through the
 * stream's width methods (`s.u32(self.assoc)`, `s.str(self.point)`).
 * Run with a FieldWriter and a const record it encodes the record;
 * run with a FieldReader it decodes one.
 */
class FieldWriter
{
  public:
    explicit FieldWriter(ByteWriter &w) : w_(w) {}

    /** A byte; a bool as 0 or 1. */
    void u8(std::uint8_t v) { w_.u8(v); }

    /** An enum as one byte. */
    template <typename E>
        requires std::is_enum_v<E>
    void
    u8(E v)
    {
        w_.u8(static_cast<std::uint8_t>(v));
    }

    void u32(std::uint32_t v) { w_.u32(v); }
    void u64(std::uint64_t v) { w_.u64(v); }
    void f64(double v) { w_.f64(v); }
    void str(std::string_view v) { w_.str(v); }
    void vecU64(const std::vector<std::uint64_t> &v) { w_.vecU64(v); }
    void vecF64(const std::vector<double> &v) { w_.vecF64(v); }

    /** A nested record, by its own field list. */
    template <typename T>
    void
    record(const T &v)
    {
        T::fields(*this, v);
    }

    /** A presence byte, then the record if there is one. */
    template <typename T>
    void
    shared(const std::shared_ptr<const T> &p)
    {
        u8(p != nullptr);
        if (p)
            record(*p);
    }

    /** A count, then each element by `fields(stream, element)`. */
    template <typename T, typename Fields>
    void
    records(const std::vector<T> &v, Fields fields)
    {
        u64(v.size());
        for (const T &x : v)
            fields(*this, x);
    }

    /** A count, then each entry: its key, then `fields(stream, value)`. */
    template <typename V, typename Fields>
    void
    map(const std::map<std::string, V> &m, Fields fields)
    {
        u64(m.size());
        for (const auto &[key, value] : m) {
            str(key);
            fields(*this, value);
        }
    }

  private:
    ByteWriter &w_;
};

/** The reading stream of a field list (see FieldWriter). */
class FieldReader
{
  public:
    explicit FieldReader(ByteReader &r) : r_(r) {}

    /** An enum, or a bool (any non-zero byte is true). */
    template <typename T>
        requires std::is_enum_v<T> || std::is_same_v<T, bool>
    void
    u8(T &v)
    {
        v = static_cast<T>(r_.u8());
    }

    void u32(std::uint32_t &v) { v = r_.u32(); }
    void u64(std::uint64_t &v) { v = r_.u64(); }
    void f64(double &v) { v = r_.f64(); }
    void str(std::string &v) { v = r_.str(); }
    void vecU64(std::vector<std::uint64_t> &v) { v = r_.vecU64(); }
    void vecF64(std::vector<double> &v) { v = r_.vecF64(); }

    template <typename T>
    void
    record(T &v)
    {
        T::fields(*this, v);
    }

    /** Any non-zero presence byte reads a record. */
    template <typename T>
    void
    shared(std::shared_ptr<const T> &p)
    {
        if (r_.u8() == 0)
            return;
        auto v = std::make_shared<T>();
        record(*v);
        p = std::move(v);
    }

    template <typename T, typename Fields>
    void
    records(std::vector<T> &v, Fields fields)
    {
        const std::uint64_t n = count<T>(fields, 0);
        for (std::uint64_t i = 0; r_.ok() && i < n; ++i) {
            T x{};
            fields(*this, x);
            v.push_back(std::move(x));
        }
    }

    /** The first value read under a repeated key is kept. */
    template <typename V, typename Fields>
    void
    map(std::map<std::string, V> &m, Fields fields)
    {
        const std::uint64_t n = count<V>(fields, 8);
        for (std::uint64_t i = 0; r_.ok() && i < n; ++i) {
            std::string key = r_.str();
            V value{};
            fields(*this, value);
            m.emplace(std::move(key), std::move(value));
        }
    }

    /** True once a count exceeded what the bytes left could hold. */
    bool implausibleCount() const { return implausibleCount_; }

  private:
    /**
     * Read a count of elements, each `extra` bytes plus what `fields`
     * writes for a default `T` (every string and container empty:
     * the smallest element there is). A count the bytes left cannot
     * hold fails the stream before anything is sized by it.
     */
    template <typename T, typename Fields>
    std::uint64_t
    count(Fields fields, std::uint64_t extra)
    {
        ByteWriter w;
        FieldWriter out(w);
        const T smallest{};
        fields(out, smallest);
        const std::uint64_t n = r_.u64();
        if (r_.ok() &&
            n > r_.remaining() / std::max<std::uint64_t>(
                                     extra + w.data().size(), 1)) {
            implausibleCount_ = true;
            r_.fail();
            return 0;
        }
        return n;
    }

    ByteReader &r_;
    bool implausibleCount_ = false;
};

/** The bytes of `v`, by its field list. */
template <typename T>
std::string
encodeFields(const T &v)
{
    ByteWriter w;
    FieldWriter out(w);
    out.record(v);
    return w.take();
}

/**
 * Decode `bytes` into `out` by the field list of `T`. @return false,
 * leaving `out` untouched, unless every byte decodes.
 */
template <typename T>
bool
decodeFields(std::string_view bytes, T &out)
{
    ByteReader r(bytes);
    FieldReader in(r);
    T v{};
    in.record(v);
    if (!r.atEnd())
        return false;
    out = std::move(v);
    return true;
}

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
