/**
 * @file
 * Hostile-input hardening tests for sim/serialize.hh: varint
 * round-trips and overflow rejection, truncation at every prefix,
 * absurd length prefixes that would wrap `n * 8`, and garbage-tail
 * detection. A corrupt stream must always read as zeros with
 * ok() == false — never as an out-of-bounds access or an allocation
 * sized by attacker-controlled data.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/serialize.hh"

using namespace middlesim;

namespace
{

/** Append a varint the way the trace writer does (sim::putVarU64). */
void
putVar(sim::ByteWriter &w, std::uint64_t v)
{
    char bytes[10];
    w.raw(bytes, sim::putVarU64(bytes, v));
}

/** Append a zigzag-encoded signed varint. */
void
putZigzag(sim::ByteWriter &w, std::int64_t v)
{
    putVar(w, sim::zigzagEncode(v));
}

} // namespace

TEST(Varint, RoundTripsBoundaryValues)
{
    const std::vector<std::uint64_t> values = {
        0,
        1,
        0x7f,               // largest 1-byte encoding
        0x80,               // smallest 2-byte encoding
        0x3fff,
        0x4000,
        1u << 20,
        0xffffffffULL,
        1ULL << 56,
        std::numeric_limits<std::uint64_t>::max(),
    };
    sim::ByteWriter w;
    for (std::uint64_t v : values)
        putVar(w, v);
    sim::ByteReader r(w.data());
    for (std::uint64_t v : values)
        EXPECT_EQ(r.varU64(), v);
    EXPECT_TRUE(r.atEnd());
}

TEST(Varint, EncodingLengthsMatchLeb128)
{
    auto encodedSize = [](std::uint64_t v) {
        sim::ByteWriter w;
        putVar(w, v);
        return w.data().size();
    };
    EXPECT_EQ(encodedSize(0), 1u);
    EXPECT_EQ(encodedSize(0x7f), 1u);
    EXPECT_EQ(encodedSize(0x80), 2u);
    EXPECT_EQ(encodedSize(0x3fff), 2u);
    EXPECT_EQ(encodedSize(0x4000), 3u);
    EXPECT_EQ(encodedSize(std::numeric_limits<std::uint64_t>::max()),
              10u);
}

TEST(Varint, SignedZigzagRoundTripsExtremes)
{
    const std::vector<std::int64_t> values = {
        0,
        -1,
        1,
        -64,
        64,
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max(),
    };
    sim::ByteWriter w;
    for (std::int64_t v : values)
        putZigzag(w, v);
    sim::ByteReader r(w.data());
    for (std::int64_t v : values)
        EXPECT_EQ(r.varI64(), v);
    EXPECT_TRUE(r.atEnd());
}

TEST(Varint, SmallMagnitudeSignedDeltasStaySmall)
{
    // The point of zigzag: -1 must not encode as ten 0xff bytes.
    sim::ByteWriter w;
    putZigzag(w, -1);
    EXPECT_EQ(w.data().size(), 1u);
}

TEST(Varint, RejectsOverlongEncoding)
{
    // Eleven continuation bytes: valid LEB128 never needs more than
    // ten bytes for 64 bits.
    std::string bytes(11, '\x80');
    bytes.push_back('\x01');
    sim::ByteReader r(bytes);
    EXPECT_EQ(r.varU64(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(Varint, RejectsTenthByteOverflow)
{
    // Ten bytes whose tenth carries more than the top bit of a u64
    // would silently wrap modulo 2^64.
    std::string bytes(9, '\x80');
    bytes.push_back('\x02');
    sim::ByteReader r(bytes);
    EXPECT_EQ(r.varU64(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(Varint, AcceptsExactlyTenByteMax)
{
    // u64 max: nine 0xff continuation bytes and a final 0x01.
    std::string bytes(9, '\xff');
    bytes.push_back('\x01');
    sim::ByteReader r(bytes);
    EXPECT_EQ(r.varU64(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(r.atEnd());
}

TEST(Varint, TruncationMidValueFailsSticky)
{
    sim::ByteWriter w;
    putVar(w, 1u << 30);
    const std::string full = w.data();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        sim::ByteReader r(std::string_view(full).substr(0, cut));
        EXPECT_EQ(r.varU64(), 0u);
        EXPECT_FALSE(r.ok());
        // Sticky: every subsequent read keeps returning zero.
        EXPECT_EQ(r.u64(), 0u);
        EXPECT_FALSE(r.ok());
    }
}

TEST(Reader, TruncationAtEveryPrefixNeverReadsOob)
{
    sim::ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(42);
    w.str("payload");
    putVar(w, 12345);
    w.vecU64({1, 2, 3});
    const std::string full = w.data();

    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        sim::ByteReader r(std::string_view(full).substr(0, cut));
        r.u8();
        r.u32();
        r.u64();
        r.str();
        r.varU64();
        r.vecU64();
        EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes";
    }
    sim::ByteReader r(full);
    r.u8();
    r.u32();
    r.u64();
    r.str();
    r.varU64();
    EXPECT_EQ(r.vecU64(), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_TRUE(r.atEnd());
}

TEST(Reader, AbsurdVecLengthPrefixFailsWithoutAllocating)
{
    // A length prefix of 2^61 would make `n * 8` wrap to 0 — the
    // validation must compare against the remaining bytes without
    // ever multiplying the untrusted count.
    sim::ByteWriter w;
    w.u64(1ULL << 61);
    sim::ByteReader r(w.data());
    EXPECT_TRUE(r.vecU64().empty());
    EXPECT_FALSE(r.ok());

    sim::ByteWriter wf;
    wf.u64(std::numeric_limits<std::uint64_t>::max());
    sim::ByteReader rf(wf.data());
    EXPECT_TRUE(rf.vecF64().empty());
    EXPECT_FALSE(rf.ok());
}

TEST(Reader, AbsurdStringLengthFails)
{
    sim::ByteWriter w;
    w.u64(std::numeric_limits<std::uint64_t>::max());
    w.u8(0x55);
    sim::ByteReader r(w.data());
    EXPECT_TRUE(r.str().empty());
    EXPECT_FALSE(r.ok());
}

TEST(Reader, GarbageTailDetectedByAtEnd)
{
    sim::ByteWriter w;
    w.u64(7);
    std::string data = w.take();
    data.push_back('\x99'); // trailing byte a strict consumer rejects
    sim::ByteReader r(data);
    EXPECT_EQ(r.u64(), 7u);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.atEnd());
    EXPECT_EQ(r.remaining(), 1u);
}

TEST(Reader, RemainingAndPosTrackConsumption)
{
    sim::ByteWriter w;
    w.u32(1);
    w.u32(2);
    sim::ByteReader r(w.data());
    EXPECT_EQ(r.remaining(), 8u);
    r.u32();
    EXPECT_EQ(r.pos(), 4u);
    EXPECT_EQ(r.remaining(), 4u);
    r.u32();
    EXPECT_TRUE(r.atEnd());
}

TEST(Hash, IncrementalStepMatchesOneShot)
{
    const std::string data = "middlesim incremental hash check";
    const std::uint64_t whole = sim::fnv1a64(data);
    std::uint64_t h = sim::fnv1a64Init;
    for (std::size_t i = 0; i < data.size(); i += 7)
        h = sim::fnv1a64Step(
            h, std::string_view(data).substr(i, 7));
    EXPECT_EQ(h, whole);
    EXPECT_EQ(sim::fnv1a64Step(sim::fnv1a64Init, data), whole);
}

// ---------------------------------------------------------------------
// Property-based round-trips: random operation sequences over many
// seeds must decode to the written values, and re-encoding the decoded
// values must reproduce the original bytes exactly.
// ---------------------------------------------------------------------

namespace
{

/** One randomly drawn serialize operation with its value. */
struct Op
{
    enum Kind
    {
        U8,
        U32,
        U64,
        F64,
        VarU64,
        VarI64,
        Str,
        VecU64,
        VecF64,
        kNumKinds,
    };
    Kind kind = U8;
    std::uint64_t u = 0;
    std::int64_t i = 0;
    double f = 0.0;
    std::string s;
    std::vector<std::uint64_t> vu;
    std::vector<double> vf;
};

/**
 * A 64-bit value with a random effective width, so boundary-sized
 * encodings (1-byte through 10-byte varints) all appear often.
 */
std::uint64_t
randomWidthValue(sim::Rng &rng)
{
    const unsigned bits = 1 + static_cast<unsigned>(rng.uniform(64));
    return bits >= 64 ? rng.next() : rng.next() >> (64 - bits);
}

std::vector<Op>
randomOps(sim::Rng &rng, unsigned count)
{
    std::vector<Op> ops(count);
    for (Op &op : ops) {
        op.kind = static_cast<Op::Kind>(rng.uniform(Op::kNumKinds));
        switch (op.kind) {
          case Op::U8:
            op.u = rng.uniform(256);
            break;
          case Op::U32:
            op.u = rng.next() & 0xffffffffu;
            break;
          case Op::U64:
          case Op::VarU64:
            op.u = randomWidthValue(rng);
            break;
          case Op::VarI64:
            op.i = static_cast<std::int64_t>(randomWidthValue(rng));
            if (rng.chance(0.5) &&
                op.i != std::numeric_limits<std::int64_t>::min())
                op.i = -op.i;
            break;
          case Op::F64:
            op.f = (rng.real() - 0.5) * 1e12;
            break;
          case Op::Str: {
            op.s.resize(rng.uniform(48));
            for (char &c : op.s)
                c = static_cast<char>(rng.uniform(256));
            break;
          }
          case Op::VecU64: {
            op.vu.resize(rng.uniform(12));
            for (std::uint64_t &v : op.vu)
                v = randomWidthValue(rng);
            break;
          }
          case Op::VecF64: {
            op.vf.resize(rng.uniform(12));
            for (double &v : op.vf)
                v = (rng.real() - 0.5) * 1e9;
            break;
          }
          case Op::kNumKinds:
            break;
        }
    }
    return ops;
}

void
writeOps(sim::ByteWriter &w, const std::vector<Op> &ops)
{
    for (const Op &op : ops) {
        switch (op.kind) {
          case Op::U8:
            w.u8(static_cast<std::uint8_t>(op.u));
            break;
          case Op::U32:
            w.u32(static_cast<std::uint32_t>(op.u));
            break;
          case Op::U64:
            w.u64(op.u);
            break;
          case Op::F64:
            w.f64(op.f);
            break;
          case Op::VarU64:
            putVar(w, op.u);
            break;
          case Op::VarI64:
            putZigzag(w, op.i);
            break;
          case Op::Str:
            w.str(op.s);
            break;
          case Op::VecU64:
            w.vecU64(op.vu);
            break;
          case Op::VecF64:
            w.vecF64(op.vf);
            break;
          case Op::kNumKinds:
            break;
        }
    }
}

/** Read ops back, checking every decoded value against `ops`. */
std::vector<Op>
readAndCheckOps(sim::ByteReader &r, const std::vector<Op> &ops)
{
    std::vector<Op> decoded = ops;
    for (std::size_t n = 0; n < ops.size(); ++n) {
        Op &op = decoded[n];
        SCOPED_TRACE("op " + std::to_string(n));
        switch (op.kind) {
          case Op::U8:
            op.u = r.u8();
            EXPECT_EQ(op.u, ops[n].u);
            break;
          case Op::U32:
            op.u = r.u32();
            EXPECT_EQ(op.u, ops[n].u);
            break;
          case Op::U64:
            op.u = r.u64();
            EXPECT_EQ(op.u, ops[n].u);
            break;
          case Op::F64:
            op.f = r.f64();
            EXPECT_EQ(op.f, ops[n].f);
            break;
          case Op::VarU64:
            op.u = r.varU64();
            EXPECT_EQ(op.u, ops[n].u);
            break;
          case Op::VarI64:
            op.i = r.varI64();
            EXPECT_EQ(op.i, ops[n].i);
            break;
          case Op::Str:
            op.s = r.str();
            EXPECT_EQ(op.s, ops[n].s);
            break;
          case Op::VecU64:
            op.vu = r.vecU64();
            EXPECT_EQ(op.vu, ops[n].vu);
            break;
          case Op::VecF64:
            op.vf = r.vecF64();
            EXPECT_EQ(op.vf, ops[n].vf);
            break;
          case Op::kNumKinds:
            break;
        }
    }
    return decoded;
}

} // namespace

TEST(Property, RandomOpSequencesRoundTripByteIdentically)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL);
        const std::vector<Op> ops =
            randomOps(rng, 1 + static_cast<unsigned>(rng.uniform(64)));

        sim::ByteWriter w;
        writeOps(w, ops);
        const std::string first = w.data();

        sim::ByteReader r(first);
        const std::vector<Op> decoded = readAndCheckOps(r, ops);
        EXPECT_TRUE(r.ok()) << "seed " << seed;
        EXPECT_TRUE(r.atEnd()) << "seed " << seed;

        // Write -> read -> write: the second encoding must be
        // byte-identical to the first (no canonicalization drift).
        sim::ByteWriter w2;
        writeOps(w2, decoded);
        EXPECT_EQ(w2.data(), first) << "seed " << seed;
    }
}

TEST(Property, VarintPowerOfTwoNeighborhoodsRoundTrip)
{
    // Every value adjacent to a power of two — where the encoded
    // length changes — must round-trip and re-encode identically.
    for (unsigned k = 0; k < 64; ++k) {
        const std::uint64_t p = 1ULL << k;
        for (std::uint64_t v : {p - 1, p, p + 1}) {
            sim::ByteWriter w;
            putVar(w, v);
            sim::ByteReader r(w.data());
            EXPECT_EQ(r.varU64(), v) << "k=" << k;
            EXPECT_TRUE(r.atEnd());

            const std::int64_t s = static_cast<std::int64_t>(v);
            const std::int64_t neg =
                s == std::numeric_limits<std::int64_t>::min() ? s
                                                              : -s;
            for (std::int64_t sv : {s, neg}) {
                sim::ByteWriter ws;
                putZigzag(ws, sv);
                sim::ByteReader rs(ws.data());
                EXPECT_EQ(rs.varI64(), sv) << "k=" << k;
                EXPECT_TRUE(rs.atEnd());
            }
        }
    }
}

TEST(Property, RandomStreamsRejectSingleByteTruncation)
{
    // Chopping the final byte off any random stream must be detected
    // by the read sequence (truncation mid-value) or by atEnd().
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        sim::Rng rng(seed * 0xd1b54a32d192ed03ULL);
        const std::vector<Op> ops =
            randomOps(rng, 1 + static_cast<unsigned>(rng.uniform(32)));
        sim::ByteWriter w;
        writeOps(w, ops);
        const std::string full = w.data();
        if (full.empty())
            continue;

        sim::ByteReader r(
            std::string_view(full).substr(0, full.size() - 1));
        for (const Op &op : ops) {
            switch (op.kind) {
              case Op::U8:      r.u8(); break;
              case Op::U32:     r.u32(); break;
              case Op::U64:     r.u64(); break;
              case Op::F64:     r.f64(); break;
              case Op::VarU64:  r.varU64(); break;
              case Op::VarI64:  r.varI64(); break;
              case Op::Str:     r.str(); break;
              case Op::VecU64:  r.vecU64(); break;
              case Op::VecF64:  r.vecF64(); break;
              case Op::kNumKinds: break;
            }
        }
        EXPECT_FALSE(r.ok() && r.atEnd()) << "seed " << seed;
    }
}

TEST(Zigzag, MappingIsOrderPreservingOnMagnitude)
{
    EXPECT_EQ(sim::zigzagEncode(0), 0u);
    EXPECT_EQ(sim::zigzagEncode(-1), 1u);
    EXPECT_EQ(sim::zigzagEncode(1), 2u);
    EXPECT_EQ(sim::zigzagEncode(-2), 3u);
    for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1},
                           std::numeric_limits<std::int64_t>::min(),
                           std::numeric_limits<std::int64_t>::max()})
        EXPECT_EQ(sim::zigzagDecode(sim::zigzagEncode(v)), v);
}
