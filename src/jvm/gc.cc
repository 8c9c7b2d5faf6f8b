#include "jvm/gc.hh"

#include <algorithm>

namespace middlesim::jvm
{

namespace
{

/** GC runtime code region (part of the JVM's text segment). */
constexpr mem::Addr gcText = 0x1'8000'0000ULL;
constexpr std::uint64_t gcTextBytes = 48 * 1024;
/** Thread stacks / statics region scanned during the root phase. */
constexpr mem::Addr rootsData = 0x1'9000'0000ULL;

/** Lines copied per collector burst. */
constexpr std::uint64_t copyChunkLines = 96;

} // namespace

GcProgram::GcProgram(const GcWork &work, sim::Rng rng)
    : work_(work), rng_(rng)
{
    totalCopyLines_ = work_.survivorBytes / 64;
    totalCompactLines_ = work_.compactBytes / 64;
    const std::uint64_t used_lines = std::max<std::uint64_t>(
        work_.youngUsed / 64, 1);
    survivorStride_ =
        totalCopyLines_ ? std::max<std::uint64_t>(
                              used_lines / totalCopyLines_, 1)
                        : 1;
    if (totalCopyLines_ == 0 && totalCompactLines_ == 0)
        phase_ = work_.rootScanInstr ? Phase::Roots : Phase::Done;
}

exec::NextOp
GcProgram::next(exec::Burst &burst, sim::Tick)
{
    exec::NextOp op;
    op.kind = exec::OpKind::Burst;
    op.mode = exec::ExecMode::User; // GC runs as user time in mpstat

    switch (phase_) {
      case Phase::Roots:
        fillRootScan(burst);
        phase_ = totalCopyLines_ ? Phase::Copy
                 : totalCompactLines_ ? Phase::Compact
                                      : Phase::Done;
        return op;
      case Phase::Copy:
        fillCopyChunk(burst);
        if (copiedLines_ >= totalCopyLines_)
            phase_ = totalCompactLines_ ? Phase::Compact : Phase::Done;
        return op;
      case Phase::Compact:
        fillCompactChunk(burst);
        if (compactedLines_ >= totalCompactLines_)
            phase_ = Phase::Done;
        return op;
      case Phase::Done:
        op.kind = exec::OpKind::Exit;
        return op;
    }
    op.kind = exec::OpKind::Exit;
    return op;
}

void
GcProgram::fillRootScan(exec::Burst &burst)
{
    burst.mode = exec::ExecMode::User;
    burst.instructions = work_.rootScanInstr;
    burst.code.base = gcText;
    burst.code.bytes = std::min<std::uint64_t>(
        work_.rootScanInstr * 4, gcTextBytes);
    // Scan thread stacks and statics: read-mostly private lines.
    const unsigned lines = 64;
    for (unsigned i = 0; i < lines; ++i)
        burst.load(rootsData + rng_.uniform(4096) * 64);
}

void
GcProgram::fillCopyChunk(exec::Burst &burst)
{
    burst.mode = exec::ExecMode::User;
    const std::uint64_t lines = std::min<std::uint64_t>(
        copyChunkLines, totalCopyLines_ - copiedLines_);
    burst.instructions = lines * work_.instrPerLine;
    burst.code.base = gcText + 8 * 1024;
    burst.code.bytes = std::min<std::uint64_t>(burst.instructions * 4,
                                               2048);
    for (std::uint64_t i = 0; i < lines; ++i) {
        // Survivors are scattered through from-space: sample with a
        // fixed stride plus jitter so lines are spread over the whole
        // used young generation. Objects average ~2 lines, so one
        // demand load covers a line pair; the paired line arrives
        // with it (spatial locality of the copy loop).
        if ((i & 1) == 0) {
            const std::uint64_t idx =
                (copiedLines_ + i) * survivorStride_ +
                rng_.uniform(survivorStride_);
            burst.load(work_.fromBase + idx * 64);
        }
        burst.blockStore(work_.toBase + (copiedLines_ + i) * 64);
    }
    copiedLines_ += lines;
}

void
GcProgram::fillCompactChunk(exec::Burst &burst)
{
    burst.mode = exec::ExecMode::User;
    const std::uint64_t lines = std::min<std::uint64_t>(
        copyChunkLines, totalCompactLines_ - compactedLines_);
    // Mark-compact touches old-generation data twice (mark + slide).
    burst.instructions = lines * work_.instrPerLine * 2;
    burst.code.base = gcText + 24 * 1024;
    burst.code.bytes = std::min<std::uint64_t>(burst.instructions * 4,
                                               2048);
    for (std::uint64_t i = 0; i < lines; ++i) {
        const std::uint64_t idx = compactedLines_ + i;
        burst.load(work_.oldBase + idx * 64);
        burst.store(work_.oldBase + idx * 64);
    }
    compactedLines_ += lines;
}

} // namespace middlesim::jvm
