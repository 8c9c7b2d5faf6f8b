/**
 * @file
 * The instruction bound of one collection, shared by the JVM tests:
 * root scan, plus the per-line cost of every survivor copied and
 * twice that for every old-generation line compacted. test_jvm
 * checks jvm::GcProgram's emitted instruction count against it.
 */

#ifndef TESTS_GC_BOUND_HH
#define TESTS_GC_BOUND_HH

#include <cstdint>

#include "jvm/gc.hh"

namespace middlesim::test
{

/** Total instructions a collection of `work` will execute (estimate). */
inline std::uint64_t
estimateInstructions(const jvm::GcWork &work)
{
    return work.rootScanInstr +
           (work.survivorBytes / 64) * work.instrPerLine +
           (work.compactBytes / 64) * work.instrPerLine * 2;
}

} // namespace middlesim::test

#endif // TESTS_GC_BOUND_HH
