/**
 * @file
 * Content-addressed simulation memoization.
 *
 * Every measured point of the paper reproduction is a pure
 * deterministic function of (ExperimentSpec, seed) — the Alameldeen &
 * Wood multi-run methodology guarantees it. This module exploits
 * that: a canonical, version-stamped encoding of every spec field
 * acts as the content address of a run, and RunCache memoizes run
 * payloads under those addresses in two layers:
 *
 *  - an always-on in-process memo, so duplicate (spec, seed) points
 *    in one process simulate exactly once, and
 *  - an optional on-disk cache (--cache-dir=PATH / MIDDLESIM_CACHE,
 *    `middlesim-cache-v2` file format), so whole figure drivers can
 *    re-run near-instantly across processes.
 *
 * The payload codecs round-trip bit-exactly (doubles travel as
 * IEEE-754 bit patterns), so a cache hit is byte-identical to a
 * fresh simulation — tests/test_cache.cpp enforces this. Corrupt,
 * truncated or version-mismatched cache files are treated as misses,
 * never as errors.
 */

#ifndef CORE_CACHE_HH
#define CORE_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/experiment.hh"
#include "sim/log.hh"
#include "sim/serialize.hh"

namespace middlesim::core
{

/**
 * Cache schema identifier. Bump whenever the spec encoding, a payload
 * codec, or any simulation behavior changes in a way that invalidates
 * stored results (see EXPERIMENTS.md "When to wipe the cache"); old
 * files then read as misses.
 */
inline constexpr const char *cacheSchemaVersion = "middlesim-cache-v3";

/**
 * Canonical, version-stamped structural encoding of an ExperimentSpec:
 * every field of the spec and every nested SystemConfig / machine /
 * latency / core / JVM / kernel / workload parameter, in a fixed
 * order. Two specs have equal keys iff every field is equal; the key
 * is the content address of the simulation.
 */
std::string encodeSpecKey(const ExperimentSpec &spec);

/** File name of a cached payload: "<kind>-<fnv1a64 hex>.msc". */
std::string cacheFileName(const std::string &kind,
                          const std::string &key);

/** Exact (bit-for-bit) snapshot codec, for payloads that embed one. */
void encodeSnapshot(sim::ByteWriter &w, const sim::MetricSnapshot &s);
sim::MetricSnapshot decodeSnapshot(sim::ByteReader &r);

/** Exact RunResult codec (scalars, breakdowns, metrics snapshot). */
std::string encodeRunResult(const RunResult &r);
bool decodeRunResult(const std::string &payload, RunResult &out);

/**
 * Two-layer content-addressed payload store. Payloads are opaque
 * byte strings produced by the codecs above; keys are canonical
 * encodings (full keys are stored and verified, so a 64-bit file-name
 * hash collision degrades to a miss, never to a wrong result).
 */
class RunCache
{
  public:
    /** The process-wide cache used by the experiment runner. */
    static RunCache &global();

    /**
     * Enable the disk layer rooted at `dir` (created on demand);
     * empty disables it. The in-process memo is always active.
     */
    void setDiskDir(std::string dir);

    /** Memory-then-disk lookup. @return true and fill `payload`. */
    bool fetch(const std::string &kind, const std::string &key,
               std::string &payload);

    /** Store in the memo and, when enabled, on disk (atomically). */
    void store(const std::string &kind, const std::string &key,
               const std::string &payload);

    /** Drop every memoized payload (tests; disk is untouched). */
    void clearMemory();

    struct Stats
    {
        std::uint64_t memoryHits = 0;
        std::uint64_t diskHits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        /**
         * Misses where a disk entry existed but failed validation
         * (truncated write observed mid-read by another process,
         * checksum mismatch, foreign schema). The caller re-simulates
         * and store() atomically rewrites the entry, so a corrupt
         * artifact heals on the next touch — processes that share
         * one --cache-dir rely on this.
         */
        std::uint64_t corruptMisses = 0;
    };

    Stats stats() const;
    void resetStats();

  private:
    enum class DiskLoad
    {
        Hit,
        Absent,
        Corrupt,
    };

    std::string diskDir() const;
    DiskLoad loadDisk(const std::string &kind, const std::string &key,
                      std::string &payload) const;
    void storeDisk(const std::string &kind, const std::string &key,
                   const std::string &payload) const;

    mutable std::mutex mutex_;
    std::string dir_;
    std::map<std::pair<std::string, std::string>, std::string> memo_;
    Stats stats_;
};

/**
 * `run()` through the content-addressed cache, the one path of every
 * cached kind: compute the key of `spec`, fetch (memo, then disk)
 * and decode under `kind`, or simulate on a miss and store. A
 * payload that does not decode is warned about and re-simulated.
 * Results are byte-identical to calling `run()` directly.
 */
template <typename T, typename Decode, typename Encode, typename Run>
T
throughCache(const char *kind, const ExperimentSpec &spec,
             Decode decode, Encode encode, Run run)
{
    const std::string key = encodeSpecKey(spec);
    RunCache &cache = RunCache::global();
    std::string payload;
    if (cache.fetch(kind, key, payload)) {
        T cached;
        if (decode(payload, cached))
            return cached;
        warn("cache: undecodable '", kind,
             "' payload; re-simulating");
    }
    T fresh = run();
    cache.store(kind, key, encode(fresh));
    return fresh;
}

/** runExperiment() through the cache (kind "run"). */
RunResult cachedRunExperiment(const ExperimentSpec &spec);

} // namespace middlesim::core

#endif // CORE_CACHE_HH
