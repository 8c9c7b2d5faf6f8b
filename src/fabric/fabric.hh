/**
 * @file
 * Shared types of the distributed experiment fabric.
 *
 * The fabric is generic over what a work item *is*: an item carries a
 * content-address id (hashed into the HELLO/LEASE checks) and a
 * closure that executes it and returns an opaque payload — for the
 * figure pipeline, an encoded MetricSnapshot delta; the simulation
 * results themselves are persisted into the shared disk RunCache by
 * the closure, never shipped through the protocol. Coordinator and
 * worker must derive byte-identical item id sequences from the same
 * inputs (environment + flags); the HELLO queue-hash check enforces
 * it.
 */

#ifndef FABRIC_FABRIC_HH
#define FABRIC_FABRIC_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace middlesim::fabric
{

/** One unit of leasable work. */
struct FabricItem
{
    /** Content address (stable across processes). */
    std::string id;
    /** Execute the item; returns the opaque RESULT payload. */
    std::function<std::string()> run;
};

struct FabricOptions
{
    /** Local worker processes to spawn. */
    unsigned workers = 1;
    /** argv of a worker process (typically self + --fabric-worker). */
    std::vector<std::string> workerArgv;
    /**
     * Alternative transport: spawn `/bin/sh -c <workerCommand>` per
     * worker instead of workerArgv — the command's stdin/stdout carry
     * the frames, so `ssh host run_all --fabric-worker ...` attaches
     * a remote worker.
     */
    std::string workerCommand;
};

/** Leases pipelined per worker (hides frame turnaround). */
inline constexpr unsigned kMaxOutstanding = 2;
/** Requeues before an item is left to the inline fallback. */
inline constexpr unsigned kMaxRequeues = 3;
/** Worker heartbeat period. */
inline constexpr unsigned kHeartbeatMs = 500;
/** Coordinator-side silence timeout before a worker is declared dead
 *  and its leases requeued. */
inline constexpr unsigned kTimeoutMs = 20000;

struct FabricStats
{
    unsigned workersSpawned = 0;
    /** Accepted worker RESULTs. */
    std::uint64_t executed = 0;
    /** Items run by the coordinator's inline fallback. */
    std::uint64_t inlineRuns = 0;
    std::uint64_t requeues = 0;
    std::uint64_t staleResults = 0;
    std::uint64_t duplicateResults = 0;
    std::uint64_t workerDeaths = 0;
    std::uint64_t heartbeats = 0;
    /** Sum of worker-reported per-item seconds (cpu-time proxy). */
    double workerSeconds = 0.0;
};

} // namespace middlesim::fabric

#endif // FABRIC_FABRIC_HH
