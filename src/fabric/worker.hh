/**
 * @file
 * The fabric worker loop: serve leases over stdio frames.
 */

#ifndef FABRIC_WORKER_HH
#define FABRIC_WORKER_HH

#include "fabric/fabric.hh"

namespace middlesim::fabric
{

/**
 * Run the worker side of the `middlesim-fabric-v1` session on this
 * process's stdin/stdout: exchange HELLOs (verifying protocol version
 * and queue hash against the locally derived `items`), then execute
 * LEASE frames and stream RESULTs until BYE or EOF. A background
 * thread emits HEARTBEATs every kHeartbeatMs so the coordinator can
 * distinguish a long-running point from a hung worker.
 *
 * stdout is re-pointed at /dev/null for the duration — the frame
 * stream owns the original fd, so a stray printf in simulation code
 * can never corrupt the protocol.
 *
 * @return 0 on orderly shutdown (BYE or EOF), 1 on protocol errors
 * (version/hash mismatch, malformed frames — diagnosed on stderr).
 */
int runWorker(const std::vector<FabricItem> &items);

} // namespace middlesim::fabric

#endif // FABRIC_WORKER_HH
