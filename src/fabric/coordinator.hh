/**
 * @file
 * The fabric coordinator: shard a canonical work queue over worker
 * processes, merge streamed results, survive worker loss.
 */

#ifndef FABRIC_COORDINATOR_HH
#define FABRIC_COORDINATOR_HH

#include "fabric/fabric.hh"

namespace middlesim::fabric
{

/**
 * Called once per *accepted* RESULT (worker or inline fallback) with
 * the item index and the opaque payload bytes, in completion order.
 */
using ResultSink =
    std::function<void(std::size_t, const std::string &)>;

/**
 * Run the coordinator side: spawn `opt.workers` worker processes
 * (opt.workerArgv, or `/bin/sh -c opt.workerCommand`), shard `items`
 * over them through the lease table, and merge RESULTs incrementally
 * through `sink`. Worker death (EOF, SIGKILL) or heartbeat silence
 * beyond kTimeoutMs requeues that worker's leases under a bumped
 * epoch; stale-epoch RESULTs are dropped. If every worker is lost (or
 * an item exhausts its requeue budget), the remaining items run
 * inline in this process, so the campaign always completes with every
 * item executed exactly once from the sink's point of view.
 *
 * Completion is guaranteed; ordering is not — callers needing
 * deterministic output must render from the shared artifact store
 * (the disk RunCache) after this returns, exactly like single-process
 * run_all renders from its memo.
 */
FabricStats runCoordinator(const std::vector<FabricItem> &items,
                           const FabricOptions &opt,
                           const ResultSink &sink);

/** Absolute path of the running executable (for workerArgv). */
std::string selfExePath();

} // namespace middlesim::fabric

#endif // FABRIC_COORDINATOR_HH
