/**
 * @file
 * The all-figures runner: every figure of the paper off one global
 * deduplicated work queue — executed on the in-process thread pool,
 * or sharded over worker processes by the experiment fabric.
 */

#ifndef CORE_RUN_ALL_HH
#define CORE_RUN_ALL_HH

#include <cstdint>
#include <vector>

#include "core/figures.hh"
#include "fabric/fabric.hh"

namespace middlesim::core
{

/**
 * The canonical work queue of a full 13-figure campaign: every leaf
 * simulation any figure needs, deduplicated by content address, in a
 * fixed enumeration order. Coordinator and worker processes each call
 * this with the same environment-derived options and must obtain
 * byte-identical id sequences — the fabric's HELLO queue-hash check
 * enforces that they did.
 */
struct RunAllQueue
{
    /** Unique items, in canonical (figure enumeration) order. */
    std::vector<fabric::FabricItem> items;
    /** Leaf points requested before deduplication. */
    std::uint64_t requested = 0;
};

RunAllQueue buildRunAllQueue(const FigureOptions &opt);

/**
 * main() body of the run_all driver. Enumerates the leaf simulations
 * of all 13 figures, deduplicates them by content address, prefetches
 * the unique points across the thread pool, then renders each figure
 * in order — emitting output byte-identical to running the individual
 * drivers back to back.
 *
 * Options: the figure drivers' shared rows (driverOptions()) plus
 * run_all's own output and fabric rows; `--help` lists them all.
 * `--fabric=N` prefetches through N worker *processes* instead of the
 * thread pool (stdout stays byte-identical for any N, worker loss
 * included); `--fabric-worker-cmd=CMD` attaches each worker by running
 * `/bin/sh -c CMD` (e.g. ssh to another host) instead of re-executing
 * this binary; `--fabric-worker` runs the worker side of the line
 * protocol on stdin/stdout (spawned by the coordinator, not for
 * interactive use).
 *
 * @return 0 when every shape check of every figure passes.
 */
int runAllMain(int argc, char **argv);

} // namespace middlesim::core

#endif // CORE_RUN_ALL_HH
