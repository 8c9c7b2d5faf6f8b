/**
 * @file
 * The all-figures runner: every figure of the paper off one global
 * deduplicated work queue, executed on the in-process thread pool.
 */

#ifndef CORE_RUN_ALL_HH
#define CORE_RUN_ALL_HH

namespace middlesim::core
{

/**
 * main() body of the run_all driver. Enumerates the leaf simulations
 * of all 13 figures, deduplicates them by content address, prefetches
 * the unique points across the thread pool, then renders each figure
 * in order — emitting output byte-identical to running the individual
 * drivers back to back.
 *
 * Options: the figure drivers' shared rows (driverOptions()) plus
 * run_all's own output rows; `--help` lists them all. Separate
 * processes share results through one `--cache-dir`.
 *
 * @return 0 when every shape check of every figure passes.
 */
int runAllMain(int argc, char **argv);

} // namespace middlesim::core

#endif // CORE_RUN_ALL_HH
