/**
 * @file
 * The `middlesim-trace` command-line tool: inspect, validate, record
 * and replay `middlesim-trace-v3` reference traces.
 */

#ifndef CORE_TRACE_TOOL_HH
#define CORE_TRACE_TOOL_HH

namespace middlesim::core
{

/**
 * main() body of the middlesim-trace driver.
 *
 * Subcommands (`middlesim-trace --help` also lists the options of
 * timeline, record and replay, one table each):
 *   info FILE            header, record counts, annotation breakdown
 *   validate FILE        full structural validation (exit 0 iff valid)
 *   timeline FILE        annotation timeline (GC windows, mode
 *                        switches, migrations, ...)
 *   record --out=FILE    execution-driven run recorded to FILE
 *   replay FILE          replay into a rebuilt hierarchy and print the
 *                        miss breakdown
 *   sweep FILE           replay into the paper's 64KB..16MB cache
 *                        sweep (Figures 12/13)
 *   sharing FILE         replay at every shared-L2 degree dividing the
 *                        recorded machine (Figure 16 what-if)
 *
 * @return 0 on success / valid trace, 1 otherwise.
 */
int traceToolMain(int argc, char **argv);

} // namespace middlesim::core

#endif // CORE_TRACE_TOOL_HH
