/**
 * @file
 * Checker: the bundled invariant-checking session.
 *
 * One Checker owns a CheckReport and the three per-layer observers
 * (memory, scheduler, JVM), attaches them on construction and
 * detaches on destruction. Checking is opt-in: figure drivers arm it
 * via --check or MIDDLESIM_CHECK=1; when off, the observers are never
 * constructed and every layer pays only a null-pointer branch (the
 * mem::TraceSink pattern). Attaching a checker never changes
 * simulation results — observers are read-only by contract.
 */

#ifndef CHECK_CHECKER_HH
#define CHECK_CHECKER_HH

#include <memory>

#include "check/report.hh"
#include "jvm/jvm.hh"
#include "mem/hierarchy.hh"
#include "os/scheduler.hh"

namespace middlesim::check
{

class MemChecker;
class SchedChecker;
class JvmChecker;

/** A full checking session attached to one simulated system. */
class Checker
{
  public:
    /** Check a whole System: memory + scheduler + JVM invariants. */
    Checker(mem::Hierarchy &hierarchy, os::Scheduler &sched,
            jvm::Jvm &jvm, unsigned gc_cpu,
            const CheckOptions &opts = CheckOptions());

    ~Checker();

    Checker(const Checker &) = delete;
    Checker &operator=(const Checker &) = delete;

    /** Run the full-state audit (end of measurement / of a run). */
    void finalize(sim::Tick now = 0);

    CheckReport &report() { return report_; }
    const CheckReport &report() const { return report_; }

  private:
    mem::Hierarchy &hierarchy_;
    os::Scheduler &sched_;
    jvm::Jvm &jvm_;

    CheckReport report_;
    std::unique_ptr<MemChecker> mem_;
    std::unique_ptr<SchedChecker> schedCk_;
    std::unique_ptr<JvmChecker> jvmCk_;
};

/**
 * Process-wide opt-in: false until setCheckingEnabled(true) is called
 * (by the figure drivers' --check / MIDDLESIM_CHECK=1).
 */
bool checkingEnabled();
void setCheckingEnabled(bool on);

/** Options used for checkers armed via checkingEnabled(). */
CheckOptions &defaultCheckOptions();

} // namespace middlesim::check

#endif // CHECK_CHECKER_HH
