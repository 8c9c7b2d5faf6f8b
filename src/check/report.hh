/**
 * @file
 * Violation collection for the invariant-checking layer.
 *
 * Checkers (src/check/) never act on the simulation; when an
 * invariant does not hold they report it here. In fail-fast mode (the
 * default for --check runs) the first violation aborts the run with a
 * diagnostic; in collection mode (stress/shrink) violations accumulate
 * up to a cap so a whole run can be surveyed.
 */

#ifndef CHECK_REPORT_HH
#define CHECK_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/log.hh"
#include "sim/ticks.hh"

namespace middlesim::check
{

/** One invariant violation. */
struct Violation
{
    /** Dotted invariant name, e.g. "mosi.peer-not-invalidated". */
    std::string invariant;
    /** Human-readable specifics (block, groups, states). */
    std::string detail;
    /** Simulated time of the triggering event. */
    sim::Tick tick = 0;
    /** Index of the memory reference being checked when it fired. */
    std::uint64_t refIndex = 0;
};

/** Behavior knobs for a checking session. */
struct CheckOptions
{
    /** Abort the process on the first violation (figure drivers). */
    bool failFast = true;
    /** Violations retained in collection mode. */
    std::size_t maxViolations = 16;
    /**
     * Run a full-state audit every this many checked references
     * (0 = only at finalize). Audits are O(cache size); per-access
     * checks already cover the referenced block.
     */
    std::uint64_t auditPeriod = 0;
};

/**
 * One-line rendering of a violation. Fail-fast prints it after
 * "invariant violated: ".
 */
inline std::string
formatViolation(const Violation &v)
{
    return v.invariant + " — " + v.detail + " (tick " +
           std::to_string(v.tick) + ", ref #" +
           std::to_string(v.refIndex) + ")";
}

/** Sink for violations plus per-run checking counters. */
class CheckReport
{
  public:
    CheckReport() = default;
    explicit CheckReport(const CheckOptions &opts) : opts_(opts) {}

    /** Report one violation (aborts in fail-fast mode). */
    void
    violate(const std::string &invariant, const std::string &detail,
            sim::Tick tick)
    {
        ++total_;
        if (opts_.failFast) {
            fatal("invariant violated: ",
                  formatViolation({invariant, detail, tick, refIndex}));
        }
        if (violations_.size() < opts_.maxViolations)
            violations_.push_back({invariant, detail, tick, refIndex});
    }

    bool clean() const { return total_ == 0; }
    std::uint64_t totalViolations() const { return total_; }
    const std::vector<Violation> &violations() const { return violations_; }
    const CheckOptions &options() const { return opts_; }

    /** Index of the reference currently being checked. */
    std::uint64_t refIndex = 0;
    /** References checked so far (bumped by the memory checker). */
    std::uint64_t refsChecked = 0;

  private:
    CheckOptions opts_;
    std::vector<Violation> violations_;
    std::uint64_t total_ = 0;
};

} // namespace middlesim::check

#endif // CHECK_REPORT_HH
