/**
 * @file
 * ExploreScheduler: deterministic replay of one chosen interleaving.
 *
 * Where the simulator's normal dispatch policy decides which CPU's
 * reference executes next, the explorer decides: step(cpu) executes
 * exactly the next reference of that CPU against a fresh hierarchy
 * with a collection-mode MemChecker attached, and logs it. Branching
 * in the DFS is realized by re-execution from the logged prefix —
 * reset() rebuilds the hierarchy and checker from scratch, and the
 * engine replays the prefix recorded on its stack. (A snapshot/restore
 * alternative was considered and rejected: the hierarchy plus shadow
 * model is a few KB and a prefix is at most a few dozen references,
 * so replay is cheaper than deep-copying both; see DESIGN.md §3.12.)
 */

#ifndef EXPLORE_SCHEDULER_HH
#define EXPLORE_SCHEDULER_HH

#include <memory>
#include <vector>

#include "check/mem_checker.hh"
#include "check/report.hh"
#include "explore/interleave.hh"
#include "mem/fault.hh"
#include "mem/hierarchy.hh"
#include "trace/format.hh"
#include "trace/reader.hh"

namespace middlesim::explore
{

/** Controllable scheduler replaying one interleaving at a time. */
class ExploreScheduler
{
  public:
    /** `streams` and `fault` must outlive the scheduler. */
    ExploreScheduler(const trace::TraceHeader &header,
                     const Streams &streams,
                     const mem::FaultPlan *fault);

    /** Fresh hierarchy + checker; all stream positions rewound. */
    void reset();

    /** True once every stream is exhausted. */
    bool done() const { return executedCount_ == totalRefs_; }

    /** References of `cpu` not yet executed. */
    bool hasNext(unsigned cpu) const
    {
        return pos_[cpu] < streams_->at(cpu).size();
    }

    /** Position of `cpu` in its stream (references executed). */
    std::uint32_t posOf(unsigned cpu) const { return pos_[cpu]; }

    /**
     * Execute the next reference of `cpu`. Check violated()
     * afterwards; a violated scheduler must be reset() before further
     * stepping.
     */
    void step(unsigned cpu);

    bool violated() const { return !report_->clean(); }
    const check::Violation &violation() const
    {
        return report_->violations().front();
    }

    /** The interleaving executed since reset(), as trace records. */
    const std::vector<trace::TraceRecord> &executed() const
    {
        return executed_;
    }

    /** References checked since reset(). */
    std::uint64_t refsChecked() const { return report_->refsChecked; }

    /** Capacity/conflict misses of the current execution so far. */
    std::uint64_t capacityMisses() const;

    /** Deterministic tick of global step `index` (0-based). */
    static sim::Tick tickOf(std::size_t index)
    {
        return 1000 + 16 * static_cast<sim::Tick>(index);
    }

  private:
    const trace::TraceHeader &header_;
    const Streams *streams_;
    const mem::FaultPlan *fault_;
    std::size_t totalRefs_;

    std::unique_ptr<mem::Hierarchy> hierarchy_;
    std::unique_ptr<check::CheckReport> report_;
    std::unique_ptr<check::MemChecker> checker_;

    std::vector<std::uint32_t> pos_;
    std::size_t executedCount_ = 0;
    std::vector<trace::TraceRecord> executed_;
};

} // namespace middlesim::explore

#endif // EXPLORE_SCHEDULER_HH
