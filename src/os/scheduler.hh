/**
 * @file
 * Processor-set aware thread scheduler with mode accounting.
 *
 * Mirrors the Solaris setup of the paper: the benchmark's threads are
 * confined to a processor set of `appCpus` processors (psrset), while
 * OS background threads run on all processors of the machine. The
 * scheduler keeps a global FIFO run queue for app threads, honors
 * per-CPU pinning for bound threads, wakes timed waiters, and
 * accumulates the per-CPU execution-mode breakdown of Figure 5.
 */

#ifndef OS_SCHEDULER_HH
#define OS_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "exec/program.hh"
#include "mem/trace_sink.hh"
#include "os/modes.hh"
#include "os/sched_observer.hh"
#include "os/thread.hh"
#include "sim/metrics.hh"
#include "sim/ticks.hh"

namespace middlesim::os
{

/** FIFO scheduler over a processor set, with timed waits. */
class Scheduler
{
  public:
    /**
     * @param rechoose migration resistance: an unbound thread may run
     *        on a non-home CPU only after waiting this many cycles in
     *        the run queue (Solaris ts_rechoose_interval). Preserves
     *        per-CPU cache affinity under frequent blocking.
     * @param journal where migrations are journaled (`sched.migrate`);
     *        nullptr journals nothing.
     */
    Scheduler(unsigned total_cpus, unsigned app_cpus,
              sim::Tick rechoose = 1000000,
              sim::EventJournal *journal = nullptr);

    /** Register a thread; returns its tid. The program is borrowed. */
    unsigned addThread(exec::ThreadProgram *program, bool in_app_set,
                       int bound_cpu = -1);

    SimThread &thread(unsigned tid) { return threads_[tid]; }
    const SimThread &thread(unsigned tid) const { return threads_[tid]; }

    unsigned totalCpus() const { return totalCpus_; }
    unsigned appCpus() const { return appCpus_; }

    /**
     * Pick a thread for `cpu` at time `now`. Due timed waiters are
     * woken first. Bound threads take priority on their CPU; app
     * threads are only eligible on CPUs inside the processor set.
     * Returns the tid, or -1 if the CPU should idle. The chosen
     * thread transitions to Running.
     */
    int pickFor(unsigned cpu, sim::Tick now, bool gc_active);

    /**
     * The earliest time after `now` at which pickFor(cpu, t,
     * gc_active) could succeed, given that it just failed at `now`
     * and nothing else touches the scheduler in between; kNever when
     * no such time exists. A failing pick changes state only by
     * waking due timers, so the candidates are the earliest pending
     * timer and, on a processor-set CPU outside a collection, the
     * moment a thread in the scanned queue slots ages past the
     * rechoose interval (home and never-run threads there would
     * already have been picked). A stale timer (its thread already
     * woken) counts too, so the answer may be early, never late.
     */
    sim::Tick nextChance(unsigned cpu, sim::Tick now,
                         bool gc_active) const;

    static constexpr sim::Tick kNever =
        std::numeric_limits<sim::Tick>::max();

    /** Return a running thread to the run queue (timeslice expiry). */
    void yield(unsigned tid, sim::Tick now = 0);

    /** Block a running thread (lock/pool wait). */
    void block(unsigned tid);

    /** Block a running thread until `wake_time`. */
    void blockUntil(unsigned tid, sim::Tick wake_time);

    /**
     * Make a blocked thread runnable. Lock and pool handoffs pass
     * `front = true`: like Solaris turnstiles, the new owner of a
     * contended resource is dispatched ahead of ordinary runnable
     * threads so the resource is not held across a full queue cycle.
     */
    void wake(unsigned tid, bool front = false, sim::Tick now = 0,
              bool migratable = false);

    /** Mark a thread finished (service threads). */
    void finish(unsigned tid);

    /** Threads currently in Runnable state (queued). */
    std::size_t runnableCount() const;

    /** Mode accounting. */
    void accountMode(unsigned cpu, exec::ExecMode mode, sim::Tick cycles);
    void accountIdle(unsigned cpu, sim::Tick cycles, bool gc_active);

    const ModeBreakdown &modes(unsigned cpu) const { return modes_[cpu]; }

    /** Aggregate mode breakdown over the application processor set. */
    ModeBreakdown appModes() const;

    /** Aggregate mode breakdown over all processors. */
    ModeBreakdown allModes() const;

    std::uint64_t contextSwitches() const { return contextSwitches_; }
    void countContextSwitch() { ++contextSwitches_; }

    /** Dispatches of a thread on a CPU other than its last one. */
    std::uint64_t migrations() const { return migrations_; }

    /** Record migrations into a reference trace (nullptr detaches). */
    void setTraceSink(mem::TraceSink *sink) { traceSink_ = sink; }

    /** Attach a dispatch-invariant observer (nullptr detaches). */
    void setObserver(SchedObserver *obs) { observer_ = obs; }

    void resetAccounting();

  private:
    /** Run-queue slots pickFor scans for an app-set CPU. */
    static constexpr std::size_t kScanSlots = 64;

    void wakeDue(sim::Tick now);

    unsigned totalCpus_;
    unsigned appCpus_;
    std::deque<SimThread> threads_;

    /** Global FIFO of runnable, unbound app threads. */
    std::deque<unsigned> runQueue_;
    /** Per-CPU queues of runnable bound threads. */
    std::vector<std::deque<unsigned>> boundQueues_;

    /** Min-heap of (wakeTime, tid) for timed waits. */
    using TimerEntry = std::pair<sim::Tick, unsigned>;
    std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                        std::greater<>> timers_;

    std::vector<ModeBreakdown> modes_;
    std::uint64_t contextSwitches_ = 0;
    sim::Tick rechoose_;

    std::uint64_t migrations_ = 0;
    sim::EventJournal *journal_;
    mem::TraceSink *traceSink_ = nullptr;
    SchedObserver *observer_ = nullptr;
};

} // namespace middlesim::os

#endif // OS_SCHEDULER_HH
