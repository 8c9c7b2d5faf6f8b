#include "os/scheduler.hh"

#include <algorithm>

#include "sim/log.hh"

namespace middlesim::os
{

Scheduler::Scheduler(unsigned total_cpus, unsigned app_cpus,
                     sim::Tick rechoose, sim::EventJournal *journal)
    : totalCpus_(total_cpus), appCpus_(app_cpus),
      boundQueues_(total_cpus), modes_(total_cpus),
      rechoose_(rechoose), journal_(journal)
{
    if (app_cpus == 0 || app_cpus > total_cpus)
        fatal("scheduler: appCpus must be in [1, totalCpus]");
}

unsigned
Scheduler::addThread(exec::ThreadProgram *program, bool in_app_set,
                     int bound_cpu)
{
    const unsigned tid = static_cast<unsigned>(threads_.size());
    SimThread t;
    t.tid = tid;
    t.program = program;
    t.inAppSet = in_app_set;
    t.boundCpu = bound_cpu;
    t.state = ThreadState::Runnable;
    threads_.push_back(t);
    if (bound_cpu >= 0) {
        sim_assert(static_cast<unsigned>(bound_cpu) < totalCpus_,
                   "bound CPU out of range");
        boundQueues_[static_cast<unsigned>(bound_cpu)].push_back(tid);
    } else {
        runQueue_.push_back(tid);
    }
    return tid;
}

void
Scheduler::wakeDue(sim::Tick now)
{
    while (!timers_.empty() && timers_.top().first <= now) {
        const unsigned tid = timers_.top().second;
        timers_.pop();
        SimThread &t = threads_[tid];
        // A thread may have been woken explicitly in the meantime.
        if (t.state == ThreadState::Blocked)
            wake(tid, false, now);
    }
}

int
Scheduler::pickFor(unsigned cpu, sim::Tick now, bool gc_active)
{
    wakeDue(now);

    // Bound threads (OS housekeepers, the GC thread) first.
    auto &bq = boundQueues_[cpu];
    if (!bq.empty()) {
        const unsigned tid = bq.front();
        bq.pop_front();
        if (observer_)
            observer_->onDispatch(cpu, threads_[tid], gc_active, now);
        threads_[tid].state = ThreadState::Running;
        return static_cast<int>(tid);
    }

    // App threads only on processor-set CPUs, and never during a
    // stop-the-world collection. Prefer a thread that last ran here
    // (Solaris dispatcher affinity): thread migration would defeat
    // the cache locality the paper's machine exhibits.
    if (cpu < appCpus_ && !gc_active && !runQueue_.empty()) {
        const std::size_t scan =
            std::min(runQueue_.size(), kScanSlots);
        // Home threads first (cache affinity).
        for (std::size_t i = 0; i < scan; ++i) {
            const unsigned tid = runQueue_[i];
            if (threads_[tid].lastCpu == static_cast<int>(cpu)) {
                runQueue_.erase(runQueue_.begin() +
                                static_cast<long>(i));
                if (observer_)
                    observer_->onDispatch(cpu, threads_[tid], gc_active, now);
                threads_[tid].state = ThreadState::Running;
                return static_cast<int>(tid);
            }
        }
        // Otherwise migrate only a thread that never ran or has aged
        // past the rechoose interval (migration resistance).
        for (std::size_t i = 0; i < scan; ++i) {
            const unsigned tid = runQueue_[i];
            SimThread &t = threads_[tid];
            if (t.lastCpu < 0 ||
                now >= t.queuedSince + rechoose_) {
                runQueue_.erase(runQueue_.begin() +
                                static_cast<long>(i));
                if (observer_)
                    observer_->onDispatch(cpu, t, gc_active, now);
                t.state = ThreadState::Running;
                if (t.lastCpu >= 0 &&
                    t.lastCpu != static_cast<int>(cpu)) {
                    ++migrations_;
                    if (traceSink_) {
                        traceSink_->annotation(
                            mem::TraceAnnotation::Migration, cpu, now,
                            tid);
                    }
                    if (journal_) {
                        journal_->record(now, "sched.migrate",
                                         "tid=" + std::to_string(tid) +
                                         " cpu=" +
                                         std::to_string(t.lastCpu) +
                                         "->" + std::to_string(cpu));
                    }
                }
                t.lastCpu = static_cast<int>(cpu);
                return static_cast<int>(tid);
            }
        }
    }
    return -1;
}

sim::Tick
Scheduler::nextChance(unsigned cpu, sim::Tick now, bool gc_active) const
{
    sim::Tick next = timers_.empty() ? kNever : timers_.top().first;
    if (cpu < appCpus_ && !gc_active) {
        const std::size_t scan = std::min(runQueue_.size(), kScanSlots);
        for (std::size_t i = 0; i < scan; ++i) {
            next = std::min(next, threads_[runQueue_[i]].queuedSince +
                                      rechoose_);
        }
    }
    sim_assert(next > now, "next scheduling chance ", next,
               " not after the failed pick at ", now);
    return next;
}

void
Scheduler::yield(unsigned tid, sim::Tick now)
{
    SimThread &t = threads_[tid];
    sim_assert(t.state == ThreadState::Running, "yield of non-running");
    t.state = ThreadState::Runnable;
    t.queuedSince = now;
    if (t.boundCpu >= 0)
        boundQueues_[static_cast<unsigned>(t.boundCpu)].push_back(tid);
    else
        runQueue_.push_back(tid);
}

void
Scheduler::block(unsigned tid)
{
    SimThread &t = threads_[tid];
    sim_assert(t.state == ThreadState::Running, "block of non-running");
    t.state = ThreadState::Blocked;
}

void
Scheduler::blockUntil(unsigned tid, sim::Tick wake_time)
{
    block(tid);
    threads_[tid].wakeTime = wake_time;
    timers_.push({wake_time, tid});
}

void
Scheduler::wake(unsigned tid, bool front, sim::Tick now,
                bool migratable)
{
    SimThread &t = threads_[tid];
    if (t.state != ThreadState::Blocked)
        return;
    t.state = ThreadState::Runnable;
    // Migratable turnstile wakeups (resource-pool handoffs) are
    // dispatched by the first free CPU; lock handoffs keep their home
    // affinity (the home CPU is usually idle-waiting already).
    if (migratable && now >= rechoose_)
        t.queuedSince = now - rechoose_;
    else if (migratable)
        t.queuedSince = 0;
    else
        t.queuedSince = now;
    if (t.boundCpu >= 0) {
        auto &q = boundQueues_[static_cast<unsigned>(t.boundCpu)];
        if (front)
            q.push_front(tid);
        else
            q.push_back(tid);
    } else if (front) {
        runQueue_.push_front(tid);
    } else {
        runQueue_.push_back(tid);
    }
}

void
Scheduler::finish(unsigned tid)
{
    threads_[tid].state = ThreadState::Finished;
}

std::size_t
Scheduler::runnableCount() const
{
    std::size_t n = runQueue_.size();
    for (const auto &bq : boundQueues_)
        n += bq.size();
    return n;
}

void
Scheduler::accountMode(unsigned cpu, exec::ExecMode mode, sim::Tick cycles)
{
    if (mode == exec::ExecMode::User)
        modes_[cpu].user += cycles;
    else
        modes_[cpu].system += cycles;
}

void
Scheduler::accountIdle(unsigned cpu, sim::Tick cycles, bool gc_active)
{
    if (gc_active)
        modes_[cpu].gcIdle += cycles;
    else
        modes_[cpu].idle += cycles;
}

ModeBreakdown
Scheduler::appModes() const
{
    ModeBreakdown out;
    for (unsigned c = 0; c < appCpus_; ++c)
        out.accumulate(modes_[c]);
    return out;
}

ModeBreakdown
Scheduler::allModes() const
{
    ModeBreakdown out;
    for (const auto &m : modes_)
        out.accumulate(m);
    return out;
}

void
Scheduler::resetAccounting()
{
    for (auto &m : modes_)
        m = ModeBreakdown();
    contextSwitches_ = 0;
    migrations_ = 0;
}

} // namespace middlesim::os
