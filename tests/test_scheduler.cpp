/**
 * @file
 * Scheduler, thread state, locks and pools.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "exec/program.hh"
#include "os/scheduler.hh"
#include "sim/rng.hh"

using namespace middlesim;
using exec::Lock;
using exec::ResourcePool;
using os::Scheduler;
using os::ThreadState;

namespace
{

/** Trivial program: tests drive the scheduler directly. */
class NullProgram : public exec::ThreadProgram
{
  public:
    exec::NextOp
    next(exec::Burst &, sim::Tick) override
    {
        exec::NextOp op;
        op.kind = exec::OpKind::Exit;
        return op;
    }
};

NullProgram prog;

/** The idle CPU's poll period in System::runCpu. */
constexpr sim::Tick kPoll = 500;

/** A timed wait armed by a scenario: (wake time, tid). */
using Timer = std::pair<sim::Tick, unsigned>;

/** What one idle stretch saw. */
struct Stretch
{
    /** Jump targets polled. */
    unsigned targets = 0;
    /** Targets where a due timer queued a thread the CPU cannot take. */
    unsigned woke = 0;
    /** Targets where only stale timers fell due: nothing changed. */
    unsigned stale = 0;
    /** The thread the last target dispatched, or -1 (the horizon). */
    int picked = -1;
};

/**
 * Drive one idle stretch of `cpu` from `now` to at most `horizon` on
 * two identical schedulers that have both just failed pickFor(cpu,
 * now, gc). `jumper` follows System::runCpu: it jumps to the first
 * kPoll boundary at or after nextChance() and polls only there.
 * `poller` polls at every boundary. No poll before a jump target may
 * dispatch or change runnableCount(); the target poll must, unless
 * only stale timers fell due. `timers` lists every timed wait armed.
 */
Stretch
expectJumpMatchesPolling(Scheduler &jumper, Scheduler &poller,
                         unsigned cpu, sim::Tick now, bool gc,
                         sim::Tick horizon,
                         const std::vector<Timer> &timers)
{
    Stretch out;
    sim::Tick t = now;
    for (;;) {
        const sim::Tick chance = jumper.nextChance(cpu, t, gc);
        EXPECT_GT(chance, t);
        sim::Tick target = horizon;
        if (chance < horizon) {
            target = std::min(
                horizon, t + (chance - t + kPoll - 1) / kPoll * kPoll);
        }
        const std::size_t queued = poller.runnableCount();
        for (sim::Tick p = t + kPoll; p < target; p += kPoll) {
            EXPECT_EQ(poller.pickFor(cpu, p, gc), -1) << "poll at " << p;
            EXPECT_EQ(poller.runnableCount(), queued) << "poll at " << p;
        }
        if (target >= horizon)
            return out;

        // A due timer is live while its thread is still blocked.
        bool live_due = false;
        bool stale_due = false;
        for (const Timer &timer : timers) {
            if (timer.first <= t || timer.first > target)
                continue;
            if (jumper.thread(timer.second).state ==
                os::ThreadState::Blocked)
                live_due = true;
            else
                stale_due = true;
        }
        ++out.targets;
        const int picked = jumper.pickFor(cpu, target, gc);
        EXPECT_EQ(poller.pickFor(cpu, target, gc), picked)
            << "target " << target;
        EXPECT_EQ(jumper.runnableCount(), poller.runnableCount());
        if (picked >= 0) {
            out.picked = picked;
            return out;
        }
        if (live_due) {
            EXPECT_NE(jumper.runnableCount(), queued);
            ++out.woke;
        } else {
            EXPECT_TRUE(stale_due)
                << "the jump to " << target << " found nothing to do";
            EXPECT_EQ(jumper.runnableCount(), queued);
            ++out.stale;
        }
        t = target;
    }
}

/** Where a scenario left its CPU idle: pickFor just failed there. */
struct IdlePoint
{
    unsigned cpu = 0;
    sim::Tick now = 0;
    bool gc = false;
};

IdlePoint
idleAt(Scheduler &s, unsigned cpu, sim::Tick now, bool gc)
{
    EXPECT_EQ(s.pickFor(cpu, now, gc), -1);
    return {cpu, now, gc};
}

/** Builds a scheduler's state, records its timers, ends idle. */
using Scenario = std::function<IdlePoint(Scheduler &, std::vector<Timer> &)>;

/**
 * Build `scenario` on two identical schedulers and compare the
 * jumping and polling idle stretch over one `window`.
 */
Stretch
runScenario(unsigned total_cpus, unsigned app_cpus, sim::Tick rechoose,
            sim::Tick window, const Scenario &scenario)
{
    Scheduler jumper(total_cpus, app_cpus, rechoose);
    Scheduler poller(total_cpus, app_cpus, rechoose);
    std::vector<Timer> timers;
    std::vector<Timer> twin_timers;
    const IdlePoint at = scenario(jumper, timers);
    const IdlePoint twin = scenario(poller, twin_timers);
    EXPECT_EQ(at.cpu, twin.cpu);
    EXPECT_EQ(at.now, twin.now);
    EXPECT_EQ(timers, twin_timers);
    return expectJumpMatchesPolling(jumper, poller, at.cpu, at.now, at.gc,
                                    at.now + window, timers);
}

/**
 * A seeded random history ending in a failing pick: app and bound
 * threads run, yield, block, sleep on timers and are woken (turning
 * some timers stale). A pure function of the seed and the
 * scheduler's shape.
 */
IdlePoint
randomHistory(Scheduler &s, std::uint64_t seed, std::vector<Timer> &timers)
{
    sim::Rng rng(seed);
    const unsigned cpus = s.totalCpus();
    const auto apps = 1 + static_cast<unsigned>(rng.uniform(90));
    for (unsigned i = 0; i < apps; ++i)
        s.addThread(&prog, true);
    for (unsigned c = 0; c < cpus; ++c) {
        if (rng.chance(0.5))
            s.addThread(&prog, false, static_cast<int>(c));
    }
    std::vector<int> running(cpus, -1);
    std::vector<unsigned> blocked;
    sim::Tick now = 0;
    for (unsigned step = 0;; ++step) {
        now += rng.uniform(400);
        const auto cpu = static_cast<unsigned>(rng.uniform(cpus));
        const bool gc = rng.chance(0.15);
        if (running[cpu] < 0) {
            running[cpu] = s.pickFor(cpu, now, gc);
            if (running[cpu] < 0 && step >= 300)
                return {cpu, now, gc};
            continue;
        }
        const auto tid = static_cast<unsigned>(running[cpu]);
        switch (rng.uniform(5)) {
          case 0:
            s.yield(tid, now);
            running[cpu] = -1;
            break;
          case 1:
            s.block(tid);
            blocked.push_back(tid);
            running[cpu] = -1;
            break;
          case 2:
          case 3: {
            const sim::Tick wake = now + 1 + rng.uniform(6000);
            s.blockUntil(tid, wake);
            timers.emplace_back(wake, tid);
            blocked.push_back(tid);
            running[cpu] = -1;
            break;
          }
          default:
            // The running thread wakes a blocked one: a lock or pool
            // handoff; any timer of the woken thread goes stale.
            if (!blocked.empty()) {
                const std::size_t i = rng.uniform(blocked.size());
                s.wake(blocked[i], rng.chance(0.3), now, rng.chance(0.3));
                blocked.erase(blocked.begin() +
                              static_cast<std::ptrdiff_t>(i));
            }
            break;
        }
    }
}

} // namespace

TEST(Scheduler, FifoOrder)
{
    Scheduler sched(4, 4);
    const unsigned a = sched.addThread(&prog, true);
    const unsigned b = sched.addThread(&prog, true);
    EXPECT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
    EXPECT_EQ(sched.pickFor(1, 0, false), static_cast<int>(b));
    EXPECT_EQ(sched.pickFor(2, 0, false), -1);
}

TEST(Scheduler, BoundThreadsOnlyOnTheirCpu)
{
    Scheduler sched(4, 4);
    const unsigned t = sched.addThread(&prog, false, 2);
    EXPECT_EQ(sched.pickFor(0, 0, false), -1);
    EXPECT_EQ(sched.pickFor(2, 0, false), static_cast<int>(t));
}

TEST(Scheduler, AppThreadsConfinedToProcessorSet)
{
    Scheduler sched(4, 2); // psrset = CPUs 0-1
    sched.addThread(&prog, true);
    EXPECT_EQ(sched.pickFor(3, 0, false), -1);
    EXPECT_EQ(sched.pickFor(2, 0, false), -1);
    EXPECT_NE(sched.pickFor(1, 0, false), -1);
}

TEST(Scheduler, GcStopsAppDispatch)
{
    Scheduler sched(2, 2);
    sched.addThread(&prog, true);
    EXPECT_EQ(sched.pickFor(0, 0, true), -1);
    const unsigned svc = sched.addThread(&prog, false, 0);
    EXPECT_EQ(sched.pickFor(0, 0, true), static_cast<int>(svc));
}

TEST(Scheduler, YieldKeepsHomeAffinity)
{
    Scheduler sched(1, 1);
    const unsigned a = sched.addThread(&prog, true);
    const unsigned b = sched.addThread(&prog, true);
    ASSERT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
    sched.yield(a, 0);
    // Affinity overrides FIFO: the home thread is re-picked.
    EXPECT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
    // When the home thread blocks, the other thread finally runs.
    sched.block(a);
    EXPECT_EQ(sched.pickFor(0, 0, false), static_cast<int>(b));
}

TEST(Scheduler, BlockAndWake)
{
    Scheduler sched(1, 1);
    const unsigned a = sched.addThread(&prog, true);
    ASSERT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
    sched.block(a);
    EXPECT_EQ(sched.thread(a).state, ThreadState::Blocked);
    EXPECT_EQ(sched.pickFor(0, 0, false), -1);
    sched.wake(a);
    EXPECT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
}

TEST(Scheduler, WakeFrontPreempts)
{
    Scheduler sched(1, 1);
    const unsigned a = sched.addThread(&prog, true);
    sched.addThread(&prog, true); // queued behind a
    ASSERT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
    sched.block(a);
    sched.wake(a, /*front=*/true, 0);
    // a re-enters at the front, ahead of the other queued thread.
    EXPECT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
}

TEST(Scheduler, TimedWaitWakesWhenDue)
{
    Scheduler sched(1, 1);
    const unsigned a = sched.addThread(&prog, true);
    ASSERT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
    sched.blockUntil(a, 1000);
    EXPECT_EQ(sched.pickFor(0, 500, false), -1);
    EXPECT_EQ(sched.pickFor(0, 1000, false), static_cast<int>(a));
}

TEST(Scheduler, DoubleWakeIsIdempotent)
{
    Scheduler sched(1, 1);
    const unsigned a = sched.addThread(&prog, true);
    ASSERT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
    sched.blockUntil(a, 1000);
    sched.wake(a); // explicit wake before the timer
    sched.wake(a); // no-op
    EXPECT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
    // Timer firing later must not resurrect the running thread.
    EXPECT_EQ(sched.pickFor(0, 2000, false), -1);
}

TEST(Scheduler, AffinityPrefersLastCpu)
{
    Scheduler sched(2, 2);
    const unsigned a = sched.addThread(&prog, true);
    const unsigned b = sched.addThread(&prog, true);
    // Establish homes: a on 0, b on 1.
    ASSERT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
    ASSERT_EQ(sched.pickFor(1, 0, false), static_cast<int>(b));
    sched.yield(b, 0);
    sched.yield(a, 0);
    // Queue order is [b, a] but CPU 0 prefers its home thread a.
    EXPECT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
}

TEST(Scheduler, MigrationRequiresAging)
{
    Scheduler sched(2, 2, /*rechoose=*/1000);
    const unsigned a = sched.addThread(&prog, true);
    ASSERT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
    sched.yield(a, 100); // home = 0, queued at t=100
    // CPU 1 cannot steal it before the rechoose interval...
    EXPECT_EQ(sched.pickFor(1, 200, false), -1);
    // ...but can afterwards.
    EXPECT_EQ(sched.pickFor(1, 1100, false), static_cast<int>(a));
    EXPECT_EQ(sched.thread(a).lastCpu, 1);
}

TEST(Scheduler, ModeAccountingConserved)
{
    Scheduler sched(2, 2);
    sched.accountMode(0, exec::ExecMode::User, 70);
    sched.accountMode(0, exec::ExecMode::System, 20);
    sched.accountIdle(0, 10, false);
    sched.accountIdle(1, 5, true);
    const auto m0 = sched.modes(0);
    EXPECT_EQ(m0.total(), 100u);
    EXPECT_DOUBLE_EQ(m0.fraction(m0.user), 0.7);
    const auto all = sched.allModes();
    EXPECT_EQ(all.total(), 105u);
    EXPECT_EQ(all.gcIdle, 5u);
    sched.resetAccounting();
    EXPECT_EQ(sched.allModes().total(), 0u);
}

TEST(Lock, AcquireReleaseHandoff)
{
    Lock lock("t", 0x1000);
    EXPECT_TRUE(lock.tryAcquire(1));
    EXPECT_TRUE(lock.held());
    EXPECT_FALSE(lock.tryAcquire(2));
    lock.enqueue(2);
    EXPECT_EQ(lock.queueLength(), 1u);
    EXPECT_EQ(lock.release(), 2); // handoff
    EXPECT_EQ(lock.owner(), 2);
    EXPECT_EQ(lock.release(), -1);
    EXPECT_FALSE(lock.held());
    EXPECT_EQ(lock.acquires(), 2u);
    EXPECT_EQ(lock.contendedAcquires(), 1u);
}

TEST(Lock, SpinSemantics)
{
    Lock lock("spin", 0x2000, /*spin=*/true);
    EXPECT_TRUE(lock.isSpinLock());
    EXPECT_EQ(lock.spinEnter(), 0u);
    EXPECT_EQ(lock.spinEnter(), 1u);
    EXPECT_EQ(lock.insideCount(), 2u);
    lock.spinExit();
    lock.spinExit();
    EXPECT_EQ(lock.insideCount(), 0u);
    lock.spinExit(); // underflow-safe
    EXPECT_EQ(lock.insideCount(), 0u);
    EXPECT_EQ(lock.contendedAcquires(), 1u);
}

TEST(ResourcePool, AcquireReleaseWaiters)
{
    ResourcePool pool("conns", 0x3000, 2);
    EXPECT_TRUE(pool.tryAcquire());
    EXPECT_TRUE(pool.tryAcquire());
    EXPECT_FALSE(pool.tryAcquire());
    EXPECT_EQ(pool.exhaustedAcquires(), 1u);
    pool.enqueue(7);
    // Release hands the unit to the waiter.
    EXPECT_EQ(pool.release(), 7);
    EXPECT_EQ(pool.available(), 0u);
    // No waiters: the unit returns to the pool.
    EXPECT_EQ(pool.release(), -1);
    EXPECT_EQ(pool.available(), 1u);
}

TEST(IdleJump, MatchesPollingOnRandomStates)
{
    unsigned dispatched = 0, woke = 0, stale = 0, idle_windows = 0;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::Rng shape(seed * 7919);
        const auto total = 1 + static_cast<unsigned>(shape.uniform(8));
        const auto app = 1 + static_cast<unsigned>(shape.uniform(total));
        const sim::Tick rechoose = 500 + shape.uniform(8000);
        const Stretch s = runScenario(
            total, app, rechoose, 20'000,
            [seed](Scheduler &sched, std::vector<Timer> &timers) {
                return randomHistory(sched, seed, timers);
            });
        dispatched += s.picked >= 0;
        idle_windows += s.picked < 0;
        woke += s.woke;
        stale += s.stale;
    }
    // The seeds reach every way a jump can end.
    EXPECT_GT(dispatched, 0u);
    EXPECT_GT(idle_windows, 0u);
    EXPECT_GT(woke, 0u);
    EXPECT_GT(stale, 0u);
}

TEST(IdleJump, TimerDueMidWindow)
{
    const Stretch s = runScenario(
        2, 2, 1'000'000, 20'000,
        [](Scheduler &sched, std::vector<Timer> &timers) {
            const unsigned a = sched.addThread(&prog, true);
            EXPECT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
            sched.blockUntil(a, 7'321);
            timers.emplace_back(7'321, a);
            const IdlePoint at = idleAt(sched, 0, 100, false);
            EXPECT_EQ(sched.nextChance(0, 100, false), 7'321u);
            return at;
        });
    EXPECT_EQ(s.targets, 1u); // one jump, to the poll at 7'600
    EXPECT_EQ(s.picked, 0);
}

TEST(IdleJump, StaleTimerEndsTheJumpEarly)
{
    const Stretch s = runScenario(
        2, 2, 1'000'000, 20'000,
        [](Scheduler &sched, std::vector<Timer> &timers) {
            const unsigned a = sched.addThread(&prog, true);
            EXPECT_EQ(sched.pickFor(0, 0, false), static_cast<int>(a));
            sched.blockUntil(a, 3'000);
            timers.emplace_back(3'000, a);
            sched.wake(a, false, 50); // before its timer: now stale
            EXPECT_EQ(sched.pickFor(0, 60, false), static_cast<int>(a));
            return idleAt(sched, 0, 100, false);
        });
    // The stale timer costs one poll at 3'100; then nothing is due.
    EXPECT_EQ(s.stale, 1u);
    EXPECT_EQ(s.picked, -1);
}

TEST(IdleJump, AgingInTheLastScannedSlot)
{
    // 65 threads homed on CPU 1; the one in slot 63 ages first.
    const Stretch s = runScenario(
        2, 2, 10'000, 20'000,
        [](Scheduler &sched, std::vector<Timer> &) {
            for (unsigned i = 0; i < 65; ++i)
                sched.addThread(&prog, true);
            for (unsigned i = 0; i < 65; ++i)
                EXPECT_EQ(sched.pickFor(1, 0, false), static_cast<int>(i));
            for (unsigned i = 0; i < 65; ++i)
                sched.yield(i, i == 63 ? 1'000 : 5'000);
            const IdlePoint at = idleAt(sched, 0, 2'000, false);
            EXPECT_EQ(sched.nextChance(0, 2'000, false), 11'000u);
            return at;
        });
    EXPECT_EQ(s.targets, 1u);
    EXPECT_EQ(s.picked, 63);
}

TEST(IdleJump, AgingPastTheScannedSlotsIsNoChance)
{
    // Slot 64 ages first, but pickFor never scans it: the next chance
    // is slot 0 aging, and no poll before it may dispatch.
    const Stretch s = runScenario(
        2, 2, 10'000, 20'000,
        [](Scheduler &sched, std::vector<Timer> &) {
            for (unsigned i = 0; i < 65; ++i)
                sched.addThread(&prog, true);
            for (unsigned i = 0; i < 65; ++i)
                EXPECT_EQ(sched.pickFor(1, 0, false), static_cast<int>(i));
            for (unsigned i = 0; i < 65; ++i)
                sched.yield(i, i == 64 ? 0 : 5'000);
            const IdlePoint at = idleAt(sched, 0, 2'000, false);
            EXPECT_EQ(sched.nextChance(0, 2'000, false), 15'000u);
            return at;
        });
    EXPECT_EQ(s.targets, 1u);
    EXPECT_EQ(s.picked, 0);
}

TEST(IdleJump, CpuOutsideTheProcessorSetIgnoresAging)
{
    const Stretch s = runScenario(
        4, 2, 1'000, 20'000,
        [](Scheduler &sched, std::vector<Timer> &timers) {
            const unsigned a = sched.addThread(&prog, true);
            EXPECT_EQ(sched.pickFor(1, 0, false), static_cast<int>(a));
            sched.yield(a, 0); // ages at 1'000, but not for CPU 3
            const unsigned h = sched.addThread(&prog, false, 3);
            EXPECT_EQ(sched.pickFor(3, 0, false), static_cast<int>(h));
            sched.blockUntil(h, 9'000);
            timers.emplace_back(9'000, h);
            const IdlePoint at = idleAt(sched, 3, 100, false);
            EXPECT_EQ(sched.nextChance(3, 100, false), 9'000u);
            return at;
        });
    EXPECT_EQ(s.targets, 1u);
    EXPECT_EQ(s.picked, 1);
}

TEST(IdleJump, CollectionInProgressIgnoresAging)
{
    const Stretch s = runScenario(
        2, 2, 1'000, 20'000,
        [](Scheduler &sched, std::vector<Timer> &timers) {
            const unsigned a = sched.addThread(&prog, true);
            EXPECT_EQ(sched.pickFor(1, 0, false), static_cast<int>(a));
            sched.yield(a, 0); // ages at 1'000, but not during a GC
            const unsigned g = sched.addThread(&prog, false, 0);
            EXPECT_EQ(sched.pickFor(0, 0, true), static_cast<int>(g));
            sched.blockUntil(g, 6'000);
            timers.emplace_back(6'000, g);
            const IdlePoint at = idleAt(sched, 0, 100, true);
            EXPECT_EQ(sched.nextChance(0, 100, true), 6'000u);
            EXPECT_EQ(sched.nextChance(0, 100, false), 1'000u);
            return at;
        });
    EXPECT_EQ(s.targets, 1u);
    EXPECT_EQ(s.picked, 1);
}

TEST(IdleJump, NothingPendingIsNever)
{
    Scheduler sched(2, 1);
    sched.addThread(&prog, false, 0);
    EXPECT_EQ(sched.pickFor(1, 0, false), -1);
    EXPECT_EQ(sched.nextChance(1, 0, false), Scheduler::kNever);
}
