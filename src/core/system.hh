/**
 * @file
 * The simulated machine: CPUs + memory hierarchy + OS + JVM +
 * workload threads, advanced in loose lockstep windows.
 *
 * This is the execution-driven heart of the framework — the stand-in
 * for the paper's Simics full-system simulation. Thread programs
 * produce operations; the interpreter here executes them against the
 * in-order core timing model and the coherent memory hierarchy,
 * while the scheduler accounts execution modes and the JVM's
 * stop-the-world collections freeze the application processor set.
 */

#ifndef CORE_SYSTEM_HH
#define CORE_SYSTEM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "cpu/core.hh"
#include "exec/program.hh"
#include "jvm/jvm.hh"
#include "mem/hierarchy.hh"
#include "os/kernel.hh"
#include "os/scheduler.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace middlesim::core
{

/** Configuration of one simulated machine. */
struct SystemConfig
{
    sim::MachineConfig machine;
    mem::LatencyModel latency;
    cpu::CoreParams core;
    jvm::JvmParams jvm;
    os::KernelParams kernel;

    /** Model bus queueing delay. */
    bool busContention = true;
    /** Run OS housekeeper threads on every CPU. */
    bool osBackground = true;

    /** Lockstep window (cycles). */
    sim::Tick window = 20000;
    /** Scheduling timeslice (cycles; ~1 ms). */
    sim::Tick timeslice = 250000;
    /** Base spin cost of a contended lock acquisition (cycles). */
    sim::Tick spinBase = 250;
    /** Scheduler migration resistance (Solaris rechoose interval). */
    sim::Tick rechoose = 1000000;
    /** CPU that runs the single-threaded collector. */
    unsigned gcCpu = 0;
    /** Metric time-series sampling period (cycles; 0 disables). */
    sim::Tick samplePeriod = 1000000;
};

/** One simulated machine. */
class System
{
  public:
    System(const SystemConfig &config, std::uint64_t seed);

    // Wiring access.
    mem::Hierarchy &memory() { return *mem_; }
    jvm::Jvm &vm() { return *jvm_; }
    os::Scheduler &scheduler() { return *sched_; }
    os::KernelModel &kernel() { return *kernel_; }
    cpu::InOrderCore &core(unsigned c) { return *cores_[c]; }
    const SystemConfig &config() const { return cfg_; }
    sim::Rng forkRng() { return rng_.fork(); }

    /**
     * Register a thread program. The System takes ownership.
     * @return the scheduler tid.
     */
    unsigned addProgram(std::unique_ptr<exec::ThreadProgram> program,
                        bool in_app_set = true, int bound_cpu = -1);

    /** Advance simulated time by `duration` cycles. */
    void run(sim::Tick duration);

    sim::Tick now() const { return now_; }

    /** Zero all statistics; the measured interval starts here. */
    void beginMeasurement();

    sim::Tick measuredTicks() const { return now_ - measureStart_; }
    double measuredSeconds() const;

    /** Transactions completed since beginMeasurement(), by type. */
    std::uint64_t txCount(unsigned type) const;
    std::uint64_t txTotal() const;
    /** Completed transactions per simulated second. */
    double throughput() const;

    /** CPI breakdown aggregated over the application processor set. */
    cpu::CpiBreakdown appCpi() const;

    /** Execution-mode breakdown over the application processor set. */
    os::ModeBreakdown appModes() const;

    /** Cache statistics aggregated over the application CPUs. */
    mem::CacheStats appCacheStats() const;

    bool gcActive() const { return gcActive_; }

    /** GC/safepoint windows and scheduler migrations, in time order. */
    const sim::EventJournal &journal() const { return journal_; }

    /**
     * Heap occupancy and runnable-thread samples by metric name, one
     * per samplePeriod; a name appears with the first sample.
     */
    const std::map<std::string, sim::MetricSnapshot::SeriesData> &
    series() const
    {
        return series_;
    }

    /**
     * Record this machine's execution into a reference trace: every
     * memory reference (via the hierarchy) plus GC/safepoint windows,
     * execution-mode switches, scheduler migrations, transaction
     * boundaries and measurement marks. Pass nullptr to detach.
     * Recording is observation-only and never perturbs the run.
     */
    void setTraceSink(mem::TraceSink *sink);

    /**
     * Attach a full invariant-checking session (memory + scheduler +
     * JVM observers) to this machine. Idempotent per System; checking
     * is read-only and never changes simulation results.
     */
    void enableChecking(const check::CheckOptions &opts =
                            check::CheckOptions());

    /** The attached checker, or nullptr when checking is off. */
    check::Checker *checker() { return checker_.get(); }

  private:
    void runCpu(unsigned cpu, sim::Tick window_end);
    void executeBurst(cpu::InOrderCore &core, const exec::Burst &burst);
    /** @return true if the thread keeps the CPU. */
    bool executeOp(unsigned cpu, unsigned tid, const exec::NextOp &op);
    /** Mode accounting since `before`, plus trace mode-switch marks. */
    void account(unsigned cpu, exec::ExecMode mode, sim::Tick before);
    void chargeContextSwitch(unsigned cpu);
    void startGcIfNeeded();
    void finishGc();
    void sampleSeries();

    SystemConfig cfg_;
    sim::Rng rng_;

    /** Declared before the scheduler, which journals into it. */
    sim::EventJournal journal_;
    std::map<std::string, sim::MetricSnapshot::SeriesData> series_;

    std::unique_ptr<mem::Hierarchy> mem_;
    std::vector<std::unique_ptr<cpu::InOrderCore>> cores_;
    std::unique_ptr<os::Scheduler> sched_;
    std::unique_ptr<os::KernelModel> kernel_;
    std::unique_ptr<jvm::Jvm> jvm_;

    std::vector<std::unique_ptr<exec::ThreadProgram>> programs_;

    /** Current thread per CPU (-1 = none). */
    std::vector<int> current_;
    std::vector<sim::Tick> sliceEnd_;
    exec::Burst burstBuf_;
    /** Per-CPU RNGs for kernel burst fills. */
    std::vector<sim::Rng> cpuRngs_;

    sim::Tick now_ = 0;
    sim::Tick measureStart_ = 0;

    std::vector<std::uint64_t> txCounts_;

    bool gcActive_ = false;
    sim::Tick gcStart_ = 0;
    int gcTid_ = -1;
    std::unique_ptr<exec::ThreadProgram> gcProgram_;

    sim::Tick nextSample_ = 0;

    mem::TraceSink *trace_ = nullptr;
    /** Last mode recorded per CPU (-1 = none); dedupes ModeSwitch. */
    std::vector<int> tracedMode_;

    /**
     * Declared last: the checker holds observers registered with the
     * subsystems above and must detach before they are destroyed.
     */
    std::unique_ptr<check::Checker> checker_;
};

} // namespace middlesim::core

#endif // CORE_SYSTEM_HH
