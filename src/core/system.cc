#include "core/system.hh"

#include <algorithm>

#include "sim/log.hh"

namespace middlesim::core
{

namespace
{

/** Idle poll period (cycles): how promptly a wakeup claims a CPU. */
constexpr sim::Tick kIdlePoll = 500;

} // namespace

System::System(const SystemConfig &config, std::uint64_t seed)
    : cfg_(config), rng_(seed)
{
    cfg_.machine.validate();
    mem_ = std::make_unique<mem::Hierarchy>(cfg_.machine, cfg_.latency,
                                            cfg_.busContention);
    sched_ = std::make_unique<os::Scheduler>(cfg_.machine.totalCpus,
                                             cfg_.machine.appCpus,
                                             cfg_.rechoose, &journal_);
    kernel_ = std::make_unique<os::KernelModel>(cfg_.kernel);
    jvm_ = std::make_unique<jvm::Jvm>(cfg_.jvm, rng_.fork());

    cores_.reserve(cfg_.machine.totalCpus);
    for (unsigned c = 0; c < cfg_.machine.totalCpus; ++c) {
        cores_.push_back(std::make_unique<cpu::InOrderCore>(
            c, *mem_, cfg_.core, rng_.fork()));
        cpuRngs_.push_back(rng_.fork());
    }
    current_.assign(cfg_.machine.totalCpus, -1);
    sliceEnd_.assign(cfg_.machine.totalCpus, 0);
    txCounts_.assign(16, 0);

    if (cfg_.osBackground) {
        for (unsigned c = 0; c < cfg_.machine.totalCpus; ++c) {
            addProgram(kernel_->makeHousekeeper(c, rng_.fork()),
                       /*in_app_set=*/false, /*bound_cpu=*/
                       static_cast<int>(c));
        }
    }
}

void
System::setTraceSink(mem::TraceSink *sink)
{
    trace_ = sink;
    mem_->setTraceSink(sink);
    sched_->setTraceSink(sink);
    tracedMode_.assign(cfg_.machine.totalCpus, -1);
}

void
System::enableChecking(const check::CheckOptions &opts)
{
    if (checker_)
        return;
    checker_ = std::make_unique<check::Checker>(*mem_, *sched_, *jvm_,
                                                cfg_.gcCpu, opts);
}

void
System::account(unsigned cpu, exec::ExecMode mode, sim::Tick before)
{
    const sim::Tick now = cores_[cpu]->now();
    sched_->accountMode(cpu, mode, now - before);
    if (trace_ && tracedMode_[cpu] != static_cast<int>(mode)) {
        tracedMode_[cpu] = static_cast<int>(mode);
        trace_->annotation(mem::TraceAnnotation::ModeSwitch, cpu, now,
                           static_cast<std::uint64_t>(mode));
    }
}

unsigned
System::addProgram(std::unique_ptr<exec::ThreadProgram> program,
                   bool in_app_set, int bound_cpu)
{
    const unsigned tid =
        sched_->addThread(program.get(), in_app_set, bound_cpu);
    programs_.push_back(std::move(program));
    return tid;
}

void
System::run(sim::Tick duration)
{
    const sim::Tick end = now_ + duration;
    while (now_ < end) {
        startGcIfNeeded();
        const sim::Tick window_end = now_ + cfg_.window;
        for (unsigned c = 0; c < cfg_.machine.totalCpus; ++c)
            runCpu(c, window_end);
        mem_->advanceContentionEpoch(cfg_.window);
        now_ = window_end;
        if (cfg_.samplePeriod > 0 && now_ >= nextSample_) {
            sampleSeries();
            nextSample_ = now_ + cfg_.samplePeriod;
        }
    }
}

void
System::sampleSeries()
{
    const double mb = 1024.0 * 1024.0;
    const auto push = [&](const char *name, double v) {
        sim::MetricSnapshot::SeriesData &s = series_[name];
        s.period = cfg_.samplePeriod;
        s.values.push_back(v);
    };
    push("sys.heap.young_used_mb",
         static_cast<double>(jvm_->heap().youngUsed()) / mb);
    push("sys.heap.old_used_mb",
         static_cast<double>(jvm_->heap().oldUsed()) / mb);
    push("sys.sched.runnable",
         static_cast<double>(sched_->runnableCount()));
}

void
System::runCpu(unsigned cpu, sim::Tick window_end)
{
    cpu::InOrderCore &core = *cores_[cpu];
    while (core.now() < window_end) {
        int tid = current_[cpu];
        if (tid < 0) {
            const sim::Tick now = core.now();
            tid = sched_->pickFor(cpu, now, gcActive_);
            if (tid < 0) {
                // An idle CPU polls the scheduler every kIdlePoll
                // cycles. No other CPU runs during this one's turn,
                // so no poll before the scheduler's next chance can
                // succeed: jump to the first poll boundary at or
                // after it (or to the window end) with one summed
                // idle charge.
                const sim::Tick chance =
                    sched_->nextChance(cpu, now, gcActive_);
                sim::Tick until = window_end;
                if (chance < window_end) {
                    const sim::Tick polls =
                        (chance - now + kIdlePoll - 1) / kIdlePoll;
                    until = std::min(window_end, now + polls * kIdlePoll);
                }
                const bool gc_idle = gcActive_ &&
                    cpu < cfg_.machine.appCpus && cpu != cfg_.gcCpu;
                sched_->accountIdle(cpu, until - now, gc_idle);
                core.advanceTo(until);
                continue;
            }
            current_[cpu] = tid;
            sliceEnd_[cpu] = core.now() + cfg_.timeslice;
            chargeContextSwitch(cpu);
            sched_->countContextSwitch();
        }

        os::SimThread &t = sched_->thread(static_cast<unsigned>(tid));

        // Safepoint: application threads drain off the CPUs while a
        // stop-the-world collection is in progress.
        if (gcActive_ && t.inAppSet) {
            sched_->yield(static_cast<unsigned>(tid), core.now());
            current_[cpu] = -1;
            continue;
        }

        burstBuf_.clear();
        const exec::NextOp op =
            t.program->next(burstBuf_, core.now());
        const bool keeps =
            executeOp(cpu, static_cast<unsigned>(tid), op);
        if (!keeps) {
            current_[cpu] = -1;
            continue;
        }
        if (core.now() >= sliceEnd_[cpu] && t.heldLocks == 0) {
            sched_->yield(static_cast<unsigned>(tid), core.now());
            current_[cpu] = -1;
        }
    }
}

bool
System::executeOp(unsigned cpu, unsigned tid, const exec::NextOp &op)
{
    cpu::InOrderCore &core = *cores_[cpu];
    os::SimThread &t = sched_->thread(tid);
    const sim::Tick before = core.now();

    switch (op.kind) {
      case exec::OpKind::Burst:
        executeBurst(core, burstBuf_);
        account(cpu, burstBuf_.mode, before);
        return true;

      case exec::OpKind::LockAcquire: {
        core.atomic(op.lock->lineAddr());
        if (op.lock->isSpinLock()) {
            // Adaptive kernel mutex: contenders spin (in op.mode,
            // typically system time) instead of blocking; the charge
            // grows with the number of threads inside the section.
            const unsigned inside =
                std::min(op.lock->spinEnter(), 6u);
            if (inside > 0) {
                const sim::Tick spin = cfg_.spinBase * 2 *
                    static_cast<sim::Tick>(inside) *
                    static_cast<sim::Tick>(inside);
                core.atomic(op.lock->lineAddr());
                core.execInstructions(static_cast<std::uint64_t>(
                    static_cast<double>(spin) / cfg_.core.baseCpi) + 1);
            }
            // Hold the CPU until the matching release: a preempted
            // spin-section holder would convoy every other CPU.
            ++t.heldLocks;
            account(cpu, op.mode, before);
            return true;
        }
        if (op.lock->tryAcquire(static_cast<int>(tid))) {
            ++t.heldLocks;
            account(cpu, op.mode, before);
            return true;
        }
        // Brief spin (probe the lock line) before parking: Java
        // monitors spin a bounded amount regardless of queue depth.
        const sim::Tick spin = cfg_.spinBase;
        core.atomic(op.lock->lineAddr());
        core.execInstructions(static_cast<std::uint64_t>(
            static_cast<double>(spin) / cfg_.core.baseCpi) + 1);
        op.lock->enqueue(tid);
        sched_->block(tid);
        account(cpu, op.mode, before);
        return false;
      }

      case exec::OpKind::LockRelease: {
        if (op.lock->isSpinLock()) {
            core.store(op.lock->lineAddr());
            op.lock->spinExit();
            sim_assert(t.heldLocks > 0, "spin-lock count underflow");
            --t.heldLocks;
            account(cpu, op.mode, before);
            return true;
        }
        sim_assert(op.lock->owner() == static_cast<int>(tid),
                   "release by non-owner of ", op.lock->name());
        core.store(op.lock->lineAddr());
        sim_assert(t.heldLocks > 0, "lock count underflow");
        --t.heldLocks;
        const int next = op.lock->release();
        if (next >= 0) {
            // Ownership handoff: the woken thread resumes past its
            // acquire already holding the lock, and is dispatched
            // ahead of ordinary runnable threads (turnstile).
            ++sched_->thread(static_cast<unsigned>(next)).heldLocks;
            sched_->wake(static_cast<unsigned>(next), /*front=*/true,
                         core.now());
        }
        account(cpu, op.mode, before);
        return true;
      }

      case exec::OpKind::PoolAcquire: {
        core.atomic(op.pool->lineAddr());
        if (op.pool->tryAcquire()) {
            account(cpu, op.mode, before);
            return true;
        }
        op.pool->enqueue(tid);
        sched_->block(tid);
        account(cpu, op.mode, before);
        return false;
      }

      case exec::OpKind::PoolRelease: {
        core.atomic(op.pool->lineAddr());
        const int next = op.pool->release();
        if (next >= 0) {
            sched_->wake(static_cast<unsigned>(next), /*front=*/true,
                         core.now(), /*migratable=*/true);
        }
        account(cpu, op.mode, before);
        return true;
      }

      case exec::OpKind::Wait:
        sched_->blockUntil(tid, core.now() + op.wait);
        return false;

      case exec::OpKind::TxDone:
        if (op.txType >= txCounts_.size())
            txCounts_.resize(op.txType + 1, 0);
        ++txCounts_[op.txType];
        ++t.txCompleted;
        if (trace_)
            trace_->annotation(mem::TraceAnnotation::TxBoundary, cpu,
                               core.now(), op.txType);
        // Completion bookkeeping; also guarantees forward progress.
        core.execInstructions(50);
        account(cpu, op.mode, before);
        return true;

      case exec::OpKind::Exit:
        sched_->finish(tid);
        if (static_cast<int>(tid) == gcTid_)
            finishGc();
        return false;
    }
    panic("unreachable op kind");
}

void
System::executeBurst(cpu::InOrderCore &core, const exec::Burst &burst)
{
    const std::uint64_t n = burst.instructions;
    const std::size_t nrefs = burst.refs.size();
    std::uint64_t code_off = 0;

    auto exec_chunk = [&](std::uint64_t count) {
        while (count > 0) {
            const std::uint64_t step = std::min<std::uint64_t>(count, 16);
            if (burst.code.bytes > 0) {
                core.fetchBlock(burst.code.base + code_off);
                code_off += 64;
                if (code_off >= burst.code.bytes)
                    code_off = 0;
            }
            core.execInstructions(step);
            count -= step;
        }
    };

    const std::uint64_t per_slot =
        nrefs ? n / (nrefs + 1) : n;
    for (std::size_t i = 0; i < nrefs; ++i) {
        exec_chunk(per_slot);
        const exec::DataRef &ref = burst.refs[i];
        switch (ref.type) {
          case mem::AccessType::Load:
            core.load(ref.addr);
            break;
          case mem::AccessType::Store:
            core.store(ref.addr);
            break;
          case mem::AccessType::Atomic:
            core.atomic(ref.addr);
            break;
          case mem::AccessType::BlockStore:
            core.blockStore(ref.addr);
            break;
          case mem::AccessType::IFetch:
            core.fetchBlock(ref.addr);
            break;
        }
    }
    exec_chunk(n - per_slot * nrefs);
}

void
System::chargeContextSwitch(unsigned cpu)
{
    cpu::InOrderCore &core = *cores_[cpu];
    burstBuf_.clear();
    kernel_->fillSwitchBurst(burstBuf_, cpuRngs_[cpu], cpu);
    const sim::Tick before = core.now();
    executeBurst(core, burstBuf_);
    account(cpu, exec::ExecMode::System, before);
}

void
System::startGcIfNeeded()
{
    if (gcActive_ || !jvm_->gcRequested())
        return;
    gcActive_ = true;
    gcStart_ = now_;
    gcProgram_ = jvm_->beginCollection();
    gcTid_ = static_cast<int>(
        sched_->addThread(gcProgram_.get(), /*in_app_set=*/false,
                          static_cast<int>(cfg_.gcCpu)));
    journal_.record(now_, "gc.begin");
    journal_.record(now_, "safepoint.begin");
    if (trace_) {
        trace_->annotation(mem::TraceAnnotation::GcBegin, cfg_.gcCpu,
                           now_, 0);
        trace_->annotation(mem::TraceAnnotation::SafepointBegin,
                           cfg_.gcCpu, now_, 0);
    }
}

void
System::finishGc()
{
    sim_assert(gcActive_, "finishGc without active GC");
    const sim::Tick end = cores_[cfg_.gcCpu]->now();
    jvm_->endCollection(gcStart_, end);
    const jvm::GcRecord &rec = jvm_->stats().log.back();
    journal_.record(end, rec.major ? "gc.end.major" : "gc.end.minor",
                    "pause=" + std::to_string(rec.duration));
    journal_.record(end, "safepoint.end");
    if (trace_) {
        trace_->annotation(rec.major
                               ? mem::TraceAnnotation::GcEndMajor
                               : mem::TraceAnnotation::GcEndMinor,
                           cfg_.gcCpu, end, rec.duration);
        trace_->annotation(mem::TraceAnnotation::SafepointEnd,
                           cfg_.gcCpu, end, 0);
    }
    gcActive_ = false;
    gcTid_ = -1;
}

void
System::beginMeasurement()
{
    if (trace_)
        trace_->annotation(mem::TraceAnnotation::MeasureBegin, 0, now_,
                           0);
    journal_.reset();
    for (auto &[name, s] : series_)
        s.values.clear();
    mem_->resetStats();
    for (auto &core : cores_)
        core->resetStats();
    sched_->resetAccounting();
    std::fill(txCounts_.begin(), txCounts_.end(), 0);
    jvm_->resetStats();
    measureStart_ = now_;
    nextSample_ = now_ + cfg_.samplePeriod;
}

double
System::measuredSeconds() const
{
    return sim::ticksToSeconds(measuredTicks());
}

std::uint64_t
System::txCount(unsigned type) const
{
    return type < txCounts_.size() ? txCounts_[type] : 0;
}

std::uint64_t
System::txTotal() const
{
    std::uint64_t total = 0;
    for (auto c : txCounts_)
        total += c;
    return total;
}

double
System::throughput() const
{
    const double secs = measuredSeconds();
    return secs > 0.0 ? static_cast<double>(txTotal()) / secs : 0.0;
}

cpu::CpiBreakdown
System::appCpi() const
{
    cpu::CpiBreakdown out;
    for (unsigned c = 0; c < cfg_.machine.appCpus; ++c)
        out.accumulate(cores_[c]->breakdown());
    return out;
}

os::ModeBreakdown
System::appModes() const
{
    return sched_->appModes();
}

mem::CacheStats
System::appCacheStats() const
{
    return mem_->aggregateRange(0, cfg_.machine.appCpus - 1);
}

} // namespace middlesim::core
