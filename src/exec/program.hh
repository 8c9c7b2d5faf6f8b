/**
 * @file
 * Execution vocabulary shared by the OS, JVM and workload models.
 *
 * Workload threads, JVM service threads (the garbage collector) and
 * OS background threads are all ThreadPrograms: generators that
 * produce a stream of operations. The interpreter in core/system
 * executes them against a CPU core and the memory hierarchy.
 *
 * The two central ideas:
 *  - A Burst is a batch of instructions plus the code walk and data
 *    references they perform, tagged with an execution mode
 *    (user/system) for the mpstat-style accounting of Figure 5.
 *  - Blocking interactions (Java monitors, resource pools, I/O waits,
 *    stop-the-world safepoints) are explicit operations so the
 *    scheduler can account idle time the way the paper observes it.
 */

#ifndef EXEC_PROGRAM_HH
#define EXEC_PROGRAM_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "mem/memref.hh"
#include "sim/ticks.hh"

namespace middlesim::exec
{

/** Execution mode for mpstat-style accounting (Figure 5). */
enum class ExecMode : std::uint8_t
{
    User,
    System,
};

/** One explicit data reference within a burst. */
struct DataRef
{
    mem::Addr addr;
    mem::AccessType type;
};

/** A linear instruction-fetch walk through a code region. */
struct CodeWalk
{
    mem::Addr base = 0;
    std::uint64_t bytes = 0;
};

/**
 * A batch of work: `instructions` instructions that fetch through
 * `code` and perform `refs` data accesses, interleaved evenly.
 */
struct Burst
{
    ExecMode mode = ExecMode::User;
    std::uint64_t instructions = 0;
    CodeWalk code;
    std::vector<DataRef> refs;

    void
    clear()
    {
        mode = ExecMode::User;
        instructions = 0;
        code = CodeWalk();
        refs.clear();
    }

    void
    load(mem::Addr a)
    {
        refs.push_back({a, mem::AccessType::Load});
    }

    void
    store(mem::Addr a)
    {
        refs.push_back({a, mem::AccessType::Store});
    }

    void
    atomic(mem::Addr a)
    {
        refs.push_back({a, mem::AccessType::Atomic});
    }

    void
    blockStore(mem::Addr a)
    {
        refs.push_back({a, mem::AccessType::BlockStore});
    }
};

/**
 * A blocking mutual-exclusion lock (Java monitor, kernel lock, ...).
 *
 * Pure bookkeeping: the interpreter performs the lock-word atomics
 * and the scheduler manages blocking and handoff. The lock word lives
 * at a real address so contended locks become hot cache lines — the
 * concentration the paper measures in Figures 14/15.
 */
class Lock
{
  public:
    /**
     * @param spin adaptive-spin kernel mutex: contended acquirers
     *        burn cycles proportional to the number of threads inside
     *        instead of blocking (Solaris adaptive mutexes spin while
     *        the owner runs). Java monitors use blocking semantics.
     */
    Lock(std::string name, mem::Addr line, bool spin = false)
        : name_(name), line_(line), spin_(spin)
    {
    }

    const std::string &name() const { return name_; }
    mem::Addr lineAddr() const { return line_; }
    bool isSpinLock() const { return spin_; }

    /** Spin-lock entry; returns the number of threads already inside
     *  (the contention level the spinner pays for). */
    unsigned
    spinEnter()
    {
        ++acquires_;
        if (inside_ > 0)
            ++contended_;
        return inside_++;
    }

    /** Spin-lock exit. */
    void
    spinExit()
    {
        if (inside_ > 0)
            --inside_;
    }

    unsigned insideCount() const { return inside_; }

    bool held() const { return owner_ >= 0; }
    int owner() const { return owner_; }

    /** Try to take the lock for `tid`; true on success. */
    bool
    tryAcquire(int tid)
    {
        ++acquires_;
        if (owner_ < 0) {
            owner_ = tid;
            return true;
        }
        ++contended_;
        return false;
    }

    /** Enqueue a blocked waiter. */
    void enqueue(unsigned tid) { waiters_.push_back(tid); }

    /**
     * Release the lock. If a waiter exists, ownership is handed to it
     * and its tid is returned (the scheduler must wake it); otherwise
     * returns -1.
     */
    int
    release()
    {
        if (waiters_.empty()) {
            owner_ = -1;
            return -1;
        }
        owner_ = static_cast<int>(waiters_.front());
        waiters_.pop_front();
        return owner_;
    }

    std::uint64_t acquires() const { return acquires_; }
    std::uint64_t contendedAcquires() const { return contended_; }
    std::size_t queueLength() const { return waiters_.size(); }

  private:
    std::string name_;
    mem::Addr line_;
    bool spin_ = false;
    unsigned inside_ = 0;
    int owner_ = -1;
    std::deque<unsigned> waiters_;
    std::uint64_t acquires_ = 0;
    std::uint64_t contended_ = 0;
};

/**
 * A counting resource pool (database connection pool, execution-queue
 * thread pool). Bounded; acquirers block when it is exhausted —
 * the shared-software-resource contention the paper identifies as a
 * scaling limiter.
 */
class ResourcePool
{
  public:
    ResourcePool(std::string name, mem::Addr line, unsigned capacity)
        : name_(name), line_(line), capacity_(capacity),
          available_(capacity)
    {
    }

    const std::string &name() const { return name_; }
    mem::Addr lineAddr() const { return line_; }
    unsigned capacity() const { return capacity_; }
    unsigned available() const { return available_; }

    bool
    tryAcquire()
    {
        ++acquires_;
        if (available_ > 0) {
            --available_;
            return true;
        }
        ++exhausted_;
        return false;
    }

    void enqueue(unsigned tid) { waiters_.push_back(tid); }

    /**
     * Return one unit. If a waiter exists the unit is handed to it
     * directly and its tid returned; otherwise returns -1.
     */
    int
    release()
    {
        if (waiters_.empty()) {
            ++available_;
            return -1;
        }
        const int tid = static_cast<int>(waiters_.front());
        waiters_.pop_front();
        return tid;
    }

    std::uint64_t acquires() const { return acquires_; }
    std::uint64_t exhaustedAcquires() const { return exhausted_; }

  private:
    std::string name_;
    mem::Addr line_;
    unsigned capacity_;
    unsigned available_;
    std::deque<unsigned> waiters_;
    std::uint64_t acquires_ = 0;
    std::uint64_t exhausted_ = 0;
};

/** Kinds of operations a ThreadProgram can request. */
enum class OpKind : std::uint8_t
{
    /** Execute the filled Burst. */
    Burst,
    /** Acquire a Lock (blocks when contended). */
    LockAcquire,
    /** Release a Lock. */
    LockRelease,
    /** Acquire a unit from a ResourcePool (blocks when empty). */
    PoolAcquire,
    /** Return a unit to a ResourcePool. */
    PoolRelease,
    /** Leave the CPU for `wait` cycles (network/disk round trip). */
    Wait,
    /** Mark one completed transaction of type `txType`. */
    TxDone,
    /** The program is finished (service threads only). */
    Exit,
};

/** One operation requested by a ThreadProgram. */
struct NextOp
{
    OpKind kind = OpKind::Burst;
    /** Mode in which lock-op overheads are charged. */
    ExecMode mode = ExecMode::User;
    Lock *lock = nullptr;
    ResourcePool *pool = nullptr;
    sim::Tick wait = 0;
    unsigned txType = 0;
};

/** Generator interface implemented by every modeled thread. */
class ThreadProgram
{
  public:
    virtual ~ThreadProgram() = default;

    /**
     * Produce the next operation at simulated time `now`. When the
     * returned op has kind OpKind::Burst, the program must have
     * filled `burst` (which arrives cleared).
     */
    virtual NextOp next(Burst &burst, sim::Tick now) = 0;
};

} // namespace middlesim::exec

#endif // EXEC_PROGRAM_HH
