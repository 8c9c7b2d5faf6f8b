/**
 * @file
 * A small fixed-size thread pool for fanning independent simulation
 * points out across host cores.
 *
 * The pool is deliberately simple — a shared FIFO queue drained by a
 * fixed set of workers, no work stealing — because experiment-level
 * tasks are coarse (whole simulated runs, seconds each) and queueing
 * overhead is irrelevant at that granularity. Determinism contract:
 * the pool never decides *what* a task computes, only *when* it runs;
 * every task must be self-contained (its own System, its own Rng), so
 * results are bit-identical for any worker count, including the
 * degenerate single-job pool which executes tasks inline on the
 * submitting thread with no worker threads at all.
 *
 * The process-wide pool used by the experiment runner has one worker
 * per hardware thread unless a command-line tool resizes it with
 * setGlobalJobs() from its --jobs=N / MIDDLESIM_JOBS option
 * (src/sim/args.hh); the pool itself reads no environment. Code that
 * must not share the global pool, such as the sharing-study replay,
 * makes a local one.
 */

#ifndef SIM_THREADPOOL_HH
#define SIM_THREADPOOL_HH

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace middlesim::sim
{

/** Fixed-size FIFO thread pool with future-returning submit(). */
class ThreadPool
{
  public:
    /**
     * @param jobs worker count; 0 selects the hardware concurrency
     * (the drivers' --jobs / MIDDLESIM_JOBS go through setGlobalJobs).
     */
    explicit ThreadPool(unsigned jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Concurrency of this pool (1 = inline serial execution). */
    unsigned jobs() const { return jobs_; }

    /** Enqueue a task; returns a future for its result. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> result = task->get_future();
        if (jobs_ == 1) {
            // Serial mode: run inline, exactly as a plain call would.
            (*task)();
            return result;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace([task] { (*task)(); });
        }
        cv_.notify_one();
        return result;
    }

    /**
     * Run body(0) .. body(n-1), all iterations complete on return.
     * Iterations must be independent; they are submitted in index
     * order, one task per iteration (tasks are coarse runs here, so
     * per-iteration queueing cost is noise). Exceptions from the body
     * propagate to the caller, the lowest index's first, once every
     * submitted iteration has finished.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** Process-wide pool used by the experiment runner. */
    static ThreadPool &global();

    /**
     * Resize the process-wide pool (e.g. from a --jobs=N flag or a
     * determinism test). Must not be called while grid runs are in
     * flight.
     */
    static void setGlobalJobs(unsigned jobs);

  private:
    void workerLoop();

    unsigned jobs_;
    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

} // namespace middlesim::sim

#endif // SIM_THREADPOOL_HH
