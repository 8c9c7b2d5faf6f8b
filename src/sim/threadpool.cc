#include "sim/threadpool.hh"

#include <algorithm>

namespace middlesim::sim
{

ThreadPool::ThreadPool(unsigned jobs)
    : jobs_(jobs != 0 ? jobs
                      : std::max(1u, std::thread::hardware_concurrency()))
{
    if (jobs_ == 1)
        return; // inline execution, no workers
    workers_.reserve(jobs_);
    for (unsigned w = 0; w < jobs_; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

namespace
{

/** Set for the life of every worker thread (ThreadPool::onWorker). */
thread_local bool t_onWorker = false;

} // namespace

bool
ThreadPool::onWorker()
{
    return t_onWorker;
}

void
ThreadPool::workerLoop()
{
    t_onWorker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stop_)
                    return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (jobs_ == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::vector<std::future<void>> pending;
    pending.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        pending.push_back(submit([&body, i] { body(i); }));
    // Every iteration ends before an exception reaches the caller:
    // queued ones still call `body`, which the caller then destroys.
    for (auto &f : pending)
        f.wait();
    for (auto &f : pending)
        f.get();
}

namespace
{

std::unique_ptr<ThreadPool> global_pool;
std::mutex global_mutex;

} // namespace

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(global_mutex);
    if (!global_pool)
        global_pool = std::make_unique<ThreadPool>();
    return *global_pool;
}

void
ThreadPool::setGlobalJobs(unsigned jobs)
{
    std::lock_guard<std::mutex> lock(global_mutex);
    if (global_pool && global_pool->jobs() == std::max(jobs, 1u))
        return;
    global_pool = std::make_unique<ThreadPool>(std::max(jobs, 1u));
}

} // namespace middlesim::sim
