#include "util/thread_pool.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "util/logging.hh"

namespace wct
{

namespace
{

/** Worker index of the current thread in its pool (npos = outsider). */
thread_local const ThreadPool *tls_pool = nullptr;
thread_local std::size_t tls_worker = 0;

std::mutex &
globalPoolMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::unique_ptr<ThreadPool> &
globalPoolSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

} // namespace

ThreadPool::ThreadPool(std::size_t workers)
{
    queues_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
        stop_.store(true, std::memory_order_release);
    }
    sleepCv_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    wct_assert(!queues_.empty(), "submit on a thread-less pool");
    std::size_t index;
    if (tls_pool == this) {
        index = tls_worker; // own deque: LIFO locality
    } else {
        index = nextQueue_.fetch_add(1, std::memory_order_relaxed) %
            queues_.size();
    }
    {
        std::lock_guard<std::mutex> lock(queues_[index]->mutex);
        queues_[index]->tasks.push_back(std::move(task));
    }
    sleepCv_.notify_one();
}

bool
ThreadPool::runOneTask()
{
    const std::size_t k = queues_.size();
    if (k == 0)
        return false;
    const bool own = tls_pool == this;
    const std::size_t start = own ? tls_worker : 0;

    std::function<void()> task;
    // Own deque back first (newest: cache-warm subtree), then steal
    // the oldest task from the other deques.
    if (own) {
        WorkerQueue &queue = *queues_[start];
        std::lock_guard<std::mutex> lock(queue.mutex);
        if (!queue.tasks.empty()) {
            task = std::move(queue.tasks.back());
            queue.tasks.pop_back();
        }
    }
    for (std::size_t probe = 0; !task && probe < k; ++probe) {
        const std::size_t victim = (start + probe) % k;
        if (own && victim == start)
            continue;
        WorkerQueue &queue = *queues_[victim];
        std::lock_guard<std::mutex> lock(queue.mutex);
        if (!queue.tasks.empty()) {
            task = std::move(queue.tasks.front());
            queue.tasks.pop_front();
        }
    }
    if (!task)
        return false;
    task();
    return true;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    tls_pool = this;
    tls_worker = self;
    while (true) {
        if (runOneTask())
            continue;
        std::unique_lock<std::mutex> lock(sleepMutex_);
        if (stop_.load(std::memory_order_acquire))
            break;
        // Under this lock the worker checks only stop_, not the
        // queues, and submit() notifies without taking the lock. A
        // notify that lands between the empty probe above and
        // wait_for is therefore lost, and the worker sees the new
        // task only when the 10 ms wait times out. The task is not
        // stranded meanwhile: a thread waiting on its TaskGroup runs
        // queued tasks itself. Closing the gap would move the
        // scheduling of every workload, so it needs its own
        // measurement.
        sleepCv_.wait_for(lock, std::chrono::milliseconds(10));
    }
    // Drain any work that raced with shutdown.
    while (runOneTask()) {
    }
    tls_pool = nullptr;
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    auto &slot = globalPoolSlot();
    if (!slot) {
        const std::size_t threads = configuredThreads();
        slot = std::make_unique<ThreadPool>(threads <= 1 ? 0 : threads);
    }
    return *slot;
}

std::size_t
ThreadPool::configuredThreads()
{
    const std::size_t fallback = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    const char *env = std::getenv("WCT_THREADS");
    if (env == nullptr || *env == '\0')
        return fallback;
    char *end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0' || parsed == 0 || parsed > 1024) {
        wct_warn("ignoring invalid WCT_THREADS='", env,
                 "' (want an integer in [1, 1024]); using ", fallback);
        return fallback;
    }
    return static_cast<std::size_t>(parsed);
}

void
ThreadPool::resetGlobalForTest(std::size_t workers)
{
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    globalPoolSlot() = std::make_unique<ThreadPool>(workers);
}

TaskGroup::~TaskGroup()
{
    wait();
}

void
TaskGroup::run(std::function<void()> task)
{
    if (pool_.workerCount() == 0) {
        // Serial path: execute inline, but keep the exception
        // contract identical to the pooled path (first failure
        // surfaces at wait(), siblings still run).
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(exceptionMutex_);
            if (!exception_)
                exception_ = std::current_exception();
        }
        return;
    }
    pending_.fetch_add(1, std::memory_order_acq_rel);
    pool_.submit([this, task = std::move(task)] {
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(exceptionMutex_);
            if (!exception_)
                exception_ = std::current_exception();
        }
        pending_.fetch_sub(1, std::memory_order_acq_rel);
    });
}

void
TaskGroup::wait()
{
    while (pending_.load(std::memory_order_acquire) > 0) {
        // Help instead of blocking: this is what makes nested
        // fork/join (subtree tasks spawning subtree tasks) safe.
        if (!pool_.runOneTask())
            std::this_thread::yield();
    }
    std::exception_ptr pending_exception;
    {
        std::lock_guard<std::mutex> lock(exceptionMutex_);
        std::swap(pending_exception, exception_);
    }
    if (pending_exception)
        std::rethrow_exception(pending_exception);
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            ThreadPool &pool, std::size_t min_chunk)
{
    min_chunk = std::max<std::size_t>(1, min_chunk);
    const std::size_t workers = pool.workerCount();
    if (workers == 0 || n <= min_chunk) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // ~4 chunks per executor keeps the stealing balanced without
    // drowning the deques in tiny tasks.
    const std::size_t chunks = std::min(
        n / min_chunk + (n % min_chunk != 0), 4 * (workers + 1));
    const std::size_t chunk = (n + chunks - 1) / chunks;
    TaskGroup group(pool);
    for (std::size_t begin = 0; begin < n; begin += chunk) {
        const std::size_t end = std::min(n, begin + chunk);
        group.run([&fn, begin, end] {
            for (std::size_t i = begin; i < end; ++i)
                fn(i);
        });
    }
    group.wait();
}

} // namespace wct
