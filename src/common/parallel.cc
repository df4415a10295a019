#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mapp::parallel {

namespace {

/** 0 = no override; set via setMaxThreads(). */
std::atomic<int> gMaxThreadsOverride{0};

/**
 * Flipped when the global pool's static destruction begins, so late
 * parallelFor callers (atexit handlers, other static destructors) run
 * their loops inline instead of calling into a dead pool.
 */
std::atomic<bool> gPoolRetired{false};

struct PoolRetireFlag
{
    ~PoolRetireFlag() { gPoolRetired.store(true, std::memory_order_relaxed); }
};

int
envOrHardwareThreads()
{
    if (const char* env = std::getenv("MAPP_THREADS")) {
        char* end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            return static_cast<int>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

int
maxThreads()
{
    const int override = gMaxThreadsOverride.load(std::memory_order_relaxed);
    if (override > 0)
        return override;
    // Resolved once: the environment cannot change mid-process, and a
    // stable value keeps pool sizing consistent across subsystems.
    static const int resolved = envOrHardwareThreads();
    return resolved;
}

void
setMaxThreads(int threads)
{
    gMaxThreadsOverride.store(threads > 0 ? threads : 0,
                              std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int workers)
{
    const int n = workers > 0 ? workers : 0;
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    obs::defaultRegistry()
        .gauge("parallel.pool.workers")
        .set(static_cast<double>(n));
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!stopping_ && !workers_.empty()) {
            queue_.push(std::move(task));
            obs::defaultRegistry()
                .gauge("parallel.pool.queue_depth")
                .set(static_cast<double>(queue_.size()));
            cv_.notify_one();
            return;
        }
    }
    // Inline fallback: zero workers or shutdown already began.
    task();
    std::lock_guard<std::mutex> lock(mutex_);
    ++tasksRun_;
}

std::size_t
ThreadPool::tasksRun() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tasksRun_;
}

std::size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

void
ThreadPool::workerLoop()
{
    auto& registry = obs::defaultRegistry();
    auto& tasksCounter = registry.counter("parallel.pool.tasks_run");
    auto& depthGauge = registry.gauge("parallel.pool.queue_depth");
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return;  // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop();
            depthGauge.set(static_cast<double>(queue_.size()));
        }
        task();
        tasksCounter.add(1);
        std::lock_guard<std::mutex> lock(mutex_);
        ++tasksRun_;
    }
}

ThreadPool&
globalPool()
{
    // Shutdown ordering: pool workers (and the tasks the destructor
    // drains) touch the process-wide obs singletons, so those magic
    // statics must finish construction BEFORE the pool's does — C++
    // destroys function-local statics in reverse completion order, so
    // this guarantees the registry/tracer/prediction-log outlive the
    // joined workers. Without the pin, a singleton first constructed
    // from a worker task (e.g. the prediction log on a serve-mode
    // audit) would be destroyed while the pool still drains.
    obs::defaultRegistry();
    obs::tracer();
    obs::predictionLog();
    // Sized once from the budget at first parallel use. The destructor
    // drains the queue and joins every worker.
    static ThreadPool pool(maxThreads() - 1);
    // Completes construction after `pool`, so it is destroyed first:
    // the retired flag flips before the pool's destructor runs and
    // every later parallelFor stays serial (see parallelFor).
    static const PoolRetireFlag retire;
    (void)retire;
    return pool;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)>& body)
{
    if (n == 0)
        return;

    const auto lanes = static_cast<std::size_t>(maxThreads());
    if (lanes <= 1 || n == 1 ||
        gPoolRetired.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    struct SharedState
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::mutex mutex;
        std::condition_variable cv;
        std::exception_ptr error;
    };
    auto state = std::make_shared<SharedState>();

    auto runLane = [state, n, &body] {
        for (;;) {
            const std::size_t i =
                state->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state->mutex);
                if (!state->error)
                    state->error = std::current_exception();
            }
            if (state->done.fetch_add(1, std::memory_order_acq_rel) +
                    1 ==
                n) {
                std::lock_guard<std::mutex> lock(state->mutex);
                state->cv.notify_all();
            }
        }
    };

    // One helper task per extra lane (bounded by n); the calling thread
    // is the final lane and then blocks until every iteration retired.
    // Helper tasks hold the shared state alive even if they start after
    // the caller returned from its own lane.
    const std::size_t helpers = std::min(lanes - 1, n - 1);
    ThreadPool& pool = globalPool();
    for (std::size_t h = 0; h < helpers; ++h)
        pool.submit(runLane);
    runLane();

    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] {
        return state->done.load(std::memory_order_acquire) == n;
    });
    if (state->error)
        std::rethrow_exception(state->error);
}

}  // namespace mapp::parallel
