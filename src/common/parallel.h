/**
 * @file
 * The MAPP parallel execution layer: a fixed-size ThreadPool with clean
 * shutdown plus parallelFor/parallelMap helpers that drive the
 * pipeline's embarrassingly parallel loops (per-bag campaign
 * collection, LOOCV folds, per-tree forest fits).
 *
 * Design rules:
 *  - Determinism first. parallelFor hands each index its own output
 *    slot and nothing else, so results are bit-identical to the serial
 *    loop regardless of scheduling. Anything stochastic must derive its
 *    stream from the index, never from execution order.
 *  - One process-wide pool (globalPool()), sized from MAPP_THREADS (or
 *    the hardware concurrency when unset), shared by every subsystem so
 *    nested parallel sections cannot oversubscribe the machine: inner
 *    parallelFor calls that cannot get the pool run inline on the
 *    calling thread.
 *  - The calling thread always participates in its own parallelFor, so
 *    a pool of W workers yields W+1 lanes and a 1-thread configuration
 *    degenerates to the plain serial loop (no pool touched at all).
 *  - Exceptions thrown by a body are captured, the remaining iterations
 *    are drained, and the first captured exception is rethrown on the
 *    calling thread.
 */

#ifndef MAPP_COMMON_PARALLEL_H
#define MAPP_COMMON_PARALLEL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mapp::parallel {

/**
 * A fixed-size worker pool over one FIFO task queue. Tasks must not
 * throw (parallelFor wraps bodies so they never do). The destructor
 * drains the queue, then joins every worker: submitted work always
 * completes before shutdown finishes.
 */
class ThreadPool
{
  public:
    /** Spawn @p workers threads (clamped to >= 0; 0 = inline pool). */
    explicit ThreadPool(int workers);

    /** Drains remaining tasks, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /**
     * Enqueue one task. With zero workers (or after shutdown began) the
     * task runs inline on the calling thread instead, so submit() never
     * loses work.
     */
    void submit(std::function<void()> task);

    int workerCount() const { return static_cast<int>(workers_.size()); }

    /** Tasks fully executed so far (workers + inline fallbacks). */
    std::size_t tasksRun() const;

    /** Tasks currently waiting in the queue. */
    std::size_t queueDepth() const;

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::queue<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    std::size_t tasksRun_ = 0;
    bool stopping_ = false;
};

/**
 * The lane budget for parallel sections: MAPP_THREADS when set to a
 * positive integer, otherwise std::thread::hardware_concurrency(),
 * otherwise 1; always >= 1. A setMaxThreads() override wins over both.
 */
int maxThreads();

/**
 * Override maxThreads() at runtime (tests, CLI --threads). Pass 0 to
 * restore the environment/hardware default. Workers already spawned are
 * kept; a lower value simply stops handing them work.
 */
void setMaxThreads(int threads);

/**
 * The process-wide pool, lazily constructed with maxThreads()-1 workers
 * on first use. Never touched while maxThreads() is 1.
 */
ThreadPool& globalPool();

/**
 * Run body(0..n-1), possibly concurrently, and return when every
 * iteration finished. Iterations are claimed from one atomic counter,
 * so the order is unspecified — bodies must only touch per-index state.
 * The first exception thrown by any body is rethrown here after all
 * iterations drain.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)>& body);

/**
 * Map fn over items with parallelFor; out[i] = fn(items[i]) with the
 * exact ordering of the serial loop. R must be default-constructible.
 */
template <typename T, typename Fn>
auto
parallelMap(const std::vector<T>& items, Fn&& fn)
    -> std::vector<decltype(fn(items.front()))>
{
    std::vector<decltype(fn(items.front()))> out(items.size());
    parallelFor(items.size(),
                [&](std::size_t i) { out[i] = fn(items[i]); });
    return out;
}

}  // namespace mapp::parallel

#endif  // MAPP_COMMON_PARALLEL_H
