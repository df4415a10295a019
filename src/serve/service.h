/**
 * @file
 * The resident prediction service: a bounded MPMC request queue with
 * admission control in front of a work-conserving batch worker that
 * feeds the compiled inference engine.
 *
 * Design:
 *  - Backpressure by rejection, never by growth. submit() admits a job
 *    only while the queue holds fewer than queueCapacityRows rows;
 *    beyond that the job is refused synchronously with "queue_full"
 *    so memory stays bounded and clients get an immediate, actionable
 *    signal (retry, shed, or route elsewhere) instead of unbounded
 *    latency.
 *  - Idle answers on the caller's thread. When the queue is empty and
 *    no batch is in flight, submit() answers the job itself, on the
 *    submitting thread, through the same processBatch() the worker
 *    uses. Handing a lone job to a sleeping worker costs a
 *    condition-variable wakeup (~30 us) many times the answer (~1 us).
 *    One busy_ flag, under the queue mutex, marks a batch in flight
 *    on either path, so at most one batch runs at a time.
 *  - Work-conserving batching under load. Jobs that arrive while a
 *    batch is in flight queue; the worker sleeps until the queue is
 *    non-empty and nothing is in flight, then takes queued jobs until
 *    it holds batchRows rows or the queue is empty, and answers them
 *    with ONE MultiAppPredictor::predictBatch call — bit-identical to
 *    per-row predict() by the engine's construction. Batches form only
 *    from requests that arrive while a batch is in flight, which is
 *    the only time batching saves anything, and the worker keeps that
 *    backlog off the submitting (transport reader) threads.
 *  - Deadlines. A job whose deadline passes while it waits behind a
 *    busy worker is answered "deadline_expired" at flush time rather
 *    than predicted late.
 *  - Hot reload. reload() builds a fresh model via the injected
 *    factory (typically a warm artifact-cache load) OUTSIDE any lock,
 *    then atomically swaps the served shared_ptr; in-flight batches
 *    finish on the epoch they started with.
 *  - Graceful drain. drain() stops admission, waits for an in-flight
 *    inline answer, lets the worker answer everything already queued,
 *    and joins it. The destructor drains.
 *
 * Observability (default registry): counters serve.requests,
 * serve.predictions, serve.batches, serve.rejected_full,
 * serve.deadline_expired, serve.reloads; gauges serve.queue_rows,
 * serve.model_epoch; histograms serve.batch_rows (rows per flush),
 * serve.latency (submit-to-answer seconds) and serve.queue_wait
 * (submit-to-flush seconds). PredictionLog provenance sampling rides
 * the predictBatch audit hook unchanged.
 */

#ifndef MAPP_SERVE_SERVICE_H
#define MAPP_SERVE_SERVICE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "predictor/predictor.h"

namespace mapp::serve {

/** Tuning knobs of the batching service. */
struct ServiceOptions
{
    /** Admission bound: queued rows beyond this are rejected. */
    std::size_t queueCapacityRows = 1024;

    /** A flush stops taking jobs once it holds this many rows (jobs
     *  are never split, so the last one taken may overshoot). */
    std::size_t batchRows = 32;

    /** Deadline applied to requests that carry none (0 = none). */
    double defaultDeadlineMs = 0.0;
};

/** Outcome of one submitted job, delivered to its callback. */
struct JobResult
{
    bool ok = false;
    /** "queue_full" | "deadline_expired" | "shutting_down" when !ok. */
    std::string error;
    /** One prediction per query row, in submit order. */
    std::vector<double> predictedSeconds;
    std::uint64_t epoch = 0;  ///< model epoch that answered the job
    double queueUs = 0.0;     ///< submit-to-flush wait
};

/** Invoked exactly once per submitted job (see submit()). */
using JobCallback = std::function<void(JobResult)>;

/** Builds a fresh model for reload() (e.g. from the artifact cache). */
using ModelFactory =
    std::function<std::shared_ptr<const predictor::MultiAppPredictor>()>;

/** The batching prediction service. */
class PredictionService
{
  public:
    /**
     * @param model   trained predictor to serve (epoch 1)
     * @param factory optional rebuilder for reload(); reload() fails
     *                with FatalError when absent
     * @throws FatalError when @p model is null or untrained
     */
    PredictionService(
        std::shared_ptr<const predictor::MultiAppPredictor> model,
        ModelFactory factory = nullptr, ServiceOptions options = {});

    /** Drains and joins the worker. */
    ~PredictionService();

    PredictionService(const PredictionService&) = delete;
    PredictionService& operator=(const PredictionService&) = delete;

    /**
     * Submit one job of 1..n query rows. Thread-safe. The callback is
     * invoked exactly once, and may run on the submitting thread:
     *  - synchronously when the job is rejected (queue full, empty
     *    job, or draining);
     *  - synchronously, before submit() returns, when the service is
     *    idle (empty queue, no batch in flight): the job is answered
     *    on this thread;
     *  - otherwise on the batch worker after its batch flushes.
     * A callback may resubmit (the new job queues for the worker) but
     * must not block on a later job's answer or call drain().
     * @p deadlineMs of 0 applies options().defaultDeadlineMs.
     * @return true when the job was admitted (answered or queued).
     */
    bool submit(std::vector<predictor::BagQuery> queries,
                double deadlineMs, JobCallback done);

    /**
     * Build a fresh model via the factory and swap it in. In-flight
     * batches are never blocked: they finish on the model they
     * grabbed. @return the new epoch. @throws FatalError when no
     * factory was injected or it returns an untrained model.
     */
    std::uint64_t reload();

    /** Stop admission, wait for an in-flight inline answer, answer
     *  everything queued, join the worker. Idempotent. */
    void drain();

    /** True once drain() began (new submissions are refused). */
    bool draining() const;

    /** The served model (the current epoch's). */
    std::shared_ptr<const predictor::MultiAppPredictor> model() const;

    /** Monotonic model version; starts at 1, bumped by reload(). */
    std::uint64_t epoch() const;

    /** Rows currently queued (diagnostic). */
    std::size_t queuedRows() const;

    const ServiceOptions& options() const { return options_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Job
    {
        std::vector<predictor::BagQuery> queries;
        JobCallback done;
        Clock::time_point enqueued;
        Clock::time_point deadline;  ///< Clock::time_point::max() = none
    };

    void workerLoop();

    /** Answer one coalesced batch (expiry, predict, callbacks). */
    void processBatch(std::vector<Job> batch);

    const ServiceOptions options_;
    const ModelFactory factory_;

    mutable std::mutex modelMutex_;
    std::shared_ptr<const predictor::MultiAppPredictor> model_;
    std::uint64_t epoch_ = 1;

    mutable std::mutex queueMutex_;
    std::mutex drainMutex_;  ///< serializes worker_.join() in drain()
    std::condition_variable queueCv_;
    std::deque<Job> queue_;
    std::size_t queuedRows_ = 0;
    bool busy_ = false;  ///< a batch is in flight (inline or worker)
    bool draining_ = false;

    // Instruments resolved once (updates are lock-free atomics).
    obs::Counter& requestsCounter_;
    obs::Counter& predictionsCounter_;
    obs::Counter& batchesCounter_;
    obs::Counter& rejectedCounter_;
    obs::Counter& expiredCounter_;
    obs::Counter& reloadsCounter_;
    obs::Gauge& queueRowsGauge_;
    obs::Gauge& epochGauge_;
    obs::Histogram& batchRowsHistogram_;
    obs::Histogram& latencyHistogram_;
    obs::Histogram& queueWaitHistogram_;

    std::thread worker_;  ///< last member: joins before fields die
};

}  // namespace mapp::serve

#endif  // MAPP_SERVE_SERVICE_H
