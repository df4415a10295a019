#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "common/parallel.h"
#include "predictor/quality.h"

namespace mapp::serve {

namespace {

obs::Registry&
serveRegistry()
{
    return obs::defaultRegistry();
}

}  // namespace

PredictionService::PredictionService(
    std::shared_ptr<const predictor::MultiAppPredictor> model,
    ModelFactory factory, ServiceOptions options)
    : options_([&options] {
          options.batchRows = std::max<std::size_t>(options.batchRows, 1);
          // queueCapacityRows may be smaller than batchRows: batches
          // then just max out at the capacity.
          options.queueCapacityRows =
              std::max<std::size_t>(options.queueCapacityRows, 1);
          options.defaultDeadlineMs =
              std::max(options.defaultDeadlineMs, 0.0);
          return options;
      }()),
      factory_(std::move(factory)),
      model_(std::move(model)),
      requestsCounter_(serveRegistry().counter("serve.requests")),
      predictionsCounter_(serveRegistry().counter("serve.predictions")),
      batchesCounter_(serveRegistry().counter("serve.batches")),
      rejectedCounter_(serveRegistry().counter("serve.rejected_full")),
      expiredCounter_(serveRegistry().counter("serve.deadline_expired")),
      reloadsCounter_(serveRegistry().counter("serve.reloads")),
      queueRowsGauge_(serveRegistry().gauge("serve.queue_rows")),
      epochGauge_(serveRegistry().gauge("serve.model_epoch")),
      batchRowsHistogram_(serveRegistry().histogram(
          "serve.batch_rows",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0})),
      latencyHistogram_(serveRegistry().histogram("serve.latency")),
      queueWaitHistogram_(serveRegistry().histogram("serve.queue_wait"))
{
    if (!model_ || !model_->trained())
        fatal("prediction service needs a trained model");
    // Pin shutdown-sensitive singletons (quality monitor, thread pool,
    // obs stack) before the service exists anywhere: the batch worker
    // and drain path may touch them, and a service owned by a static or
    // destroyed late must not be the first to construct them.
    predictor::ModelQualityMonitor::global();
    parallel::globalPool();
    epochGauge_.set(1.0);
    queueRowsGauge_.set(0.0);
    worker_ = std::thread([this] { workerLoop(); });
}

PredictionService::~PredictionService()
{
    drain();
}

bool
PredictionService::submit(std::vector<predictor::BagQuery> queries,
                          double deadlineMs, JobCallback done)
{
    requestsCounter_.add(1);
    if (!done)
        fatal("prediction service: submit() needs a callback");
    const auto refuse = [&](const char* code) {
        JobResult result;
        result.ok = false;
        result.error = code;
        done(std::move(result));
        return false;
    };
    if (queries.empty())
        return refuse("bad_request");

    if (deadlineMs <= 0.0)
        deadlineMs = options_.defaultDeadlineMs;

    Job job;
    job.enqueued = Clock::now();
    job.deadline =
        deadlineMs > 0.0
            ? job.enqueued + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     deadlineMs))
            : Clock::time_point::max();
    const std::size_t rows = queries.size();
    job.queries = std::move(queries);
    job.done = std::move(done);

    bool rejected = false;
    bool answerHere = false;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (draining_) {
            done = std::move(job.done);
        } else if (queuedRows_ + rows > options_.queueCapacityRows) {
            rejectedCounter_.add(1);
            done = std::move(job.done);
            rejected = true;
        } else if (!busy_ && queue_.empty()) {
            busy_ = true;
            answerHere = true;
            done = nullptr;
        } else {
            queue_.push_back(std::move(job));
            queuedRows_ += rows;
            queueRowsGauge_.set(static_cast<double>(queuedRows_));
            done = nullptr;
        }
    }
    // Refuse outside the lock: the callback may be arbitrary client
    // code (it can even resubmit).
    if (done)
        return refuse(rejected ? "queue_full" : "shutting_down");
    if (!answerHere) {
        queueCv_.notify_one();
        return true;
    }

    // Idle service: answer on this thread. Handing the job to the
    // sleeping worker would cost a wakeup many times the answer
    // itself. Jobs submitted meanwhile (a callback may resubmit) queue
    // behind busy_ and the worker takes them once it clears.
    struct ClearBusy
    {
        PredictionService& service;
        ~ClearBusy()
        {
            bool wake = false;
            {
                std::lock_guard<std::mutex> lock(service.queueMutex_);
                service.busy_ = false;
                wake = service.draining_ || !service.queue_.empty();
            }
            if (wake)
                service.queueCv_.notify_one();
        }
    } clearBusy{*this};
    std::vector<Job> batch;
    batch.push_back(std::move(job));
    processBatch(std::move(batch));
    return true;
}

std::uint64_t
PredictionService::reload()
{
    if (!factory_)
        fatal("prediction service: no reload factory configured");
    // Build outside every lock: training/cache-loading is the slow
    // part, and in-flight batches must keep predicting meanwhile.
    auto fresh = factory_();
    if (!fresh || !fresh->trained())
        fatal("prediction service: reload produced an untrained model");
    std::uint64_t epoch = 0;
    {
        std::lock_guard<std::mutex> lock(modelMutex_);
        model_ = std::move(fresh);
        epoch = ++epoch_;
    }
    reloadsCounter_.add(1);
    epochGauge_.set(static_cast<double>(epoch));
    return epoch;
}

void
PredictionService::drain()
{
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        draining_ = true;
    }
    queueCv_.notify_all();
    // Serialize the join: drain() may race between the destructor, the
    // transport's stop path and the shutdown watcher thread.
    std::lock_guard<std::mutex> joinLock(drainMutex_);
    if (worker_.joinable())
        worker_.join();
}

bool
PredictionService::draining() const
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    return draining_;
}

std::shared_ptr<const predictor::MultiAppPredictor>
PredictionService::model() const
{
    std::lock_guard<std::mutex> lock(modelMutex_);
    return model_;
}

std::uint64_t
PredictionService::epoch() const
{
    std::lock_guard<std::mutex> lock(modelMutex_);
    return epoch_;
}

std::size_t
PredictionService::queuedRows() const
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    return queuedRows_;
}

void
PredictionService::workerLoop()
{
    std::unique_lock<std::mutex> lock(queueMutex_);
    for (;;) {
        // busy_ means a batch is in flight (an inline answer on a
        // submitting thread): wait for it so at most one runs, and so
        // drain() cannot return while it is still answering.
        queueCv_.wait(lock, [this] {
            return !busy_ && (draining_ || !queue_.empty());
        });
        if (queue_.empty())
            return;  // draining_ and nothing left to answer

        // Take whole jobs until the batch reaches batchRows. A single
        // job larger than batchRows is taken whole — predictBatch
        // handles any row count and a job is never split across
        // predictBatch calls.
        std::vector<Job> batch;
        std::size_t batchedRows = 0;
        while (!queue_.empty() &&
               (batch.empty() || batchedRows < options_.batchRows)) {
            batchedRows += queue_.front().queries.size();
            queuedRows_ -= queue_.front().queries.size();
            batch.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        queueRowsGauge_.set(static_cast<double>(queuedRows_));
        busy_ = true;
        lock.unlock();
        processBatch(std::move(batch));
        lock.lock();
        busy_ = false;
    }
}

void
PredictionService::processBatch(std::vector<Job> batch)
{
    const auto flushed = Clock::now();

    // Expire jobs whose deadline passed while they queued; answer them
    // before spending compute on the survivors.
    std::vector<Job> live;
    live.reserve(batch.size());
    for (auto& job : batch) {
        if (flushed >= job.deadline) {
            expiredCounter_.add(1);
            JobResult result;
            result.ok = false;
            result.error = "deadline_expired";
            job.done(std::move(result));
        } else {
            live.push_back(std::move(job));
        }
    }
    if (live.empty())
        return;

    std::vector<predictor::BagQuery> rows;
    std::size_t total = 0;
    for (const auto& job : live)
        total += job.queries.size();
    rows.reserve(total);
    for (auto& job : live)
        for (auto& query : job.queries)
            rows.push_back(std::move(query));

    // Pin the serving model: a concurrent reload() swaps the pointer
    // but this batch finishes on the epoch it started with.
    std::shared_ptr<const predictor::MultiAppPredictor> model;
    std::uint64_t epoch = 0;
    {
        std::lock_guard<std::mutex> lock(modelMutex_);
        model = model_;
        epoch = epoch_;
    }

    JobResult failure;
    std::vector<double> predicted;
    try {
        predicted = model->predictBatch(rows);
    } catch (const std::exception& e) {
        failure.ok = false;
        failure.error = "internal";
        warn(std::string("prediction service: batch failed: ") +
             e.what());
    }

    batchesCounter_.add(1);
    batchRowsHistogram_.observe(static_cast<double>(total));

    std::size_t offset = 0;
    for (auto& job : live) {
        const std::size_t n = job.queries.size();
        const auto waited =
            std::chrono::duration<double>(flushed - job.enqueued)
                .count();
        if (!predicted.empty()) {
            JobResult result;
            result.ok = true;
            result.epoch = epoch;
            result.queueUs = waited * 1e6;
            result.predictedSeconds.assign(
                predicted.begin() + static_cast<std::ptrdiff_t>(offset),
                predicted.begin() +
                    static_cast<std::ptrdiff_t>(offset + n));
            predictionsCounter_.add(n);
            job.done(std::move(result));
        } else {
            job.done(failure);
        }
        offset += n;
        queueWaitHistogram_.observe(waited);
        latencyHistogram_.observe(
            std::chrono::duration<double>(Clock::now() - job.enqueued)
                .count());
    }
}

}  // namespace mapp::serve
