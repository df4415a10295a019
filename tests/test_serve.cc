/**
 * @file
 * The resident prediction service end to end: batched answers
 * bit-identical to direct predict() calls, an idle service that answers
 * on the submitting thread, one flush for jobs queued behind a busy
 * worker, drain and resubmission around an inline answer,
 * bounded-queue admission control, per-request deadlines, atomic hot
 * reload under load, the JSONL protocol codec, and concurrent clients
 * hammering a real Unix-domain socket. Runs under `ctest -L parallel`
 * (TSan) — every path here is exercised from multiple threads by
 * design.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"

namespace {

using namespace mapp;
using serve::JobResult;
using serve::PredictionService;
using serve::ServiceOptions;

// ---------------------------------------------------------------------------
// Synthetic model: deterministic features and targets, so two models
// trained from the same seed are identical and predictions can be
// compared bit for bit.

predictor::AppFeatures
randomApp(Rng& rng, int index)
{
    predictor::AppFeatures app;
    app.app = "app" + std::to_string(index % 7);
    app.batchSize = static_cast<int>(rng.uniformInt(1, 100));
    app.cpuTime = rng.uniform(0.01, 2.0);
    app.gpuTime = rng.uniform(0.01, 1.0);
    double total = 0.0;
    for (auto& m : app.mixPercent) {
        m = rng.uniform(0.0, 1.0);
        total += m;
    }
    for (auto& m : app.mixPercent)
        m = 100.0 * m / total;
    return app;
}

std::vector<predictor::DataPoint>
syntheticCampaign(unsigned seed, int rows)
{
    Rng rng(seed);
    std::vector<predictor::DataPoint> points;
    points.reserve(static_cast<std::size_t>(rows));
    for (int i = 0; i < rows; ++i) {
        predictor::DataPoint p;
        p.a = randomApp(rng, i);
        p.b = randomApp(rng, i + 3);
        p.fairness = rng.uniform(0.2, 1.0);
        p.gpuBagTime = p.a.gpuTime + p.b.gpuTime +
                       0.25 * p.fairness * p.a.gpuTime;
        points.push_back(std::move(p));
    }
    return points;
}

std::shared_ptr<const predictor::MultiAppPredictor>
trainModel(unsigned seed)
{
    auto model = std::make_shared<predictor::MultiAppPredictor>();
    model->train(syntheticCampaign(seed, 64));
    return model;
}

std::vector<predictor::BagQuery>
randomQueries(unsigned seed, int n)
{
    Rng rng(seed);
    std::vector<predictor::BagQuery> queries;
    queries.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        predictor::BagQuery q;
        q.a = randomApp(rng, i);
        q.b = randomApp(rng, i + 5);
        q.fairness = rng.uniform(0.2, 1.0);
        queries.push_back(std::move(q));
    }
    return queries;
}

/** Collects one JobResult per submitted job and counts arrivals. */
struct ResultSink
{
    explicit ResultSink(std::size_t n) : results(n) {}

    serve::JobCallback slot(std::size_t i)
    {
        return [this, i](JobResult r) {
            results[i] = std::move(r);
            arrived.fetch_add(1, std::memory_order_acq_rel);
            arrived.notify_all();
        };
    }

    /** Block (not spin: the worker may need this core) until @p n
     *  results arrived. */
    void waitFor(std::size_t n)
    {
        for (auto seen = arrived.load(); seen < n; seen = arrived.load())
            arrived.wait(seen);
    }

    std::vector<JobResult> results;
    std::atomic<std::size_t> arrived{0};
};

/**
 * Holds the service busy so later jobs queue behind it. The
 * constructor submits, from a thread of its own, one job whose callback
 * blocks until release(), and returns once that callback runs. An idle
 * service answers a job on the submitting thread, so submitting from
 * the test thread would block the test itself. Declare it after the
 * service: its destructor releases the callback and joins its thread,
 * so the service's drain never waits on it.
 */
class BusyWorker
{
  public:
    explicit BusyWorker(PredictionService& service)
        : gate_(std::make_shared<Gate>())
    {
        submitter_ = std::thread([&service, gate = gate_] {
            EXPECT_TRUE(service.submit(
                randomQueries(7, 1), 0.0, [gate](JobResult) {
                    std::unique_lock<std::mutex> lock(gate->mutex);
                    gate->entered = true;
                    gate->cv.notify_all();
                    gate->cv.wait(lock, [&] { return gate->released; });
                }));
        });
        std::unique_lock<std::mutex> lock(gate_->mutex);
        gate_->cv.wait(lock, [&] { return gate_->entered; });
    }

    ~BusyWorker()
    {
        release();
        submitter_.join();
    }

    BusyWorker(const BusyWorker&) = delete;
    BusyWorker& operator=(const BusyWorker&) = delete;

    void release()
    {
        {
            std::lock_guard<std::mutex> lock(gate_->mutex);
            gate_->released = true;
        }
        gate_->cv.notify_all();
    }

  private:
    // Shared with the callback, which may still be returning from its
    // wait after this object is gone.
    struct Gate
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool entered = false;
        bool released = false;
    };
    std::shared_ptr<Gate> gate_;
    std::thread submitter_;
};

// ---------------------------------------------------------------------------
// PredictionService

TEST(PredictionService, BatchedAnswersBitIdenticalToDirectPredict)
{
    const auto model = trainModel(11);
    ServiceOptions options;
    options.batchRows = 8;
    PredictionService service(model, nullptr, options);

    // Every job queues behind the busy worker, so the 48 rows are
    // answered in batches of batchRows.
    BusyWorker busy(service);
    const auto queries = randomQueries(12, 48);
    ResultSink sink(queries.size());
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t)
        clients.emplace_back([&, t] {
            for (std::size_t i = static_cast<std::size_t>(t);
                 i < queries.size(); i += 4)
                EXPECT_TRUE(
                    service.submit({queries[i]}, 0.0, sink.slot(i)));
        });
    for (auto& t : clients)
        t.join();
    busy.release();
    service.drain();
    ASSERT_EQ(sink.arrived.load(), queries.size());

    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto& r = sink.results[i];
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_EQ(r.predictedSeconds.size(), 1u);
        EXPECT_EQ(r.predictedSeconds[0],
                  model->predict(queries[i].a, queries[i].b,
                                 queries[i].fairness))
            << "row " << i;
        EXPECT_EQ(r.epoch, 1u);
    }
}

TEST(PredictionService, MultiRowJobsKeepSubmitOrderWithinTheJob)
{
    const auto model = trainModel(21);
    ServiceOptions options;
    options.batchRows = 4;
    PredictionService service(model, nullptr, options);

    const auto queries = randomQueries(22, 10);
    ResultSink sink(1);
    ASSERT_TRUE(service.submit(queries, 0.0, sink.slot(0)));
    service.drain();
    ASSERT_EQ(sink.arrived.load(), 1u);
    const auto& r = sink.results[0];
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.predictedSeconds.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(r.predictedSeconds[i],
                  model->predict(queries[i].a, queries[i].b,
                                 queries[i].fairness));
}

TEST(PredictionService, IdleServiceAnswersWithoutWaiting)
{
    // Default options: an idle worker must not hold a lone job back
    // waiting for batch-mates.
    PredictionService service(trainModel(15));
    const auto queries = randomQueries(16, 20);
    std::vector<double> waits;
    for (const auto& query : queries) {
        ResultSink sink(1);
        ASSERT_TRUE(service.submit({query}, 0.0, sink.slot(0)));
        sink.waitFor(1);
        ASSERT_TRUE(sink.results[0].ok) << sink.results[0].error;
        waits.push_back(sink.results[0].queueUs);
    }
    std::nth_element(waits.begin(), waits.begin() + 10, waits.end());
    EXPECT_LT(waits[10], 1000.0) << "median queue wait in us";
}

TEST(PredictionService, IdleServiceAnswersOnTheSubmittingThread)
{
    PredictionService service(trainModel(13));
    const auto queries = randomQueries(14, 1);
    std::thread::id answeredOn;
    bool answered = false;
    ASSERT_TRUE(service.submit(queries, 0.0, [&](JobResult r) {
        EXPECT_TRUE(r.ok) << r.error;
        answeredOn = std::this_thread::get_id();
        answered = true;
    }));
    // Answered before submit() returned, on this thread.
    EXPECT_TRUE(answered);
    EXPECT_EQ(answeredOn, std::this_thread::get_id());
}

TEST(PredictionService, DrainWaitsForAnInlineAnswer)
{
    PredictionService service(trainModel(19));
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
    std::atomic<bool> callbackDone{false};
    // Answered inline on the submitter's thread; the callback parks
    // until released, then takes a little longer to return.
    std::thread submitter([&] {
        EXPECT_TRUE(service.submit(
            randomQueries(20, 1), 0.0, [&](JobResult r) {
                EXPECT_TRUE(r.ok) << r.error;
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    entered = true;
                    cv.notify_all();
                    cv.wait(lock, [&] { return released; });
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                callbackDone.store(true);
            }));
    });
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return entered; });
    }
    EXPECT_EQ(service.queuedRows(), 0u) << "answered inline, not queued";

    std::atomic<bool> drained{false};
    std::thread drainer([&] {
        service.drain();
        EXPECT_TRUE(callbackDone.load()) << "drain() returned mid-answer";
        drained.store(true);
    });
    while (!service.draining())
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(drained.load());
    {
        std::lock_guard<std::mutex> lock(mutex);
        released = true;
    }
    cv.notify_all();
    drainer.join();
    submitter.join();
    EXPECT_TRUE(drained.load());
}

TEST(PredictionService, ResubmitFromAnInlineCallbackQueues)
{
    const auto model = trainModel(23);
    PredictionService service(model);
    const auto first = randomQueries(24, 1);
    const auto second = randomQueries(25, 1);
    ResultSink sink(2);
    std::thread::id secondAnsweredOn;
    const auto caller = std::this_thread::get_id();
    ASSERT_TRUE(service.submit(first, 0.0, [&](JobResult r) {
        sink.slot(0)(std::move(r));
        // Still inside the inline answer: this job must queue for the
        // worker, not run nested here or wait for this callback.
        EXPECT_TRUE(service.submit(second, 0.0, [&](JobResult r2) {
            secondAnsweredOn = std::this_thread::get_id();
            sink.slot(1)(std::move(r2));
        }));
    }));
    sink.waitFor(2);
    service.drain();
    ASSERT_TRUE(sink.results[0].ok) << sink.results[0].error;
    ASSERT_TRUE(sink.results[1].ok) << sink.results[1].error;
    EXPECT_EQ(sink.results[1].predictedSeconds[0],
              model->predict(second[0].a, second[0].b,
                             second[0].fairness));
    EXPECT_NE(secondAnsweredOn, caller) << "the worker answers it";
}

TEST(PredictionService, JobsQueuedBehindABusyWorkerFlushTogether)
{
    const auto model = trainModel(17);
    PredictionService service(model);
    auto& registry = obs::defaultRegistry();
    auto& batches = registry.counter("serve.batches");
    auto& batchRows = registry.histogram("serve.batch_rows");

    // Jobs of 1, 2, 3 and 4 rows: 10 rows, under the 32-row cap.
    std::vector<std::vector<predictor::BagQuery>> jobs;
    for (int rows = 1; rows <= 4; ++rows)
        jobs.push_back(randomQueries(18 + rows, rows));

    // The last job is submitted just before the release, so its wait is
    // the flush delay once the worker frees up. Its median over rounds
    // is checked, so one preempted wakeup on a loaded host cannot fail
    // the test.
    std::vector<double> lastWaits;
    for (int round = 0; round < 9; ++round) {
        BusyWorker busy(service);
        const auto batchesBefore = batches.value();
        const auto flushesBefore = batchRows.count();
        const double rowsBefore = batchRows.sum();

        ResultSink sink(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            ASSERT_TRUE(service.submit(jobs[i], 0.0, sink.slot(i)));
        EXPECT_EQ(service.queuedRows(), 10u);
        // Not drain(): it would cut a batch-mate wait short and hide it.
        busy.release();
        sink.waitFor(jobs.size());

        EXPECT_EQ(batches.value() - batchesBefore, 1u);
        EXPECT_EQ(batchRows.count() - flushesBefore, 1u);
        EXPECT_EQ(batchRows.sum() - rowsBefore, 10.0);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const auto& r = sink.results[i];
            ASSERT_TRUE(r.ok) << r.error;
            ASSERT_EQ(r.predictedSeconds.size(), jobs[i].size());
            for (std::size_t k = 0; k < jobs[i].size(); ++k)
                EXPECT_EQ(r.predictedSeconds[k],
                          model->predict(jobs[i][k].a, jobs[i][k].b,
                                         jobs[i][k].fairness));
        }
        lastWaits.push_back(sink.results.back().queueUs);
    }
    std::nth_element(lastWaits.begin(), lastWaits.begin() + 4,
                     lastWaits.end());
    EXPECT_LT(lastWaits[4], 1000.0) << "median flush delay in us";
}

TEST(PredictionService, FullQueueRejectsSynchronously)
{
    const auto model = trainModel(31);
    ServiceOptions options;
    options.queueCapacityRows = 4;
    PredictionService service(model, nullptr, options);

    BusyWorker busy(service);  // holds the four jobs in the queue
    const auto queries = randomQueries(32, 5);
    ResultSink sink(queries.size());
    for (std::size_t i = 0; i < 4; ++i)
        ASSERT_TRUE(service.submit({queries[i]}, 0.0, sink.slot(i)));

    // Admission control: the fifth row exceeds the bound and must be
    // refused on this thread, before any batch flushes.
    EXPECT_FALSE(service.submit({queries[4]}, 0.0, sink.slot(4)));
    EXPECT_EQ(sink.arrived.load(), 1u);
    EXPECT_EQ(sink.results[4].error, "queue_full");

    busy.release();
    service.drain();
    ASSERT_EQ(sink.arrived.load(), queries.size());
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_TRUE(sink.results[i].ok) << i;
}

TEST(PredictionService, DeadlinePassedBehindABusyWorkerExpires)
{
    const auto model = trainModel(41);
    PredictionService service(model);

    BusyWorker busy(service);
    ResultSink sink(2);
    ASSERT_TRUE(
        service.submit(randomQueries(42, 1), 5.0, sink.slot(0)));
    ASSERT_TRUE(
        service.submit(randomQueries(43, 1), 0.0, sink.slot(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    busy.release();
    service.drain();

    // The 5 ms job is refused, never answered late; its batch-mate
    // without a deadline is still predicted.
    ASSERT_EQ(sink.arrived.load(), 2u);
    EXPECT_FALSE(sink.results[0].ok);
    EXPECT_EQ(sink.results[0].error, "deadline_expired");
    EXPECT_TRUE(sink.results[1].ok) << sink.results[1].error;
}

TEST(PredictionService, DrainAnswersEverythingThenRefuses)
{
    const auto model = trainModel(51);
    PredictionService service(model);

    BusyWorker busy(service);
    const auto queries = randomQueries(52, 6);
    ResultSink sink(queries.size() + 1);
    for (std::size_t i = 0; i < queries.size(); ++i)
        ASSERT_TRUE(service.submit({queries[i]}, 0.0, sink.slot(i)));

    // drain() waits for the worker, so run it aside; once it has begun,
    // new jobs are refused while the six admitted ones still queue.
    std::thread drainer([&] { service.drain(); });
    while (!service.draining())
        std::this_thread::yield();
    EXPECT_FALSE(service.submit(randomQueries(53, 1), 0.0,
                                sink.slot(queries.size())));
    EXPECT_EQ(sink.results[queries.size()].error, "shutting_down");
    EXPECT_EQ(service.queuedRows(), queries.size());

    busy.release();
    drainer.join();
    EXPECT_EQ(sink.arrived.load(), queries.size() + 1);
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_TRUE(sink.results[i].ok) << sink.results[i].error;
}

TEST(PredictionService, HotReloadUnderLoadStaysBitIdentical)
{
    // The factory rebuilds from the same seed: epochs advance but the
    // served function is unchanged, so every answer — before, during,
    // and after the swaps — must equal the cold model's.
    const auto cold = trainModel(61);
    PredictionService service(
        trainModel(61), [] { return trainModel(61); }, [] {
            ServiceOptions o;
            o.batchRows = 8;
            return o;
        }());

    const auto queries = randomQueries(62, 96);
    ResultSink sink(queries.size());
    std::atomic<bool> reloading{true};
    std::thread reloader([&] {
        for (int r = 0; r < 5; ++r) {
            service.reload();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        reloading.store(false);
    });
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t)
        clients.emplace_back([&, t] {
            for (std::size_t i = static_cast<std::size_t>(t);
                 i < queries.size(); i += 3)
                EXPECT_TRUE(
                    service.submit({queries[i]}, 0.0, sink.slot(i)));
        });
    for (auto& t : clients)
        t.join();
    reloader.join();
    service.drain();
    EXPECT_EQ(service.epoch(), 6u);

    ASSERT_EQ(sink.arrived.load(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto& r = sink.results[i];
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.predictedSeconds[0],
                  cold->predict(queries[i].a, queries[i].b,
                                queries[i].fairness))
            << "row " << i << " epoch " << r.epoch;
    }
}

// ---------------------------------------------------------------------------
// Protocol codec

TEST(ServeProtocol, ParsesPredictRequestsAndRejectsMalformedOnes)
{
    const auto good = serve::parseRequest(
        R"({"op":"predict","id":"q1","deadline_ms":5,)"
        R"("a":"SIFT@40","b":"FAST@20"})");
    ASSERT_TRUE(good.ok()) << good.error().toString();
    EXPECT_EQ(good.value().id, "q1");
    EXPECT_EQ(good.value().op, serve::RequestOp::Predict);
    EXPECT_EQ(good.value().deadlineMs, 5.0);
    ASSERT_EQ(good.value().queries.size(), 1u);
    EXPECT_TRUE(good.value().queries[0].byMembers);

    for (const char* bad : {
             "not json at all",
             R"({"id":"x"})",                         // missing op
             R"({"op":"launch_missiles"})",           // unknown op
             R"({"op":"predict","a":"SIFT@40"})",     // missing b
             R"({"op":"predict","a":"SIFT","b":"FAST@20"})",  // no @
             R"({"op":"predict","a":"NOPE@4","b":"FAST@20"})",
             R"({"op":"predict","a":"SIFT@0","b":"FAST@20"})",
             R"({"op":"predict","deadline_ms":-1,)"
             R"("a":"SIFT@40","b":"FAST@20"})",
             R"({"op":"predict_batch","queries":[]})",
         }) {
        EXPECT_FALSE(serve::parseRequest(bad).ok()) << bad;
    }

    // Raw-feature queries need full features and a fairness value.
    const std::string rawApp =
        R"({"cpu_time":0.5,"gpu_time":0.25,)"
        R"("mix":[10,10,10,10,10,10,10,10,20]})";
    const auto raw = serve::parseRequest(
        R"({"op":"predict","a":)" + rawApp + R"(,"b":)" + rawApp +
        R"(,"fairness":0.75})");
    ASSERT_TRUE(raw.ok()) << raw.error().toString();
    EXPECT_FALSE(raw.value().queries[0].byMembers);
    EXPECT_EQ(raw.value().queries[0].raw.fairness, 0.75);
    EXPECT_FALSE(serve::parseRequest(  // fairness missing
                     R"({"op":"predict","a":)" + rawApp + R"(,"b":)" +
                     rawApp + "}")
                     .ok());
}

TEST(ServeProtocol, RejectsMembersBelowTheirMinimumBatch)
{
    // KNN splits its batch into references and queries, so KNN@3 would
    // profile to an empty trace; the parser refuses it, naming the
    // member and the accepted range, before any profiling.
    const auto knn3 = serve::parseRequest(
        R"({"op":"predict","a":"KNN@3","b":"FAST@20"})", "conn7");
    ASSERT_FALSE(knn3.ok());
    EXPECT_EQ(knn3.error().code(), ErrorCode::Parse);
    EXPECT_EQ(knn3.error().context().file, "conn7");
    const std::string message = knn3.error().message();
    EXPECT_NE(message.find("KNN@3"), std::string::npos) << message;
    EXPECT_NE(message.find("[4, 1000000]"), std::string::npos) << message;

    EXPECT_TRUE(serve::parseRequest(
                    R"({"op":"predict","a":"KNN@4","b":"FAST@1"})")
                    .ok());
}

TEST(ServeProtocol, RawBatchMustBeAWholeNumberInRange)
{
    // A raw app's optional "batch" is cast to int; 1e300 used to reach
    // that cast (undefined behaviour), and -1 or 2.5 were accepted.
    const auto line = [](const std::string& batch) {
        const std::string app =
            R"({"cpu_time":0.5,"gpu_time":0.25,"batch":)" + batch +
            R"(,"mix":[10,10,10,10,10,10,10,10,20]})";
        const std::string plain =
            R"({"cpu_time":0.5,"gpu_time":0.25,)"
            R"("mix":[10,10,10,10,10,10,10,10,20]})";
        return R"({"op":"predict","a":)" + plain + R"(,"b":)" + app +
               R"(,"fairness":0.5})";
    };
    for (const char* bad : {"1e300", "-1", "2.5", "1000001", "\"8\""}) {
        const auto parsed = serve::parseRequest(line(bad), "conn3");
        ASSERT_FALSE(parsed.ok()) << bad;
        EXPECT_EQ(parsed.error().code(), ErrorCode::Parse) << bad;
        EXPECT_EQ(parsed.error().context().file, "conn3") << bad;
        EXPECT_NE(parsed.error().message().find("member 'b'"),
                  std::string::npos)
            << parsed.error().message();
    }
    for (const auto& [text, batch] :
         std::vector<std::pair<std::string, int>>{
             {"0", 0}, {"40", 40}, {"1e6", 1'000'000}}) {
        const auto parsed = serve::parseRequest(line(text));
        ASSERT_TRUE(parsed.ok()) << text << ": "
                                 << parsed.error().toString();
        EXPECT_EQ(parsed.value().queries[0].raw.b.batchSize, batch);
        EXPECT_EQ(parsed.value().queries[0].raw.a.batchSize, 0);
    }
}

TEST(ServeProtocol, ResponsesAreWellFormedJsonl)
{
    EXPECT_EQ(serve::ackResponse("7", serve::RequestOp::Ping),
              R"({"id":"7","ok":true,"op":"ping"})");
    EXPECT_EQ(
        serve::errorResponse("x", "queue_full", "try later"),
        R"({"id":"x","ok":false,"error":"queue_full","message":"try later"})");
    const std::vector<double> one = {0.5};
    EXPECT_EQ(serve::predictResponse("p", serve::RequestOp::Predict,
                                     one, 3, 250.0),
              R"({"id":"p","ok":true,"op":"predict",)"
              R"("predicted_seconds":0.5,"epoch":3,"queue_us":250})");
    const std::vector<double> two = {0.5, 1.5};
    EXPECT_EQ(serve::predictResponse(
                  "pb", serve::RequestOp::PredictBatch, two, 1, 0.0),
              R"({"id":"pb","ok":true,"op":"predict_batch",)"
              R"("predicted_seconds":[0.5,1.5],"epoch":1,"queue_us":0})");
}

// ---------------------------------------------------------------------------
// Server dispatch (in-process, no transport)

TEST(Server, DispatchAnswersSyncOpsAndFlagsBadRequests)
{
    const auto model = trainModel(71);
    PredictionService service(model, nullptr, {});
    predictor::DataCollector collector;
    serve::Server server(service, collector);

    std::vector<std::string> out;
    const auto collect = [&out](std::string line) {
        out.push_back(std::move(line));
    };

    server.handleLine(R"({"op":"ping","id":"1"})", collect);
    server.handleLine("garbage", collect);
    server.handleLine(R"({"op":"stats","id":"2"})", collect);
    server.handleLine(R"({"op":"quality","id":"3"})", collect);
    server.handleLine(R"({"op":"metrics","id":"4"})", collect);

    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[0], R"({"id":"1","ok":true,"op":"ping"})");
    EXPECT_NE(out[1].find("\"ok\":false"), std::string::npos);
    EXPECT_NE(out[1].find("\"error\":\"parse\""), std::string::npos);
    EXPECT_NE(out[2].find("\"epoch\":1"), std::string::npos);
    EXPECT_NE(out[2].find("\"requests\":"), std::string::npos);
    EXPECT_NE(out[3].find("\"mape_pct\":"), std::string::npos);
    EXPECT_NE(out[3].find("\"drift\":["), std::string::npos);
    EXPECT_NE(out[4].find("# TYPE mapp_serve_requests counter"),
              std::string::npos);

    // Reload without a factory is an internal error response, not a
    // crash or a dropped line.
    server.handleLine(R"({"op":"reload","id":"5"})", collect);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_NE(out[5].find("\"error\":\"internal\""),
              std::string::npos);
    service.drain();
}

TEST(Server, RawPredictThroughDispatchMatchesDirectPredict)
{
    const auto model = trainModel(81);
    PredictionService service(model);
    predictor::DataCollector collector;
    serve::Server server(service, collector);

    const auto query = randomQueries(82, 1)[0];
    const auto appJson = [](const predictor::AppFeatures& app) {
        std::string mix;
        for (double m : app.mixPercent) {
            if (!mix.empty())
                mix += ',';
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", m);
            mix += buf;
        }
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      R"({"cpu_time":%.17g,"gpu_time":%.17g,"mix":[)",
                      static_cast<double>(app.cpuTime),
                      static_cast<double>(app.gpuTime));
        return std::string(buf) + mix + "]}";
    };
    char fairness[64];
    std::snprintf(fairness, sizeof(fairness), "%.17g", query.fairness);
    const std::string line = R"({"op":"predict","id":"r1","a":)" +
                             appJson(query.a) + R"(,"b":)" +
                             appJson(query.b) +
                             R"(,"fairness":)" + fairness + "}";

    std::mutex mutex;
    std::vector<std::string> out;
    server.handleLine(line, [&](std::string response) {
        std::lock_guard<std::mutex> lock(mutex);
        out.push_back(std::move(response));
    });
    service.drain();

    ASSERT_EQ(out.size(), 1u);
    const std::string& response = out[0];
    EXPECT_NE(response.find(R"("id":"r1","ok":true)"),
              std::string::npos);
    const auto at = response.find("\"predicted_seconds\":");
    ASSERT_NE(at, std::string::npos);
    const double got = std::strtod(
        response.c_str() + at +
            std::strlen("\"predicted_seconds\":"),
        nullptr);
    EXPECT_EQ(got,
              model->predict(query.a, query.b, query.fairness));
}

// ---------------------------------------------------------------------------
// Socket transport: real concurrent clients

/** Blocking JSONL client over a Unix-domain socket. */
struct SocketClient
{
    int fd = -1;

    explicit SocketClient(const std::string& path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~SocketClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool send(std::string line)
    {
        line += '\n';
        std::size_t sent = 0;
        while (sent < line.size()) {
            const auto n = ::send(fd, line.data() + sent,
                                  line.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Read until @p lines full responses arrived (or the peer closed). */
    std::vector<std::string> readLines(std::size_t lines)
    {
        std::vector<std::string> out;
        std::string buffer;
        char chunk[4096];
        while (out.size() < lines) {
            const auto n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t pos = 0;
            while ((pos = buffer.find('\n')) != std::string::npos) {
                out.push_back(buffer.substr(0, pos));
                buffer.erase(0, pos + 1);
            }
        }
        return out;
    }
};

TEST(ServeSocket, ConcurrentClientsThenGracefulShutdown)
{
    const auto model = trainModel(91);
    ServiceOptions options;
    options.batchRows = 4;
    PredictionService service(model, nullptr, options);
    predictor::DataCollector collector;
    serve::Server server(service, collector);

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("mapp_serve_test_" + std::to_string(::getpid()) + ".sock"))
            .string();
    serve::StopCause cause = serve::StopCause::Eof;
    std::thread serverThread(
        [&] { cause = server.serveSocket(path); });
    for (int i = 0;
         i < 500 && !std::filesystem::exists(path); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(std::filesystem::exists(path));

    const auto queries = randomQueries(92, 12);
    const std::string rawApp =
        R"({"cpu_time":0.5,"gpu_time":0.25,)"
        R"("mix":[10,10,10,10,10,10,10,10,20]})";
    constexpr int kClients = 4;
    constexpr int kRequests = 8;
    std::atomic<int> okResponses{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            SocketClient client(path);
            ASSERT_GE(client.fd, 0);
            for (int r = 0; r < kRequests; ++r) {
                const std::string id =
                    "c" + std::to_string(c) + "-" + std::to_string(r);
                const std::string line =
                    r % 2 == 0
                        ? R"({"op":"ping","id":")" + id + R"("})"
                        : R"({"op":"predict","id":")" + id +
                              R"(","a":)" + rawApp + R"(,"b":)" +
                              rawApp + R"(,"fairness":0.5})";
                ASSERT_TRUE(client.send(line));
            }
            const auto responses = client.readLines(kRequests);
            ASSERT_EQ(responses.size(),
                      static_cast<std::size_t>(kRequests));
            // Every id answered exactly once, every answer ok.
            for (int r = 0; r < kRequests; ++r) {
                const std::string id =
                    "c" + std::to_string(c) + "-" + std::to_string(r);
                int seen = 0;
                for (const auto& response : responses)
                    if (response.find("\"id\":\"" + id + "\"") !=
                        std::string::npos) {
                        ++seen;
                        EXPECT_NE(response.find("\"ok\":true"),
                                  std::string::npos)
                            << response;
                    }
                EXPECT_EQ(seen, 1) << id;
            }
            okResponses.fetch_add(kRequests);
        });
    for (auto& t : clients)
        t.join();
    EXPECT_EQ(okResponses.load(), kClients * kRequests);

    {
        SocketClient last(path);
        ASSERT_GE(last.fd, 0);
        ASSERT_TRUE(last.send(R"({"op":"shutdown","id":"bye"})"));
        const auto farewell = last.readLines(1);
        ASSERT_EQ(farewell.size(), 1u);
        EXPECT_NE(farewell[0].find("\"ok\":true"), std::string::npos);
    }
    serverThread.join();
    EXPECT_EQ(cause, serve::StopCause::Shutdown);
    EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
