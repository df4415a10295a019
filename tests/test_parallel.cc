/**
 * @file
 * Tests for the parallel execution layer: ThreadPool lifecycle,
 * parallelFor correctness and exception propagation, and —
 * the layer's hard requirement — bit-identical serial-vs-parallel
 * results for campaign collection, LOOCV fold errors and random-forest
 * predictions.
 */

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "obs/timer.h"
#include "predictor/data_collection.h"

using namespace mapp;

namespace {

/** Force a lane budget for the duration of a scope. */
struct ThreadScope
{
    explicit ThreadScope(int threads)
    {
        parallel::setMaxThreads(threads);
    }
    ~ThreadScope() { parallel::setMaxThreads(0); }
};

}  // namespace

TEST(ThreadPool, RunsSubmittedTasksAndShutsDownCleanly)
{
    std::atomic<int> ran{0};
    {
        parallel::ThreadPool pool(3);
        EXPECT_EQ(pool.workerCount(), 3);
        for (int i = 0; i < 50; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        // Destructor drains the queue and joins: all 50 must have run.
    }
    EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, ZeroWorkersRunsInline)
{
    parallel::ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0);
    int ran = 0;
    pool.submit([&ran] { ++ran; });
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(pool.tasksRun(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const ThreadScope scope(4);
    std::vector<int> hits(1000, 0);
    parallel::parallelFor(hits.size(),
                          [&](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyAndSingleIterationWork)
{
    const ThreadScope scope(4);
    int calls = 0;
    parallel::parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallel::parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesBodyExceptions)
{
    const ThreadScope scope(4);
    EXPECT_THROW(
        parallel::parallelFor(64,
                              [&](std::size_t i) {
                                  if (i == 7)
                                      throw std::runtime_error("boom");
                              }),
        std::runtime_error);
}

TEST(ParallelFor, SerialFallbackPropagatesExceptionsToo)
{
    const ThreadScope scope(1);
    EXPECT_THROW(parallel::parallelFor(
                     8,
                     [&](std::size_t i) {
                         if (i == 3)
                             throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
}

TEST(ParallelConfig, MaxThreadsOverrideWins)
{
    parallel::setMaxThreads(2);
    EXPECT_EQ(parallel::maxThreads(), 2);
    parallel::setMaxThreads(0);
    EXPECT_GE(parallel::maxThreads(), 1);
}

TEST(PhaseProfiler, ConcurrentPhasesKeepPerThreadStacks)
{
    obs::PhaseProfiler profiler;
    const ThreadScope scope(4);
    parallel::parallelFor(32, [&](std::size_t) {
        obs::ScopedPhase outer(profiler, "outer");
        obs::ScopedPhase inner(profiler, "inner");
    });
    const auto report = profiler.report();
    // Every thread roots "outer" at the top level with "inner" below
    // it; 32 entries total across all threads.
    std::uint64_t outerCount = 0;
    std::uint64_t innerCount = 0;
    for (const auto& top : report.children) {
        EXPECT_EQ(top.name, "outer");
        outerCount += top.count;
        for (const auto& child : top.children) {
            EXPECT_EQ(child.name, "inner");
            innerCount += child.count;
        }
    }
    EXPECT_EQ(outerCount, 32u);
    EXPECT_EQ(innerCount, 32u);
}

namespace {

/** A small campaign spanning homogeneous and heterogeneous bags. */
std::vector<predictor::BagSpec>
miniCampaign()
{
    using vision::BenchmarkId;
    const predictor::BagMember fast{BenchmarkId::Fast, 20};
    const predictor::BagMember orb{BenchmarkId::Orb, 20};
    const predictor::BagMember hog{BenchmarkId::Hog, 40};
    return {
        {fast, fast}, {orb, orb}, {hog, hog},
        {fast, orb},  {fast, hog}, {orb, hog},
    };
}

ml::Dataset
collectMini(int threads)
{
    const ThreadScope scope(threads);
    predictor::DataCollector collector;
    return predictor::toDataset(collector.collectAll(miniCampaign()));
}

}  // namespace

TEST(SerialVsParallel, CampaignDatasetsAreBitIdentical)
{
    const ml::Dataset serial = collectMini(1);
    const ml::Dataset threaded = collectMini(4);

    ASSERT_EQ(serial.size(), threaded.size());
    ASSERT_EQ(serial.featureNames(), threaded.featureNames());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial.group(i), threaded.group(i)) << "row " << i;
        EXPECT_EQ(serial.target(i), threaded.target(i)) << "row " << i;
        ASSERT_EQ(serial.row(i).size(), threaded.row(i).size());
        for (std::size_t j = 0; j < serial.row(i).size(); ++j) {
            EXPECT_EQ(serial.row(i)[j], threaded.row(i)[j])
                << "row " << i << " col " << j;
        }
    }
}

TEST(SerialVsParallel, LoocvFoldErrorsAreBitIdentical)
{
    const ml::Dataset data = collectMini(1);
    const ml::FitPredictFn fitPredict =
        [](const ml::Dataset& train, const ml::Dataset& test) {
            ml::DecisionTreeRegressor tree;
            tree.fit(train);
            return tree.predict(test);
        };

    parallel::setMaxThreads(1);
    const auto serial = ml::leaveOneGroupOut(data, fitPredict);
    parallel::setMaxThreads(4);
    const auto threaded = ml::leaveOneGroupOut(data, fitPredict);
    parallel::setMaxThreads(0);

    ASSERT_EQ(serial.folds.size(), threaded.folds.size());
    for (std::size_t f = 0; f < serial.folds.size(); ++f) {
        EXPECT_EQ(serial.folds[f].label, threaded.folds[f].label);
        EXPECT_EQ(serial.folds[f].testPoints,
                  threaded.folds[f].testPoints);
        EXPECT_EQ(serial.folds[f].meanRelativeError,
                  threaded.folds[f].meanRelativeError)
            << "fold " << serial.folds[f].label;
        EXPECT_EQ(serial.folds[f].mse, threaded.folds[f].mse);
    }
    EXPECT_EQ(serial.meanRelativeError(), threaded.meanRelativeError());
}

TEST(SerialVsParallel, ForestPredictionsAreBitIdentical)
{
    // Synthetic regression data: enough rows that trees bootstrap
    // distinct samples.
    Rng rng(17);
    ml::Dataset data({"x0", "x1"});
    for (int i = 0; i < 200; ++i) {
        const double x0 = rng.uniform(-1.0, 1.0);
        const double x1 = rng.uniform(-1.0, 1.0);
        data.addRow({x0, x1}, 3.0 * x0 - 2.0 * x1 + 0.1 * x0 * x1, "g");
    }

    ml::RandomForestParams params;
    params.numTrees = 16;
    params.seed = 99;

    parallel::setMaxThreads(1);
    ml::RandomForestRegressor serial(params);
    serial.fit(data);
    parallel::setMaxThreads(4);
    ml::RandomForestRegressor threaded(params);
    threaded.fit(data);
    parallel::setMaxThreads(0);

    ASSERT_EQ(serial.treeCount(), threaded.treeCount());
    const auto a = serial.predict(data);
    const auto b = threaded.predict(data);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "row " << i;
}

TEST(PresortedSplit, MatchesNaiveSearchOnRandomData)
{
    // The presorted fit must grow exactly the tree the naive per-node
    // sort grew: validate invariants on data with heavy ties.
    Rng rng(5);
    ml::Dataset data({"a", "b", "c"});
    for (int i = 0; i < 150; ++i) {
        const double a = std::floor(rng.uniform(0.0, 4.0));
        const double b = rng.uniform(0.0, 1.0);
        const double c = std::floor(rng.uniform(0.0, 2.0));
        data.addRow({a, b, c}, a * 2.0 + (c > 0 ? 5.0 : 0.0) + b, "g");
    }
    ml::DecisionTreeRegressor tree;
    tree.fit(data);
    EXPECT_TRUE(tree.trained());
    EXPECT_GT(tree.nodeCount(), 1u);

    // Predictions at the training points recover the piecewise means:
    // in-sample MSE must be tiny for this nearly-separable target.
    const auto pred = tree.predict(data);
    double sse = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i)
        sse += (pred[i] - data.target(i)) * (pred[i] - data.target(i));
    EXPECT_LT(sse / static_cast<double>(data.size()), 0.2);
}
