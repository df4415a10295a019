/**
 * @file
 * google-benchmark microbenchmarks of the ML library and the two
 * performance simulators — the throughput backbone of the whole
 * data-collection + training pipeline.
 */

#include <benchmark/benchmark.h>

#include <cmath>

#include "common/rng.h"
#include "cpusim/multicore_sim.h"
#include "gpusim/mps_sim.h"
#include "ml/decision_tree.h"
#include "ml/linear_regression.h"
#include "ml/svr.h"
#include "vision/registry.h"

namespace {

using namespace mapp;

ml::Dataset
syntheticDataset(std::size_t rows, std::size_t features)
{
    Rng rng(99);
    std::vector<std::string> names;
    for (std::size_t f = 0; f < features; ++f)
        names.push_back("f" + std::to_string(f));
    ml::Dataset d(names);
    for (std::size_t r = 0; r < rows; ++r) {
        std::vector<double> row;
        double target = 0.0;
        for (std::size_t f = 0; f < features; ++f) {
            const double v = rng.uniform(0.0, 1.0);
            row.push_back(v);
            target += std::sin(static_cast<double>(f + 1) * v);
        }
        d.addRow(std::move(row), target, "g");
    }
    return d;
}

void
BM_DecisionTreeFit(benchmark::State& state)
{
    const auto d =
        syntheticDataset(static_cast<std::size_t>(state.range(0)), 23);
    for (auto _ : state) {
        ml::DecisionTreeRegressor tree;
        tree.fit(d);
        benchmark::DoNotOptimize(tree);
    }
}
BENCHMARK(BM_DecisionTreeFit)->Arg(91)->Arg(500);

void
BM_DecisionTreePredict(benchmark::State& state)
{
    const auto d = syntheticDataset(500, 23);
    ml::DecisionTreeRegressor tree;
    tree.fit(d);
    for (auto _ : state)
        for (std::size_t i = 0; i < d.size(); ++i)
            benchmark::DoNotOptimize(tree.predict(d.row(i)));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(d.size()));
}
BENCHMARK(BM_DecisionTreePredict);

void
BM_DecisionTreePredictBatch(benchmark::State& state)
{
    const auto d = syntheticDataset(500, 23);
    ml::DecisionTreeRegressor tree;
    tree.fit(d);
    const auto flat = d.toRowMajor();
    std::vector<double> out(d.size());
    for (auto _ : state) {
        tree.predictBatch(flat, d.numFeatures(), out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(d.size()));
}
BENCHMARK(BM_DecisionTreePredictBatch);

void
BM_SvrFit(benchmark::State& state)
{
    const auto d =
        syntheticDataset(static_cast<std::size_t>(state.range(0)), 23);
    for (auto _ : state) {
        ml::SvrRegressor svr;
        svr.fit(d);
        benchmark::DoNotOptimize(svr);
    }
}
BENCHMARK(BM_SvrFit)->Arg(91);

void
BM_LinearRegressionFit(benchmark::State& state)
{
    const auto d = syntheticDataset(500, 23);
    for (auto _ : state) {
        ml::LinearRegression lr;
        lr.fit(d);
        benchmark::DoNotOptimize(lr);
    }
}
BENCHMARK(BM_LinearRegressionFit);

void
BM_ProfileWorkload(benchmark::State& state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(
            vision::profileWorkload(vision::BenchmarkId::Hog, 20));
}
BENCHMARK(BM_ProfileWorkload);

void
BM_CpuSimSharedRun(benchmark::State& state)
{
    const auto& trace = vision::cachedTrace(vision::BenchmarkId::Hog, 20);
    cpusim::MulticoreSim sim;
    const int threads = sim.bestThreadCount(trace);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sim.runShared({&trace, &trace}, {threads, threads}));
}
BENCHMARK(BM_CpuSimSharedRun);

void
BM_GpuSimSharedRun(benchmark::State& state)
{
    const auto& trace =
        vision::cachedTrace(vision::BenchmarkId::Surf, 20);
    gpusim::MpsSim sim;
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.runShared({&trace, &trace}));
}
BENCHMARK(BM_GpuSimSharedRun);

}  // namespace

BENCHMARK_MAIN();
