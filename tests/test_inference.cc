/** @file Compiled-inference equivalence suite: the SoA engines must be
 * bit-identical to the node-walk oracle — fuzzed over random
 * trees/forests and probe vectors (including degenerate single-leaf
 * trees, probes placed exactly on split thresholds and NaN features),
 * across every batch size from 1 to 70 rows, at several thread counts,
 * and on the real campaign dataset. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/log.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ml/compiled_tree.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"
#include "predictor/scheduler.h"

namespace {

using namespace mapp;

/** Random regression dataset; constant targets when @p flat. */
ml::Dataset
randomDataset(Rng& rng, std::size_t rows, std::size_t features,
              bool flat = false)
{
    std::vector<std::string> names;
    for (std::size_t f = 0; f < features; ++f)
        names.push_back("f" + std::to_string(f));
    ml::Dataset d(names);
    for (std::size_t r = 0; r < rows; ++r) {
        std::vector<double> row;
        for (std::size_t f = 0; f < features; ++f)
            row.push_back(rng.uniform(-10.0, 10.0));
        const double target = flat ? 3.25 : rng.uniform(-5.0, 5.0);
        d.addRow(std::move(row), target, "g");
    }
    return d;
}

/**
 * Probe vectors for a fitted tree: random points plus, for every
 * internal node, a point sitting exactly ON the node's threshold in
 * the node's feature (the <= boundary both engines must route the
 * same way).
 */
std::vector<std::vector<double>>
probesFor(const ml::DecisionTreeRegressor& tree, Rng& rng,
          std::size_t features, int random_probes)
{
    std::vector<std::vector<double>> probes;
    for (int p = 0; p < random_probes; ++p) {
        std::vector<double> x;
        for (std::size_t f = 0; f < features; ++f)
            x.push_back(rng.uniform(-12.0, 12.0));
        probes.push_back(std::move(x));
    }
    for (std::size_t i = 0; i < tree.nodeCount(); ++i) {
        const auto v = tree.nodeView(i);
        if (v.leaf)
            continue;
        std::vector<double> x;
        for (std::size_t f = 0; f < features; ++f)
            x.push_back(rng.uniform(-12.0, 12.0));
        x[static_cast<std::size_t>(v.feature)] = v.threshold;
        probes.push_back(std::move(x));
    }
    return probes;
}

/** Put a NaN in one random feature of every 13th probe (NaN fails
 * `<=`, so both engines must route it right). */
void
sprinkleNaNs(std::vector<std::vector<double>>& probes, Rng& rng)
{
    for (std::size_t p = 0; p < probes.size(); p += 13) {
        const auto f = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<int>(probes[p].size()) - 1));
        probes[p][f] = std::numeric_limits<double>::quiet_NaN();
    }
}

std::vector<double>
flatten(const std::vector<std::vector<double>>& rows)
{
    std::vector<double> flat;
    for (const auto& row : rows)
        flat.insert(flat.end(), row.begin(), row.end());
    return flat;
}

TEST(CompiledTree, FuzzEquivalenceWithOracle)
{
    Rng rng(2026);
    for (int trial = 0; trial < 40; ++trial) {
        const auto rows =
            static_cast<std::size_t>(rng.uniformInt(2, 80));
        const auto features =
            static_cast<std::size_t>(rng.uniformInt(1, 8));
        const bool flat = trial % 7 == 0;  // single-leaf trees too
        const auto d = randomDataset(rng, rows, features, flat);

        ml::DecisionTreeParams params;
        params.maxDepth = static_cast<int>(rng.uniformInt(1, 9));
        params.minSamplesLeaf = static_cast<int>(rng.uniformInt(1, 3));
        ml::DecisionTreeRegressor tree(params);
        tree.fit(d);
        const ml::CompiledTree compiled(tree);
        ASSERT_TRUE(compiled.compiled());
        EXPECT_EQ(compiled.nodeCount(), tree.nodeCount());

        auto probes = probesFor(tree, rng, features, 16);
        sprinkleNaNs(probes, rng);
        std::vector<double> batch(probes.size());
        compiled.predictBatch(flatten(probes), features, batch);
        for (std::size_t p = 0; p < probes.size(); ++p) {
            const double oracle = tree.predict(probes[p]);
            EXPECT_EQ(oracle, compiled.predict(probes[p]));
            EXPECT_EQ(oracle, batch[p]);
        }
    }
}

TEST(CompiledTree, SingleLeafTree)
{
    Rng rng(7);
    const auto d = randomDataset(rng, 5, 3, /*flat=*/true);
    ml::DecisionTreeRegressor tree;
    tree.fit(d);
    ASSERT_EQ(tree.nodeCount(), 1u);

    const ml::CompiledTree compiled(tree);
    EXPECT_EQ(compiled.steps(), 0);
    const std::vector<double> x{0.0, 1.0, 2.0};
    EXPECT_EQ(tree.predict(x), compiled.predict(x));
    std::vector<double> out(2);
    const std::vector<double> flat{0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
    compiled.predictBatch(flat, 3, out);
    EXPECT_EQ(out[0], tree.predict(x));
    EXPECT_EQ(out[1], out[0]);
}

TEST(CompiledTree, RejectsUntrainedAndBadShapes)
{
    EXPECT_THROW(ml::CompiledTree{ml::DecisionTreeRegressor{}},
                 FatalError);

    const ml::CompiledTree empty;
    EXPECT_FALSE(empty.compiled());
    EXPECT_THROW(empty.predict(std::vector<double>{1.0}), FatalError);

    Rng rng(11);
    const auto d = randomDataset(rng, 20, 2);
    ml::DecisionTreeRegressor tree;
    tree.fit(d);
    const ml::CompiledTree compiled(tree);
    std::vector<double> out(3);
    const std::vector<double> flat{1.0, 2.0, 3.0, 4.0};  // not 3 rows x 2
    EXPECT_THROW(compiled.predictBatch(flat, 2, out), FatalError);
}

TEST(CompiledForest, FuzzEquivalenceWithOracle)
{
    Rng rng(424242);
    for (int trial = 0; trial < 12; ++trial) {
        const auto rows =
            static_cast<std::size_t>(rng.uniformInt(6, 60));
        const auto features =
            static_cast<std::size_t>(rng.uniformInt(1, 6));
        const auto d = randomDataset(rng, rows, features);

        ml::RandomForestParams params;
        params.numTrees = static_cast<int>(rng.uniformInt(1, 12));
        params.tree.maxDepth = static_cast<int>(rng.uniformInt(1, 7));
        params.seed = 1000 + static_cast<std::uint64_t>(trial);
        ml::RandomForestRegressor forest(params);
        forest.fit(d);
        const ml::CompiledForest compiled(forest);
        EXPECT_EQ(compiled.treeCount(), forest.treeCount());

        std::vector<std::vector<double>> probes;
        for (int p = 0; p < 24; ++p) {
            std::vector<double> x;
            for (std::size_t f = 0; f < features; ++f)
                x.push_back(rng.uniform(-12.0, 12.0));
            probes.push_back(std::move(x));
        }
        sprinkleNaNs(probes, rng);
        std::vector<double> batch(probes.size());
        compiled.predictBatch(flatten(probes), features, batch);
        for (std::size_t p = 0; p < probes.size(); ++p) {
            const double oracle = forest.predict(probes[p]);
            EXPECT_EQ(oracle, compiled.predict(probes[p]));
            EXPECT_EQ(oracle, batch[p]);
        }
        // The dataset overloads agree with the oracle too.
        EXPECT_EQ(forest.predict(d), compiled.predict(d));
    }
}

TEST(CompiledForest, BatchMatchesSingleAcrossThreadCounts)
{
    Rng rng(55);
    // Enough rows to span several parallel chunks (chunk = 256 rows).
    const auto d = randomDataset(rng, 1200, 5);
    ml::RandomForestParams params;
    params.numTrees = 10;
    ml::RandomForestRegressor forest(params);
    forest.fit(d);
    const ml::CompiledForest compiled(forest);
    const ml::CompiledTree compiledTree(forest.trees().front());

    std::vector<double> single(d.size());
    std::vector<double> singleTree(d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
        single[i] = compiled.predict(d.row(i));
        singleTree[i] = compiledTree.predict(d.row(i));
    }

    const auto flat = d.toRowMajor();
    for (int threads : {1, 2, parallel::maxThreads()}) {
        parallel::setMaxThreads(threads);
        std::vector<double> batch(d.size());
        compiled.predictBatch(flat, d.numFeatures(), batch);
        EXPECT_EQ(batch, single) << "forest @ threads=" << threads;

        std::vector<double> treeBatch(d.size());
        compiledTree.predictBatch(flat, d.numFeatures(), treeBatch);
        EXPECT_EQ(treeBatch, singleTree)
            << "tree @ threads=" << threads;
    }
    parallel::setMaxThreads(0);  // restore the environment default
}

/**
 * Every batch size from 1 to 70 rows: sizes below 32 run the 16/8/4/2/1
 * block cascade, larger ones full 32-row blocks plus the backward
 * overlap of a partial final block. Each size is a fresh batch (a
 * prefix of one probe set, NaNs included) checked row by row.
 */
TEST(CompiledInference, EveryBatchSizeMatchesOracle)
{
    Rng rng(1357);
    const std::size_t features = 6;
    const auto d = randomDataset(rng, 120, features);
    ml::DecisionTreeParams tp;
    tp.maxDepth = 8;
    ml::DecisionTreeRegressor tree(tp);
    tree.fit(d);
    const ml::CompiledTree compiledTree(tree);
    ml::RandomForestParams fp;
    fp.numTrees = 7;
    fp.tree.maxDepth = 6;
    ml::RandomForestRegressor forest(fp);
    forest.fit(d);
    const ml::CompiledForest compiledForest(forest);

    // On-threshold probes first (probesFor appends them after the 70
    // random ones), then random ones up to 70 rows.
    auto probes = probesFor(tree, rng, features, 70);
    std::rotate(probes.begin(), probes.begin() + 70, probes.end());
    probes.resize(70);
    sprinkleNaNs(probes, rng);
    const auto flat = flatten(probes);
    for (std::size_t rows = 1; rows <= probes.size(); ++rows) {
        const std::span<const double> batch(flat.data(), rows * features);
        std::vector<double> treeOut(rows);
        std::vector<double> forestOut(rows);
        compiledTree.predictBatch(batch, features, treeOut);
        compiledForest.predictBatch(batch, features, forestOut);
        for (std::size_t r = 0; r < rows; ++r) {
            ASSERT_EQ(tree.predict(probes[r]), treeOut[r])
                << "tree, batch " << rows << ", row " << r;
            ASSERT_EQ(forest.predict(probes[r]), forestOut[r])
                << "forest, batch " << rows << ", row " << r;
        }
    }
}

/** The real campaign: compiled engines must reproduce the node walk
 * bit for bit on every measured data point. */
TEST(CompiledInference, CampaignDatasetPinned)
{
    predictor::DataCollector collector;
    const auto points = collector.collectAll(
        predictor::DataCollector::campaign91());
    const auto raw = predictor::toDataset(points);

    ml::DecisionTreeRegressor tree;
    tree.fit(raw);
    const ml::CompiledTree compiledTree(tree);
    EXPECT_EQ(tree.predict(raw), compiledTree.predict(raw));

    ml::RandomForestParams fp;
    fp.numTrees = 50;
    ml::RandomForestRegressor forest(fp);
    forest.fit(raw);
    const ml::CompiledForest compiledForest(forest);
    EXPECT_EQ(forest.predict(raw), compiledForest.predict(raw));

    // The predictor's batched entry points agree with its
    // per-point predictions (and with each other).
    predictor::MultiAppPredictor model;
    model.train(raw);
    const auto batched = model.predictDataset(raw);
    std::vector<predictor::BagQuery> queries;
    for (const auto& p : points)
        queries.push_back({p.a, p.b, p.fairness});
    const auto queryBatch = model.predictBatch(queries);
    ASSERT_EQ(batched.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double one = model.predict(points[i]);
        EXPECT_EQ(one, batched[i]);
        EXPECT_EQ(one, queryBatch[i]);
        EXPECT_EQ(one, model.explain(points[i]).predictedSeconds);
    }
}

/** Batched scheduler scoring must pick the same pairings as per-bag
 * prediction. */
TEST(CompiledInference, SchedulerBatchedScoringMatchesPredictBag)
{
    predictor::DataCollector collector;
    const auto points = collector.collectAll(
        predictor::DataCollector::campaign91());
    predictor::MultiAppPredictor model;
    model.train(points);
    const predictor::CoScheduler scheduler(model, collector);

    const std::vector<predictor::BagMember> jobs{
        {vision::BenchmarkId::Fast, 20}, {vision::BenchmarkId::Sift, 40},
        {vision::BenchmarkId::Hog, 20},  {vision::BenchmarkId::Surf, 20},
        {vision::BenchmarkId::Orb, 80},
    };
    for (const auto policy : {predictor::PairingPolicy::Fifo,
                              predictor::PairingPolicy::Greedy,
                              predictor::PairingPolicy::Exhaustive}) {
        const auto schedule = scheduler.schedule(jobs, policy);
        double total = 0.0;
        for (const auto& bag : schedule.bags) {
            EXPECT_EQ(bag.predictedSeconds,
                      scheduler.predictBag(bag.spec));
            total += bag.predictedSeconds;
        }
        if (schedule.leftover)
            total += collector.appFeatures(*schedule.leftover).gpuTime;
        EXPECT_EQ(schedule.predictedTotalSeconds, total);
    }
}

}  // namespace
