#include "predictor/predictor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>

#include "cache/artifact_cache.h"
#include "common/log.h"
#include "common/parallel.h"
#include "ml/dataset_binary.h"
#include "ml/metrics.h"
#include "ml/model_binary.h"
#include "obs/audit.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "predictor/quality.h"

namespace mapp::predictor {

namespace {

/**
 * Artifact key for a fitted tree: the exact training data (hashed row
 * by row), the tree hyper-parameters, and the feature scheme. Fitting
 * is deterministic in those inputs, so a hit reconstructs the same
 * tree bit for bit.
 */
std::uint64_t
modelKey(const ml::Dataset& raw, const ml::DecisionTreeParams& tree,
         const std::vector<std::string>& scheme_names)
{
    cache::Hasher h = cache::keyHasher("model");
    ml::hashDataset(h, raw);
    h.add(tree.maxDepth);
    h.add(tree.minSamplesSplit);
    h.add(tree.minSamplesLeaf);
    h.add(tree.minImpurityDecrease);
    h.add(static_cast<std::uint64_t>(scheme_names.size()));
    for (const auto& name : scheme_names)
        h.add(name);
    return h.digest();
}

}  // namespace

MultiAppPredictor::MultiAppPredictor(PredictorParams params)
    : params_(std::move(params))
{
    // Resolve the scheme against the bag layout once, plus the
    // time-feature flags of the normalization pass: a what-if query
    // is assembled with no string handling.
    schemeNames_ = params_.scheme.featureNames();
    projection_ = schemeColumns(bagFeatureNames());
    timeMask_ = RangeNormalizer::timeFeatureMask(schemeNames_);
}

std::vector<std::size_t>
MultiAppPredictor::schemeColumns(
    const std::vector<std::string>& layout) const
{
    std::vector<std::size_t> columns;
    columns.reserve(schemeNames_.size());
    for (const auto& name : schemeNames_) {
        const auto it = std::find(layout.begin(), layout.end(), name);
        if (it == layout.end())
            fatal("MultiAppPredictor: the input has no column '" + name +
                  "' of the feature scheme");
        columns.push_back(static_cast<std::size_t>(it - layout.begin()));
    }
    return columns;
}

template <typename RawRow>
std::vector<double>
MultiAppPredictor::assembleRows(std::size_t nRows,
                                std::span<const std::size_t> columns,
                                RawRow&& rawRow) const
{
    const std::size_t nF = columns.size();
    std::vector<double> rows(nRows * nF);
    for (std::size_t r = 0; r < nRows; ++r) {
        const std::span<const double> raw = rawRow(r);
        for (std::size_t k = 0; k < nF; ++k)
            rows[r * nF + k] = raw[columns[k]];
    }
    normalizer_.applyBatchInPlace(rows, timeMask_);
    return rows;
}

void
MultiAppPredictor::train(const std::vector<DataPoint>& points)
{
    train(toDataset(points));
}

void
MultiAppPredictor::train(const ml::Dataset& raw)
{
    if (raw.empty())
        fatal("MultiAppPredictor::train: empty dataset");
    const obs::ScopedPhase phase("tree-training");
    const ml::Dataset projected = raw.selectFeatures(schemeNames_);
    normalizer_ = RangeNormalizer();
    normalizer_.fit(projected);
    const ml::Dataset prepared = normalizer_.apply(projected);

    // Model artifacts: a warm process reconstructs the fitted tree
    // from its binary record instead of refitting; the normalizer and
    // audit tables are cheap deterministic functions of `prepared`, so
    // they are rebuilt either way and match the fitted-from-scratch
    // state exactly.
    tree_ = cache::defaultArtifactCache().loadOrCompute(
        "model", modelKey(raw, params_.tree, schemeNames_),
        ml::treeFromBinary,
        [&] {
            ml::DecisionTreeRegressor tree(params_.tree);
            tree.fit(prepared);
            return tree;
        },
        ml::treeToBinary);
    buildAuditTables(prepared);
}

void
MultiAppPredictor::buildAuditTables(const ml::Dataset& prepared)
{
    const std::size_t n = tree_->nodeCount();
    leafSummary_.assign(n, {});
    leafRmseSeconds_.assign(n, 0.0);
    const auto& names = tree_->featureNames();

    // DFS carrying the rendered path prefix down to each leaf.
    struct Frame
    {
        std::size_t node;
        std::string path;
    };
    std::vector<Frame> stack{{0, std::string()}};
    while (!stack.empty()) {
        Frame frame = std::move(stack.back());
        stack.pop_back();
        const auto v = tree_->nodeView(frame.node);
        if (v.leaf) {
            leafSummary_[frame.node] =
                frame.path.empty() ? "(root)" : std::move(frame.path);
            if (v.samples > 0) {
                leafRmseSeconds_[frame.node] =
                    std::sqrt(v.sse / static_cast<double>(v.samples)) *
                    normalizer_.scale();
            }
            continue;
        }
        char threshold[32];
        std::snprintf(threshold, sizeof(threshold), "%.4g",
                      v.threshold);
        const std::string& name =
            names[static_cast<std::size_t>(v.feature)];
        const char* joint = frame.path.empty() ? "" : " -> ";
        stack.push_back({static_cast<std::size_t>(v.right),
                         frame.path + joint + name + ">" + threshold});
        stack.push_back({static_cast<std::size_t>(v.left),
                         frame.path + joint + name + "<=" + threshold});
    }

    // Drift reference: per-feature range of the normalized training
    // matrix — predict-time rows outside it are extrapolations.
    const std::size_t nF = prepared.numFeatures();
    trainMin_.assign(nF, std::numeric_limits<double>::infinity());
    trainMax_.assign(nF, -std::numeric_limits<double>::infinity());
    for (const auto& row : prepared.rows()) {
        for (std::size_t k = 0; k < nF; ++k) {
            trainMin_[k] = std::min(trainMin_[k], row[k]);
            trainMax_[k] = std::max(trainMax_[k], row[k]);
        }
    }
}

std::optional<std::uint64_t>
MultiAppPredictor::auditRows(const char* model,
                             std::span<const double> flat,
                             std::size_t nFeatures,
                             std::span<const double> outSeconds) const
{
    obs::PredictionLog& log = obs::predictionLog();
    if (!log.enabled() || outSeconds.empty())
        return std::nullopt;
    const auto n = static_cast<std::uint64_t>(outSeconds.size());
    const std::uint64_t first = log.reserve(n);
    const std::uint64_t period = log.samplePeriod();
    // One timestamp per batch: rows of a batch land within
    // microseconds of each other, and it saves a clock read per
    // sampled record.
    const double nowUs = obs::tracer().wallTimeUs();
    const auto fill = [&](std::uint64_t i,
                          obs::PredictionRecord& record) {
        const auto row = flat.subspan(
            static_cast<std::size_t>(i) * nFeatures, nFeatures);
        const auto leaf = static_cast<std::size_t>(tree_->predictLeaf(row));
        // In-place fill: the ring slot's buffers are reused, so a
        // steady-state audit record allocates nothing.
        record.seq = first + i;
        record.tsUs = nowUs;
        record.model.assign(model);
        record.features.assign(row.begin(), row.end());
        record.predictedSeconds = outSeconds[static_cast<std::size_t>(i)];
        record.uncertaintySeconds = leafRmseSeconds_[leaf];
        record.pathSummary.assign(leafSummary_[leaf]);
    };
    // The sampled sequence ids are first + i with (first + i) % period
    // == 0 — computed arithmetically so unsampled rows cost nothing.
    // Sampled rows are flushed in chunks so the log mutex is taken
    // once per chunk, not once per record.
    constexpr std::size_t kChunk = 64;
    std::uint64_t ids[kChunk];
    std::size_t m = 0;
    for (std::uint64_t i = (period - first % period) % period; i < n;
         i += period) {
        ids[m++] = i;
        if (m == kChunk) {
            log.recordChunkInPlace({ids, m}, fill);
            m = 0;
        }
    }
    log.recordChunkInPlace({ids, m}, fill);
    return first;
}

std::vector<double>
MultiAppPredictor::inputRows(const ml::Dataset& raw) const
{
    if (!trained())
        fatal("MultiAppPredictor::inputRows: model not trained");
    return assembleRows(raw.size(), schemeColumns(raw.featureNames()),
                        [&](std::size_t r) {
                            return std::span<const double>(raw.row(r));
                        });
}

std::vector<double>
MultiAppPredictor::bagRow(const AppFeatures& a, const AppFeatures& b,
                          double fairness) const
{
    std::array<double, kBagFeatureCount> bag{};
    writeBagVector(a, b, fairness, bag);
    return assembleRows(1, projection_, [&](std::size_t) {
        return std::span<const double>(bag);
    });
}

std::optional<std::uint64_t>
MultiAppPredictor::predictRows(const char* model,
                               std::span<const double> rows,
                               std::span<double> outSeconds) const
{
    const std::size_t nF = schemeNames_.size();
    tree_->predictBatch(rows, nF, outSeconds);
    normalizer_.denormalizeInPlace(outSeconds);
    return auditRows(model, rows, nF, outSeconds);
}

double
MultiAppPredictor::predict(const AppFeatures& a, const AppFeatures& b,
                           double fairness) const
{
    if (!trained())
        fatal("MultiAppPredictor::predict: model not trained");
    const auto row = bagRow(a, b, fairness);
    const double out =
        normalizer_.denormalizeTarget(tree_->predict(row));
    auditRows("single", row, row.size(), {&out, 1});
    return out;
}

std::vector<double>
MultiAppPredictor::predictBatch(const std::vector<BagQuery>& queries) const
{
    if (!trained())
        fatal("MultiAppPredictor::predictBatch: model not trained");
    std::array<double, kBagFeatureCount> bag{};
    const auto rows =
        assembleRows(queries.size(), projection_, [&](std::size_t q) {
            writeBagVector(queries[q].a, queries[q].b,
                           queries[q].fairness, bag);
            return std::span<const double>(bag);
        });
    std::vector<double> out(queries.size());
    predictRows("batch", rows, out);
    return out;
}

std::vector<double>
MultiAppPredictor::predictDataset(const ml::Dataset& raw_test) const
{
    const auto rows = inputRows(raw_test);
    std::vector<double> out(raw_test.size());
    predictRows("dataset", rows, out);
    return out;
}

std::vector<double>
MultiAppPredictor::evaluate(const ml::Dataset& raw_test) const
{
    const auto rows = inputRows(raw_test);
    std::vector<double> out(raw_test.size());
    const auto firstSeq = predictRows("dataset", rows, out);

    ModelQualityMonitor& monitor = ModelQualityMonitor::global();
    monitor.observePairs(raw_test.targets(), out);
    // Drift check on the rows the model saw, against the training
    // matrix's feature ranges.
    const std::size_t nF = schemeNames_.size();
    for (std::size_t r = 0; r < out.size(); ++r) {
        monitor.observeFeatureRow(
            std::span<const double>(rows).subspan(r * nF, nF), trainMin_,
            trainMax_, schemeNames_);
    }
    if (firstSeq)
        obs::predictionLog().annotate(*firstSeq, raw_test.targets());
    return out;
}

double
MultiAppPredictor::predict(const DataPoint& point) const
{
    return predict(point.a, point.b, point.fairness);
}

Explanation
MultiAppPredictor::explain(const DataPoint& point) const
{
    if (!trained())
        fatal("MultiAppPredictor::explain: model not trained");

    const auto row = bagRow(point.a, point.b, point.fairness);

    Explanation e;
    const auto leaf = static_cast<std::size_t>(tree_->predictLeaf(row));
    e.predictedSeconds = normalizer_.denormalizeTarget(
        tree_->nodeView(leaf).value);
    e.path = tree_->decisionPath(row);
    e.featureNames = schemeNames_;
    e.uncertaintySeconds = leafRmseSeconds_[leaf];
    e.pathSummary = leafSummary_[leaf];
    return e;
}

const ml::DecisionTreeRegressor&
MultiAppPredictor::compiledTree() const
{
    return tree();
}

const ml::DecisionTreeRegressor&
MultiAppPredictor::tree() const
{
    if (!trained())
        fatal("MultiAppPredictor::tree: model not trained");
    return *tree_;
}

std::vector<std::pair<std::string, double>>
MultiAppPredictor::featureImportances() const
{
    const auto imp = tree().featureImportances();
    const auto& names = tree_->featureNames();
    std::vector<std::pair<std::string, double>> out;
    out.reserve(imp.size());
    for (std::size_t i = 0; i < imp.size(); ++i)
        out.emplace_back(names[i], imp[i]);
    return out;
}

ml::CrossValidationResult
MultiAppPredictor::looBenchmarkCv(const ml::Dataset& raw,
                                  const PredictorParams& params,
                                  const std::vector<std::string>& benchmarks)
{
    const obs::ScopedPhase phase("loocv");
    ml::CrossValidationResult result;
    result.folds.resize(benchmarks.size());
    // Every fold trains its own model on its own split, so folds run
    // concurrently; fold f only writes slot f, keeping the paper's
    // benchmark order.
    parallel::parallelFor(benchmarks.size(), [&](std::size_t f) {
        const auto& bench = benchmarks[f];
        auto [train, test] = splitOutBenchmark(raw, bench);
        ml::FoldResult fold;
        fold.label = bench;
        fold.testPoints = test.size();
        if (!train.empty() && !test.empty()) {
            MultiAppPredictor model(params);
            model.train(train);

            // Evaluate in raw target units (the normalizer
            // round-trips); the fold's held-out truth doubles as
            // online quality telemetry.
            const auto predictions = model.evaluate(test);
            fold.meanRelativeError = ml::meanRelativeErrorPercent(
                test.targets(), predictions);
            fold.mse =
                ml::meanSquaredError(test.targets(), predictions);
        }
        result.folds[f] = std::move(fold);
    });
    return result;
}

double
MultiAppPredictor::holdoutRelativeError(const ml::Dataset& raw,
                                        const PredictorParams& params,
                                        double test_fraction, Rng& rng)
{
    auto [train, test] = raw.trainTestSplit(test_fraction, rng);
    if (train.empty() || test.empty())
        fatal("holdoutRelativeError: degenerate split");

    MultiAppPredictor model(params);
    model.train(train);
    const auto predictions = model.evaluate(test);
    return ml::meanRelativeErrorPercent(test.targets(), predictions);
}

}  // namespace mapp::predictor
