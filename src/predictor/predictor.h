/**
 * @file
 * The public API of the paper's contribution: MultiAppPredictor trains a
 * decision-tree regressor on measured bag data points (under any feature
 * scheme, with the Section V-C range normalization) and predicts the GPU
 * execution time of unseen bags. Explainability hooks expose the tree,
 * feature importances and per-prediction decision paths.
 */

#ifndef MAPP_PREDICTOR_PREDICTOR_H
#define MAPP_PREDICTOR_PREDICTOR_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "predictor/data_collection.h"
#include "predictor/features.h"
#include "predictor/schemes.h"

namespace mapp::predictor {

/** Predictor hyper-parameters. */
struct PredictorParams
{
    ml::DecisionTreeParams tree;
    FeatureScheme scheme;  ///< defaults to the full Table-IV vector

    PredictorParams() { scheme = fullScheme(); }
};

/** One what-if query for batched prediction: a candidate bag's two
 *  apps (canonical order) and its CPU-measured fairness. */
struct BagQuery
{
    AppFeatures a;
    AppFeatures b;
    double fairness = 0.0;
};

/** A prediction plus its explanation. */
struct Explanation
{
    double predictedSeconds = 0.0;
    /** Spread estimate: the landed leaf's training residual RMSE,
     *  denormalized to seconds. */
    double uncertaintySeconds = 0.0;
    std::vector<ml::DecisionStep> path;     ///< nodes on the decision path
    std::vector<std::string> featureNames;  ///< names for path features
    std::string pathSummary;  ///< rendered path, "f<=v -> g>w -> ..."
};

/** The multi-application GPU performance predictor. */
class MultiAppPredictor
{
  public:
    explicit MultiAppPredictor(PredictorParams params = PredictorParams());

    /** Train on measured data points. @throws FatalError if empty. */
    void train(const std::vector<DataPoint>& points);

    /** Train on a pre-built raw (unnormalized) dataset. */
    void train(const ml::Dataset& raw);

    /** Predict the GPU bag time (seconds) for a measured bag's inputs. */
    double predict(const DataPoint& point) const;

    /** Predict from per-app features + fairness directly. */
    double predict(const AppFeatures& a, const AppFeatures& b,
                   double fairness) const;

    /**
     * Predict a whole batch of what-if queries in one pass: the rows
     * are assembled into one contiguous row-major buffer (no per-row
     * allocation), then the tree's predictBatch(). Element i equals
     * predict(queries[i].a, queries[i].b, queries[i].fairness) bit
     * for bit.
     */
    std::vector<double> predictBatch(
        const std::vector<BagQuery>& queries) const;

    /**
     * The model's input rows for a raw (unnormalized) dataset: the
     * scheme's columns, looked up by name (any column order, extra
     * columns ignored), range-normalized; row-major, scheme feature
     * order. Every predict, explain and evaluate path builds its rows
     * the same way. @throws FatalError if untrained or a scheme column
     * is missing (the message names it).
     */
    std::vector<double> inputRows(const ml::Dataset& raw) const;

    /**
     * Predict every row of a raw dataset: inputRows(), the tree's
     * predictBatch(), denormalized. Stateless; evaluate() is the same
     * plus the ground-truth telemetry.
     */
    std::vector<double> predictDataset(const ml::Dataset& raw_test) const;

    /**
     * Predict a raw dataset whose targets are the measured truth and
     * report it: the predictions (equal to predictDataset()'s) feed
     * the global ModelQualityMonitor's error histograms, every input
     * row is drift-checked against the training ranges, and when the
     * prediction log is enabled the batch's audit records are
     * annotated with their actual times. Used by the LOOCV folds, the
     * holdout split and `mapp_cli predict`.
     */
    std::vector<double> evaluate(const ml::Dataset& raw_test) const;

    /** Predict with the decision path attached. */
    Explanation explain(const DataPoint& point) const;

    /** Per-feature min of the normalized training matrix (drift
     *  reference; scheme feature order). */
    const std::vector<double>& trainFeatureMin() const
    {
        return trainMin_;
    }

    /** Per-feature max of the normalized training matrix. */
    const std::vector<double>& trainFeatureMax() const
    {
        return trainMax_;
    }

    /**
     * The trained tree, same as tree(). Kept only because the
     * end-to-end benchmark (perfbench/mapp_perfbench.cc) times
     * compiledTree().predictBatch(); switch that call to tree() and
     * delete this alias together. @throws if untrained.
     */
    const ml::DecisionTreeRegressor& compiledTree() const;

    /** The trained tree (for inspection). @throws if untrained. */
    const ml::DecisionTreeRegressor& tree() const;

    /** Importances keyed by the scheme's feature names. */
    std::vector<std::pair<std::string, double>> featureImportances() const;

    bool trained() const { return tree_.has_value() && tree_->trained(); }

    const PredictorParams& params() const { return params_; }

    /**
     * The paper's LOOCV (Figure 4): per left-out benchmark, train on
     * every bag not involving it and evaluate on the bags that do.
     * Normalization is re-fit on each fold's training split.
     */
    static ml::CrossValidationResult looBenchmarkCv(
        const ml::Dataset& raw, const PredictorParams& params,
        const std::vector<std::string>& benchmarks);

    /** An 80/20 shuffled split evaluation (Section V-D.2). */
    static double holdoutRelativeError(const ml::Dataset& raw,
                                       const PredictorParams& params,
                                       double test_fraction, Rng& rng);

  private:
    /** Index in @p layout of every scheme feature, by name.
     *  @throws FatalError naming the first missing one. */
    std::vector<std::size_t> schemeColumns(
        const std::vector<std::string>& layout) const;

    /**
     * The one model-input path: row r of the result is the values of
     * rawRow(r) at @p columns (scheme order), and the whole row-major
     * batch is then range-normalized. rawRow(r) returns a span that
     * only needs to stay valid until the next call.
     */
    template <typename RawRow>
    std::vector<double> assembleRows(std::size_t nRows,
                                     std::span<const std::size_t> columns,
                                     RawRow&& rawRow) const;

    /** The input row of one what-if bag. */
    std::vector<double> bagRow(const AppFeatures& a, const AppFeatures& b,
                               double fairness) const;

    /**
     * Walk assembled rows through the tree into @p outSeconds,
     * denormalize and audit them under @p model. @return the audit
     * batch's first sequence id, or nullopt when nothing was logged.
     */
    std::optional<std::uint64_t> predictRows(
        const char* model, std::span<const double> rows,
        std::span<double> outSeconds) const;

    /**
     * Precompute per-leaf audit lookaside tables from the freshly
     * trained tree: the rendered root-to-leaf path summary and the
     * leaf's training residual RMSE (sqrt(sse/samples), denormalized
     * to seconds), plus the normalized training matrix's per-feature
     * min/max as the drift reference. Paying the string construction
     * once per train() keeps the per-record audit cost to a copy.
     */
    void buildAuditTables(const ml::Dataset& prepared);

    /**
     * Provenance hook shared by every predict path: no-op (one
     * relaxed load) unless the global PredictionLog is enabled, then
     * reserves sequence ids for the whole batch and records only the
     * sampled rows — a leaf walk plus table copies each. @return the
     * first reserved sequence id, or nullopt when the log is disabled.
     */
    std::optional<std::uint64_t> auditRows(
        const char* model, std::span<const double> flat,
        std::size_t nFeatures, std::span<const double> outSeconds) const;

    PredictorParams params_;
    std::optional<ml::DecisionTreeRegressor> tree_;
    RangeNormalizer normalizer_;
    /** Scheme feature names, resolved once in the constructor. */
    std::vector<std::string> schemeNames_;
    /** Scheme feature -> index into the full bag vector. */
    std::vector<std::size_t> projection_;
    /** Per-scheme-feature time flags for batch normalization. */
    std::vector<char> timeMask_;
    /** Per-leaf rendered decision-path summaries (node-id indexed). */
    std::vector<std::string> leafSummary_;
    /** Per-leaf training residual RMSE in seconds (node-id indexed). */
    std::vector<double> leafRmseSeconds_;
    /** Normalized-training-matrix feature ranges (drift reference). */
    std::vector<double> trainMin_;
    std::vector<double> trainMax_;
};

}  // namespace mapp::predictor

#endif  // MAPP_PREDICTOR_PREDICTOR_H
