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
     * Predict a whole batch of what-if queries in one pass: one
     * projection + normalization over a contiguous row-major buffer,
     * then the tree's predictBatch(). Element i equals
     * predict(queries[i].a, queries[i].b, queries[i].fairness) bit
     * for bit.
     */
    std::vector<double> predictBatch(
        const std::vector<BagQuery>& queries) const;

    /**
     * Predict every row of a raw (unnormalized, full-layout) dataset:
     * project to the scheme, normalize the whole batch in place, run
     * the tree's predictBatch(), denormalize in place. Used by the
     * cross-validation fold evaluation and the figure benches.
     */
    std::vector<double> predictDataset(const ml::Dataset& raw_test) const;

    /** Predict with the decision path attached. */
    Explanation explain(const DataPoint& point) const;

    /**
     * Report ground truth for the most recent predictDataset() batch:
     * feeds the global ModelQualityMonitor (error histograms, feature
     * drift against the training normalization ranges) and, when the
     * prediction log is enabled, annotates the batch's audited
     * records with their actual times. @p predictedSeconds must be
     * the vector predictDataset(@p raw_test) returned.
     */
    void observeGroundTruth(
        const ml::Dataset& raw_test,
        std::span<const double> predictedSeconds) const;

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
    ml::Dataset projectAndNormalizeTrain(const ml::Dataset& raw);

    /** Build one projected + normalized query row (no Dataset, no
     *  string lookups — the single-query hot path). */
    std::vector<double> queryRow(const AppFeatures& a,
                                 const AppFeatures& b,
                                 double fairness) const;

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
     * first reserved sequence id (0 when the log is disabled).
     */
    std::uint64_t auditRows(const char* model,
                            std::span<const double> flat,
                            std::size_t nFeatures,
                            std::span<const double> outSeconds) const;

    PredictorParams params_;
    std::optional<ml::DecisionTreeRegressor> tree_;
    RangeNormalizer normalizer_;
    ml::Dataset trainLayout_;  ///< empty dataset carrying feature names
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
    /** Sequence range of the last predictDataset() audit batch, so
     *  observeGroundTruth() can annotate it. One model instance is
     *  evaluated from one thread (folds each own a model). */
    mutable std::uint64_t lastAuditFirstSeq_ = 0;
    mutable std::size_t lastAuditRows_ = 0;
};

}  // namespace mapp::predictor

#endif  // MAPP_PREDICTOR_PREDICTOR_H
