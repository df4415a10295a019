/**
 * @file
 * The CART-style decision-tree regressor at the heart of the paper's
 * predictor: greedy MSE-minimizing binary splits (Section II-B.3), a
 * depth hyper-parameter, and — because explainability is the point —
 * full decision-path introspection: which features gate each test
 * point's path and how often (Figures 10-12).
 *
 * The split search uses the classic presorted-CART optimization: the
 * samples are ordered by every feature once at the root and each
 * split stably partitions those orders down to the children, so the
 * whole fit sorts O(F·n log n) once instead of O(F·n log n) per node.
 * Split scores that agree to within a relative tolerance are treated
 * as ties (correlated features routinely produce distinct splits with
 * the same partition) and broken deterministically toward the later
 * candidate, so the grown tree never depends on summation order.
 */

#ifndef MAPP_ML_DECISION_TREE_H
#define MAPP_ML_DECISION_TREE_H

#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"

namespace mapp::ml {

/** Decision-tree hyper-parameters. */
struct DecisionTreeParams
{
    int maxDepth = 10;          ///< pre-specified depth bound
    int minSamplesSplit = 2;    ///< nodes smaller than this become leaves
    int minSamplesLeaf = 2;     ///< each child must keep at least this many
    double minImpurityDecrease = 0.0;  ///< SSE reduction required to split
};

/** One step of a decision path: the node and the branch taken. */
struct DecisionStep
{
    int nodeId = 0;
    int feature = -1;       ///< feature tested at the node
    double threshold = 0.0;
    bool wentLeft = false;
};

/**
 * Read-only view of one tree node, exposed so serializers, the audit
 * tables and tests can read a trained tree without depending on the
 * private storage layout.
 */
struct TreeNodeView
{
    bool leaf = true;
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    double sse = 0.0;  ///< sum of squared target errors at the node
    int samples = 0;   ///< training samples that reached the node
    int left = -1;
    int right = -1;
};

/** A CART regression tree. */
class DecisionTreeRegressor
{
  public:
    explicit DecisionTreeRegressor(DecisionTreeParams params = {})
        : params_(params)
    {
    }

    /** Fit to a dataset (features + targets). @throws FatalError if empty. */
    void fit(const Dataset& data);

    /** Fit to raw rows/targets (used by the random forest). */
    void fit(const std::vector<std::vector<double>>& rows,
             const std::vector<double>& targets,
             std::vector<std::string> feature_names = {});

    /**
     * Reconstruct a trained tree from serialized node views (the
     * model-deserialization path): node 0 is the root and child
     * indices refer into @p nodes. Structural invariants are checked —
     * child indices in range and acyclic (each node reachable from the
     * root at most once), internal nodes carrying a valid feature
     * index, leaves carrying none — and node depths are recomputed, so
     * a corrupt model file cannot produce a tree that predicts out of
     * bounds. @throws FatalError on any violated invariant.
     */
    static DecisionTreeRegressor fromNodes(
        const std::vector<TreeNodeView>& nodes,
        std::vector<std::string> feature_names,
        DecisionTreeParams params = {});

    /**
     * The node id of the leaf @p x lands on: the one prediction walk.
     * Every internal node sends x[feature] <= threshold left and
     * anything else (NaN included) right. Leaf ids key per-leaf
     * lookaside tables such as nodeView() or the predictor's audit
     * summaries. @throws FatalError if untrained or if @p x holds
     * fewer than numFeatures() values.
     */
    int predictLeaf(std::span<const double> x) const;

    /** Predict one sample (the value of predictLeaf(x)). */
    double predict(std::span<const double> x) const;

    /** Predict every row of a dataset. */
    std::vector<double> predict(const Dataset& data) const;

    /**
     * Predict a row-major batch: sample r occupies
     * rowMajor[r*nFeatures .. (r+1)*nFeatures) and its prediction is
     * written to out[r] (out.size() rows), one predict() per row.
     * @throws FatalError if untrained, if @p nFeatures is not
     * numFeatures(), or if rowMajor.size() != nFeatures * out.size().
     */
    void predictBatch(std::span<const double> rowMajor,
                      std::size_t nFeatures,
                      std::span<double> out) const;

    /** The internal decision nodes visited by a sample, in order. */
    std::vector<DecisionStep> decisionPath(std::span<const double> x) const;

    /**
     * How many times each feature is tested on the sample's decision
     * path (the quantity plotted in Figures 11-12).
     */
    std::vector<int> featureUsageCounts(std::span<const double> x) const;

    /** Total number of nodes (internal + leaves). */
    std::size_t nodeCount() const { return nodes_.size(); }

    /** View of node @p i (root is 0). @throws FatalError if out of
     *  range. */
    TreeNodeView nodeView(std::size_t i) const;

    /** Depth actually reached. */
    int depth() const;

    /** True once fit() has run. */
    bool trained() const { return !nodes_.empty(); }

    /** The hyper-parameters the tree was constructed with. */
    const DecisionTreeParams& params() const { return params_; }

    /** Number of features the tree was trained on. */
    std::size_t numFeatures() const { return featureNames_.size(); }

    /** Feature names (empty strings if fitted from raw rows). */
    const std::vector<std::string>& featureNames() const
    {
        return featureNames_;
    }

    /**
     * Impurity-decrease feature importances, normalized to sum to 1
     * (scikit-learn's definition).
     */
    std::vector<double> featureImportances() const;

    /** Readable multi-line rendering of the tree. */
    std::string toText() const;

    /** Graphviz DOT rendering. */
    std::string toDot() const;

  private:
    struct Node
    {
        bool leaf = true;
        int feature = -1;
        double threshold = 0.0;
        double value = 0.0;       ///< mean target at the node
        double sse = 0.0;         ///< sum of squared errors at the node
        int samples = 0;
        int left = -1;
        int right = -1;
        int depth = 0;
    };

    /**
     * Throw for a walk by @p who on an untrained tree or over rows of
     * @p have values where numFeatures() are needed. Out of line and
     * cold, so the message building stays off the inlined walk.
     */
    [[noreturn]] __attribute__((noinline, cold)) void rejectRow(
        const char* who, std::size_t have) const;

    /**
     * Grow one subtree over the samples in @p orders (one presorted
     * index array per feature, all covering the same sample set).
     * @p indices holds the same samples in partition order (root:
     * dataset order; children: the parent's order filtered) — node
     * statistics sum in that order so the grown tree is bit-identical
     * to the naive per-node-sort search. @p side is a rows.size()
     * scratch buffer marking each sample's split side.
     */
    int buildNode(const std::vector<std::vector<double>>& rows,
                  const std::vector<double>& targets,
                  std::vector<std::vector<std::size_t>>& orders,
                  const std::vector<std::size_t>& indices, int depth,
                  std::vector<char>& side);

    DecisionTreeParams params_;
    std::vector<Node> nodes_;
    std::vector<std::string> featureNames_;
};

// Inline: this is every prediction's inner loop, called per row from
// the predictor and the serve batch.
inline int
DecisionTreeRegressor::predictLeaf(std::span<const double> x) const
{
    // fit() and fromNodes() keep every internal feature index below
    // numFeatures(), so the length check bounds every x[] read below.
    if (nodes_.empty() || x.size() < featureNames_.size())
        rejectRow("predict", x.size());
    int cur = 0;
    while (!nodes_[static_cast<std::size_t>(cur)].leaf) {
        const Node& node = nodes_[static_cast<std::size_t>(cur)];
        cur = x[static_cast<std::size_t>(node.feature)] <= node.threshold
                  ? node.left
                  : node.right;
    }
    return cur;
}

}  // namespace mapp::ml

#endif  // MAPP_ML_DECISION_TREE_H
