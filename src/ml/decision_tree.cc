#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace mapp::ml {

namespace {

/** Mean and SSE of the targets at the given indices. */
std::pair<double, double>
meanAndSse(const std::vector<double>& targets,
           const std::vector<std::size_t>& indices)
{
    if (indices.empty())
        return {0.0, 0.0};
    double mean = 0.0;
    for (std::size_t i : indices)
        mean += targets[i];
    mean /= static_cast<double>(indices.size());
    double sse = 0.0;
    for (std::size_t i : indices)
        sse += (targets[i] - mean) * (targets[i] - mean);
    return {mean, sse};
}

/** The best (threshold, sseLeft+sseRight) split of one feature. */
struct SplitCandidate
{
    bool valid = false;
    int feature = -1;
    double threshold = 0.0;
    double childSse = std::numeric_limits<double>::infinity();
};

/**
 * Relative tolerance under which two candidate child SSEs count as
 * tied. The campaign features are strongly correlated, so distinct
 * (feature, threshold) splits routinely induce the *same* partition
 * and their scores differ only by summation-order rounding; without a
 * tolerance the winner would be decided by last-bit noise.
 */
constexpr double kSseTieTolerance = 1e-9;

}  // namespace

void
DecisionTreeRegressor::fit(const Dataset& data)
{
    fit(data.rows(), data.targets(), data.featureNames());
}

void
DecisionTreeRegressor::fit(const std::vector<std::vector<double>>& rows,
                           const std::vector<double>& targets,
                           std::vector<std::string> feature_names)
{
    if (rows.empty() || rows.size() != targets.size())
        fatal("DecisionTreeRegressor::fit: empty or mismatched data");
    // A single NaN/Inf would silently corrupt every split score (any
    // comparison with NaN is false), so reject the fit up front with a
    // locatable message instead of training a poisoned model.
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (!std::isfinite(targets[r]))
            fatal("DecisionTreeRegressor::fit: non-finite target at row " +
                  std::to_string(r));
        for (std::size_t f = 0; f < rows[r].size(); ++f) {
            if (!std::isfinite(rows[r][f]))
                fatal("DecisionTreeRegressor::fit: non-finite feature " +
                      std::to_string(f) + " at row " + std::to_string(r));
        }
    }

    auto& registry = obs::defaultRegistry();
    const obs::ScopedTimer timer(registry, "ml.tree.fit_seconds");

    nodes_.clear();
    if (feature_names.empty())
        feature_names.assign(rows.front().size(), "");
    if (feature_names.size() != rows.front().size())
        fatal("DecisionTreeRegressor::fit: " +
              std::to_string(feature_names.size()) +
              " feature names for rows of " +
              std::to_string(rows.front().size()) + " features");
    featureNames_ = std::move(feature_names);

    const std::size_t n = rows.size();
    const std::size_t numFeatures = rows.front().size();

    if (numFeatures == 0) {
        // Degenerate featureless fit: a single mean leaf.
        std::vector<std::size_t> all(n);
        std::iota(all.begin(), all.end(), std::size_t{0});
        auto [mean, sse] = meanAndSse(targets, all);
        nodes_.emplace_back();
        nodes_.back().value = mean;
        nodes_.back().sse = sse;
        nodes_.back().samples = static_cast<int>(n);
    } else {
        // Classic CART presort: order the samples by every feature
        // once at the root (O(F n log n) total); child nodes inherit
        // their orders by stable partition, so no node ever sorts.
        std::vector<std::vector<std::size_t>> orders(numFeatures);
        for (std::size_t f = 0; f < numFeatures; ++f) {
            auto& order = orders[f];
            order.resize(n);
            std::iota(order.begin(), order.end(), std::size_t{0});
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (rows[a][f] != rows[b][f])
                              return rows[a][f] < rows[b][f];
                          return a < b;  // deterministic tie order
                      });
        }
        std::vector<std::size_t> indices(n);
        std::iota(indices.begin(), indices.end(), std::size_t{0});
        std::vector<char> side(n);
        buildNode(rows, targets, orders, indices, 0, side);
    }

    registry.counter("ml.tree.fits").add(1);
    registry.counter("ml.tree.nodes_built").add(nodes_.size());
    registry.gauge("ml.tree.last_depth")
        .set(static_cast<double>(depth()));
}

int
DecisionTreeRegressor::buildNode(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& targets,
    std::vector<std::vector<std::size_t>>& orders,
    const std::vector<std::size_t>& indices, int depth,
    std::vector<char>& side)
{
    const int nodeId = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    // Node statistics sum in partition order (not sorted order): the
    // floating-point sums — and therefore every leaf value and split
    // score — match the naive per-node-sort search bit for bit.
    auto [mean, sse] = meanAndSse(targets, indices);
    {
        Node& node = nodes_.back();
        node.value = mean;
        node.sse = sse;
        node.samples = static_cast<int>(indices.size());
        node.depth = depth;
    }

    const auto n = indices.size();
    if (depth >= params_.maxDepth ||
        n < static_cast<std::size_t>(params_.minSamplesSplit) ||
        sse <= 1e-12) {
        return nodeId;
    }

    // Greedy exhaustive split search: every feature's samples arrive
    // already sorted, so each candidate boundary between distinct
    // values is evaluated in one O(n) prefix-sum sweep per feature.
    const std::size_t numFeatures = orders.size();
    SplitCandidate best;

    for (std::size_t f = 0; f < numFeatures; ++f) {
        const auto& order = orders[f];
        // Totals are re-summed per feature in that feature's sorted
        // order, matching the accumulation order of the naive search.
        double sumTotal = 0.0;
        double sqTotal = 0.0;
        for (std::size_t i : order) {
            sumTotal += targets[i];
            sqTotal += targets[i] * targets[i];
        }
        double sumLeft = 0.0;
        double sqLeft = 0.0;

        for (std::size_t k = 0; k + 1 < order.size(); ++k) {
            const double y = targets[order[k]];
            sumLeft += y;
            sqLeft += y * y;

            const double xk = rows[order[k]][f];
            const double xn = rows[order[k + 1]][f];
            if (xn <= xk)  // not a boundary between distinct values
                continue;

            const auto nl = static_cast<double>(k + 1);
            const auto nr = static_cast<double>(order.size() - k - 1);
            if (nl < params_.minSamplesLeaf || nr < params_.minSamplesLeaf)
                continue;

            const double sseL = sqLeft - sumLeft * sumLeft / nl;
            const double sumR = sumTotal - sumLeft;
            const double sqR = sqTotal - sqLeft;
            const double sseR = sqR - sumR * sumR / nr;
            const double childSse = sseL + sseR;

            // Strictly better wins; within-tolerance ties go to the
            // later candidate (highest feature, then highest
            // threshold) — an explicit deterministic rule instead of
            // letting rounding noise pick the winner.
            bool take = !best.valid;
            if (best.valid) {
                const double scale = std::max(
                    {std::fabs(childSse), std::fabs(best.childSse),
                     1e-30});
                if (std::fabs(childSse - best.childSse) <=
                    kSseTieTolerance * scale)
                    take = true;
                else
                    take = childSse < best.childSse;
            }
            if (take) {
                best.valid = true;
                best.feature = static_cast<int>(f);
                best.threshold = (xk + xn) / 2.0;
                best.childSse = childSse;
            }
        }
    }

    if (!best.valid ||
        sse - best.childSse <= params_.minImpurityDecrease + 1e-12) {
        return nodeId;
    }

    // Mark each sample's side once, then stably partition every
    // feature's order so both children stay presorted. The partition-
    // order index list filters the same way, preserving dataset order
    // down the tree.
    std::size_t numLeft = 0;
    for (std::size_t i : indices) {
        side[i] = rows[i][static_cast<std::size_t>(best.feature)] <=
                          best.threshold
                      ? 1
                      : 0;
        numLeft += side[i];
    }
    if (numLeft == 0 || numLeft == n)
        return nodeId;  // numeric degeneracy; keep the leaf

    std::vector<std::size_t> leftIndices;
    std::vector<std::size_t> rightIndices;
    leftIndices.reserve(numLeft);
    rightIndices.reserve(n - numLeft);
    for (std::size_t i : indices) {
        if (side[i])
            leftIndices.push_back(i);
        else
            rightIndices.push_back(i);
    }

    std::vector<std::vector<std::size_t>> leftOrders(numFeatures);
    std::vector<std::vector<std::size_t>> rightOrders(numFeatures);
    for (std::size_t f = 0; f < numFeatures; ++f) {
        leftOrders[f].reserve(numLeft);
        rightOrders[f].reserve(n - numLeft);
        for (std::size_t i : orders[f]) {
            if (side[i])
                leftOrders[f].push_back(i);
            else
                rightOrders[f].push_back(i);
        }
        // Release the parent's copy early: peak memory stays O(F n)
        // per level of the *current* path, not of the whole tree.
        orders[f] = std::vector<std::size_t>();
    }

    // Recurse; re-fetch the node reference afterwards (vector may grow).
    const int left = buildNode(rows, targets, leftOrders, leftIndices,
                               depth + 1, side);
    const int right = buildNode(rows, targets, rightOrders, rightIndices,
                                depth + 1, side);
    Node& node = nodes_[static_cast<std::size_t>(nodeId)];
    node.leaf = false;
    node.feature = best.feature;
    node.threshold = best.threshold;
    node.left = left;
    node.right = right;
    return nodeId;
}

void
DecisionTreeRegressor::rejectRow(const char* who, std::size_t have) const
{
    const std::string where = std::string("DecisionTreeRegressor::") + who;
    if (nodes_.empty())
        fatal(where + ": model not trained");
    fatal(where + ": row has " + std::to_string(have) +
          " features, the tree needs " + std::to_string(numFeatures()));
}

double
DecisionTreeRegressor::predict(std::span<const double> x) const
{
    return nodes_[static_cast<std::size_t>(predictLeaf(x))].value;
}

std::vector<double>
DecisionTreeRegressor::predict(const Dataset& data) const
{
    std::vector<double> out(data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        out[i] = predict(data.row(i));
    return out;
}

void
DecisionTreeRegressor::predictBatch(std::span<const double> rowMajor,
                                    std::size_t nFeatures,
                                    std::span<double> out) const
{
    if (nodes_.empty() || nFeatures != featureNames_.size())
        rejectRow("predictBatch", nFeatures);
    const std::size_t nRows = out.size();
    if (rowMajor.size() != nFeatures * nRows)
        fatal("DecisionTreeRegressor::predictBatch: rowMajor size does "
              "not equal nFeatures * out size");
    if (nRows == 0)
        return;
    // Cached references: the registry owns its counters for the
    // process lifetime, and a string-keyed map lookup per batch would
    // cost more than a small batch's entire walk.
    static obs::Counter& batches =
        obs::defaultRegistry().counter("ml.inference.batches");
    static obs::Counter& batchRows =
        obs::defaultRegistry().counter("ml.inference.batch_rows");
    batches.add(1);
    batchRows.add(nRows);
    for (std::size_t r = 0; r < nRows; ++r)
        out[r] = predict(rowMajor.subspan(r * nFeatures, nFeatures));
}

TreeNodeView
DecisionTreeRegressor::nodeView(std::size_t i) const
{
    if (i >= nodes_.size())
        fatal("DecisionTreeRegressor::nodeView: index out of range");
    const Node& node = nodes_[i];
    TreeNodeView v;
    v.leaf = node.leaf;
    v.feature = node.feature;
    v.threshold = node.threshold;
    v.value = node.value;
    v.sse = node.sse;
    v.samples = node.samples;
    v.left = node.left;
    v.right = node.right;
    return v;
}

std::vector<DecisionStep>
DecisionTreeRegressor::decisionPath(std::span<const double> x) const
{
    if (nodes_.empty() || x.size() < featureNames_.size())
        rejectRow("decisionPath", x.size());
    std::vector<DecisionStep> path;
    int cur = 0;
    while (!nodes_[static_cast<std::size_t>(cur)].leaf) {
        const Node& node = nodes_[static_cast<std::size_t>(cur)];
        DecisionStep step;
        step.nodeId = cur;
        step.feature = node.feature;
        step.threshold = node.threshold;
        step.wentLeft =
            x[static_cast<std::size_t>(node.feature)] <= node.threshold;
        path.push_back(step);
        cur = step.wentLeft ? node.left : node.right;
    }
    return path;
}

std::vector<int>
DecisionTreeRegressor::featureUsageCounts(std::span<const double> x) const
{
    std::vector<int> counts(featureNames_.size(), 0);
    for (const auto& step : decisionPath(x))
        counts[static_cast<std::size_t>(step.feature)] += 1;
    return counts;
}

int
DecisionTreeRegressor::depth() const
{
    int best = 0;
    for (const auto& node : nodes_)
        best = std::max(best, node.depth);
    return best;
}

std::vector<double>
DecisionTreeRegressor::featureImportances() const
{
    std::vector<double> imp(featureNames_.size(), 0.0);
    for (const auto& node : nodes_) {
        if (node.leaf)
            continue;
        const Node& l = nodes_[static_cast<std::size_t>(node.left)];
        const Node& r = nodes_[static_cast<std::size_t>(node.right)];
        const double decrease = node.sse - l.sse - r.sse;
        imp[static_cast<std::size_t>(node.feature)] +=
            std::max(decrease, 0.0);
    }
    double total = 0.0;
    for (double v : imp)
        total += v;
    if (total > 0.0)
        for (auto& v : imp)
            v /= total;
    return imp;
}

namespace {

std::string
featureLabel(const std::vector<std::string>& names, int feature)
{
    const auto idx = static_cast<std::size_t>(feature);
    if (idx < names.size() && !names[idx].empty())
        return names[idx];
    return "f" + std::to_string(feature);
}

}  // namespace

std::string
DecisionTreeRegressor::toText() const
{
    std::ostringstream os;
    os.precision(4);
    // Iterative preorder walk with explicit depth.
    std::vector<int> stack{0};
    while (!stack.empty() && !nodes_.empty()) {
        const int id = stack.back();
        stack.pop_back();
        const Node& node = nodes_[static_cast<std::size_t>(id)];
        os << std::string(static_cast<std::size_t>(node.depth) * 2, ' ');
        if (node.leaf) {
            os << "leaf value=" << node.value << " n=" << node.samples
               << '\n';
        } else {
            os << featureLabel(featureNames_, node.feature)
               << " <= " << node.threshold << " (n=" << node.samples
               << ")\n";
            stack.push_back(node.right);
            stack.push_back(node.left);
        }
    }
    return os.str();
}

std::string
DecisionTreeRegressor::toDot() const
{
    std::ostringstream os;
    os << "digraph DecisionTree {\n  node [shape=box];\n";
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node& node = nodes_[i];
        if (node.leaf) {
            os << "  n" << i << " [label=\"" << node.value
               << "\\nn=" << node.samples << "\"];\n";
        } else {
            os << "  n" << i << " [label=\""
               << featureLabel(featureNames_, node.feature)
               << " <= " << node.threshold << "\\nn=" << node.samples
               << "\"];\n";
            os << "  n" << i << " -> n" << node.left
               << " [label=\"yes\"];\n";
            os << "  n" << i << " -> n" << node.right
               << " [label=\"no\"];\n";
        }
    }
    os << "}\n";
    return os.str();
}

DecisionTreeRegressor
DecisionTreeRegressor::fromNodes(const std::vector<TreeNodeView>& nodes,
                                 std::vector<std::string> feature_names,
                                 DecisionTreeParams params)
{
    if (nodes.empty())
        fatal("DecisionTreeRegressor::fromNodes: no nodes");
    const auto n = static_cast<int>(nodes.size());
    const auto numFeatures = static_cast<int>(feature_names.size());

    DecisionTreeRegressor tree(params);
    tree.featureNames_ = std::move(feature_names);
    tree.nodes_.resize(nodes.size());

    // Walk from the root assigning depths; every structural check a
    // traversal relies on happens here, so predict() can stay a bare
    // index chase. Each node may be visited at most once (tree, not
    // DAG), which also bounds the walk and rejects cycles.
    std::vector<char> visited(nodes.size(), 0);
    std::vector<std::pair<int, int>> stack{{0, 0}};  // (node, depth)
    std::size_t reached = 0;
    while (!stack.empty()) {
        const auto [id, depth] = stack.back();
        stack.pop_back();
        if (id < 0 || id >= n)
            fatal("DecisionTreeRegressor::fromNodes: child index " +
                  std::to_string(id) + " out of range");
        if (visited[static_cast<std::size_t>(id)])
            fatal("DecisionTreeRegressor::fromNodes: node " +
                  std::to_string(id) + " reachable twice (cycle)");
        visited[static_cast<std::size_t>(id)] = 1;
        ++reached;

        const TreeNodeView& v = nodes[static_cast<std::size_t>(id)];
        Node& node = tree.nodes_[static_cast<std::size_t>(id)];
        node.leaf = v.leaf;
        node.feature = v.feature;
        node.threshold = v.threshold;
        node.value = v.value;
        node.sse = v.sse;
        node.samples = v.samples;
        node.left = v.left;
        node.right = v.right;
        node.depth = depth;
        if (v.leaf) {
            if (v.left != -1 || v.right != -1)
                fatal("DecisionTreeRegressor::fromNodes: leaf " +
                      std::to_string(id) + " has children");
            continue;
        }
        if (v.feature < 0 || v.feature >= numFeatures)
            fatal("DecisionTreeRegressor::fromNodes: node " +
                  std::to_string(id) + " tests feature " +
                  std::to_string(v.feature) + " of " +
                  std::to_string(numFeatures));
        stack.emplace_back(v.right, depth + 1);
        stack.emplace_back(v.left, depth + 1);
    }
    if (reached != nodes.size())
        fatal("DecisionTreeRegressor::fromNodes: " +
              std::to_string(nodes.size() - reached) +
              " nodes unreachable from the root");
    return tree;
}

}  // namespace mapp::ml
