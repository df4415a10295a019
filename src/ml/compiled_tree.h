/**
 * @file
 * The compiled batch-inference engine: CompiledTree flattens a trained
 * DecisionTreeRegressor into contiguous structure-of-arrays node
 * storage for cache-friendly, allocation-free traversal, plus a batched
 * predictBatch() that walks blocks of samples through the flat arrays
 * and dispatches large batches over the parallel execution layer.
 *
 * Node layout (one slot per node, root at index 0):
 *  - feature[i]   int32  feature tested at node i (0 for leaves)
 *  - threshold[i] double split threshold — or, at a leaf, the LEAF
 *                        VALUE (the sentinel encoding: a leaf never
 *                        wins or loses a comparison, see below)
 *  - kids[2i]/kids[2i+1] int32 the left/right children interleaved,
 *                        so the batch walk selects the taken child
 *                        with ONE indexed load `kids[2i + go]`; a leaf
 *                        points BOTH at itself (kids[2i] == i)
 *
 * Leaves are folded into this self-loop sentinel so the batch walk
 * needs no per-step "is this row done?" branch: every row in a block
 * takes at most depth() comparison steps — rows that reach a leaf
 * early just spin on it (any comparison routes to the same node) —
 * and the final threshold load IS the prediction. The split decision
 * is a SETcc-fed indexed load, never a conditional branch the CPU
 * would mispredict ~50% of the time. With no branches in the loop the
 * CPU overlaps the dependent node-load chains of every row in the
 * block, which is where the batch speedup comes from; one-sample
 * predict() instead early-exits on kids[2i] == i.
 *
 * Compiled predictions are bit-identical to the node-walk reference:
 * the traversal evaluates exactly the same x[feature] <= threshold
 * comparisons on the same doubles (NaN fails <= and routes right in
 * both). The node walk in DecisionTreeRegressor stays as the oracle;
 * tests/test_inference.cc fuzzes the equivalence.
 */

#ifndef MAPP_ML_COMPILED_TREE_H
#define MAPP_ML_COMPILED_TREE_H

#include <cstdint>
#include <span>
#include <vector>

#include "ml/decision_tree.h"

namespace mapp::ml {

/** A DecisionTreeRegressor flattened into SoA node arrays. */
class CompiledTree
{
  public:
    /** An empty, un-compiled engine (predict() throws). */
    CompiledTree() = default;

    /** Flatten @p tree. @throws FatalError if the tree is untrained. */
    explicit CompiledTree(const DecisionTreeRegressor& tree);

    bool compiled() const { return !feature_.empty(); }
    std::size_t nodeCount() const { return feature_.size(); }

    /** Comparison steps a batch row takes (the source tree's depth). */
    int steps() const { return steps_; }

    /** Predict one sample (early-exit walk over the flat arrays). */
    double predict(std::span<const double> x) const;

    /**
     * The flat-array index of the leaf @p x lands on. Leaf indices
     * equal the source tree's node ids, so callers can key
     * per-leaf lookaside tables (audit path summaries, residual RMSE)
     * off the result without re-walking the reference tree.
     */
    std::int32_t predictLeaf(std::span<const double> x) const;

    /**
     * Predict a row-major batch: sample r occupies
     * rowMajor[r*nFeatures .. (r+1)*nFeatures) and its prediction is
     * written to out[r] (out.size() rows). Large batches are split
     * into chunks across parallel::parallelFor lanes; every chunk
     * writes only its own out slots, so the result is bit-identical
     * at any thread count.
     */
    void predictBatch(std::span<const double> rowMajor,
                      std::size_t nFeatures,
                      std::span<double> out) const;

    /** Predict every row of a dataset (flatten once, then batch). */
    std::vector<double> predict(const Dataset& data) const;

  private:
    std::vector<std::int32_t> feature_;
    std::vector<double> threshold_;
    std::vector<std::int32_t> kids_;  ///< interleaved [left,right]
    int steps_ = 0;
};

}  // namespace mapp::ml

#endif  // MAPP_ML_COMPILED_TREE_H
