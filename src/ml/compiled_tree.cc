#include "ml/compiled_tree.h"

#include <algorithm>

#include "common/log.h"
#include "common/parallel.h"
#include "obs/metrics.h"

namespace mapp::ml {

namespace {

/** Rows a lock-step walk block holds in flight. */
constexpr std::size_t kBlockRows = 32;

/**
 * Steps the fixed-step walk runs between "is every row at a leaf?"
 * probes. Most rows exit well before the tree's depth bound; probing
 * every few steps recovers that slack for the price of one
 * well-predicted branch per probe (the probe can only ever skip no-op
 * steps, so it never changes results).
 */
constexpr int kWalkStepsPerProbe = 3;

/**
 * Rows per parallelFor task. A shallow tree finishes a 32-row block in
 * a few dozen compare steps, so with 256-row chunks the per-task fixed
 * costs (task dispatch, block setup/teardown) were a visible fraction
 * of the work (bench.inference.tree.batch.speedup sat near 1.17x).
 * 1024 rows amortizes the fixed costs ~4x further while still
 * splitting campaign-scale batches (thousands of rows) across worker
 * lanes.
 */
constexpr std::size_t kTreeChunkRows = 1024;

/** Read-only view of the compiled node arrays. */
struct Nodes
{
    const std::int32_t* feature;
    const double* threshold;
    const std::int32_t* kids;
};

/** The leaf one sample lands on, walking from the root with an early
 * exit at the first self-looping node. */
std::int32_t
leafOf(const Nodes& nodes, std::span<const double> x)
{
    std::int32_t cur = 0;
    for (;;) {
        const auto c = static_cast<std::size_t>(cur);
        if (nodes.kids[2 * c] == cur)
            return cur;
        cur = x[static_cast<std::size_t>(nodes.feature[c])] <=
                      nodes.threshold[c]
                  ? nodes.kids[2 * c]
                  : nodes.kids[2 * c + 1];
    }
}

/**
 * Advance @p RowCount rows through the tree for at most @p steps
 * comparisons and write each row's leaf value to out[i]. Rows that
 * reach a leaf early self-loop on it (the sentinel encoding), so there
 * is no per-step termination branch and the RowCount dependent load
 * chains proceed in parallel.
 *
 * The pointers are `__restrict__` on purpose: `out` shares the double
 * type with the threshold array, and without the no-alias promise the
 * compiler must reload node data after every store — which serializes
 * the row chains and erases the whole point of the interleaving. The
 * walk advances a LOCAL state array `c` with constant indices
 * (RowCount is a template parameter and the loops unroll completely),
 * so the per-step state update is register-promotable and costs no
 * load/store traffic on a kernel that is otherwise load-port bound.
 *
 * Each level costs four loads per row — feature id, the row's feature
 * value, threshold, and the taken child `kids[2n + !(x <= t)]`. The
 * comparison materializes as a SETcc folded into the child load's
 * address, never a conditional branch (data-dependent splits
 * mispredict ~50% and a mispredict per level would cost more than the
 * whole level). The indexed child load is deliberate: a load is one
 * cheap load-port uop, while a variable shift or cmov select lengthens
 * each level's dependency chain. The !(x <= t) form keeps NaN
 * semantics identical to the oracle walk (NaN fails <=, so it routes
 * right in both engines).
 */
template <std::size_t RowCount>
__attribute__((noinline)) void
walkBlock(const std::int32_t* __restrict__ feature,
          const double* __restrict__ threshold,
          const std::int32_t* __restrict__ kids, int steps,
          const double* __restrict__ rows, std::size_t n_features,
          double* __restrict__ out)
{
    std::int32_t c[RowCount];
    for (std::size_t i = 0; i < RowCount; ++i)
        c[i] = 0;
    for (int s = 0; s < steps;) {
        const int stop = std::min(steps, s + kWalkStepsPerProbe - 1);
        for (; s < stop; ++s) {
            for (std::size_t i = 0; i < RowCount; ++i) {
                const auto n = static_cast<std::size_t>(c[i]);
                const double x =
                    rows[i * n_features +
                         static_cast<std::size_t>(feature[n])];
                c[i] = kids[2 * n + static_cast<std::size_t>(
                                        !(x <= threshold[n]))];
            }
        }
        if (s >= steps)
            break;
        // Probe step: same walk, but fold "did any row move?" into
        // the step itself (a leaf self-loops, so next == c iff the
        // row is done) — the check reuses values already in flight
        // instead of a separate pass over the block.
        bool done = true;
        for (std::size_t i = 0; i < RowCount; ++i) {
            const auto n = static_cast<std::size_t>(c[i]);
            const double x =
                rows[i * n_features +
                     static_cast<std::size_t>(feature[n])];
            const std::int32_t next =
                kids[2 * n +
                     static_cast<std::size_t>(!(x <= threshold[n]))];
            done &= next == c[i];
            c[i] = next;
        }
        ++s;
        if (done)
            break;  // self-loop sentinel: extra steps are no-ops
    }
    // Fused output: the final leaf values leave the walk directly —
    // no row-state array crosses the call boundary, so the caller
    // never re-loads what the walk just stored.
    for (std::size_t i = 0; i < RowCount; ++i)
        out[i] = threshold[static_cast<std::size_t>(c[i])];
}

/**
 * Walk @p row_count (< 2 * Block) rows through the tree, cascading
 * down the power-of-two instantiations Block, Block/2, ..., 1 so every
 * row runs fully unrolled codegen. Write each row's leaf value to
 * out[i].
 */
template <std::size_t Block = kBlockRows>
void
walkRows(const Nodes& nodes, int steps, const double* rows,
         std::size_t n_features, std::size_t row_count, double* out)
{
    if (row_count >= Block) {
        walkBlock<Block>(nodes.feature, nodes.threshold, nodes.kids, steps,
                         rows, n_features, out);
        rows += Block * n_features;
        out += Block;
        row_count -= Block;
    }
    if constexpr (Block > 1)
        walkRows<Block / 2>(nodes, steps, rows, n_features, row_count,
                            out);
}

/**
 * One batch chunk: rows [begin, end) through the tree. Deliberately
 * noinline — the block loop gets its own register allocation instead
 * of being inlined into predictBatch (inlining measurably degrades the
 * unrolled walk's codegen).
 */
__attribute__((noinline)) void
treeChunk(const Nodes& nodes, int steps, const double* row_major,
          std::size_t n_features, double* out, std::size_t begin,
          std::size_t end)
{
    double buf[kBlockRows];
    for (std::size_t r0 = begin; r0 < end; r0 += kBlockRows) {
        std::size_t count = end - r0;
        std::size_t skip = 0;
        if (count > kBlockRows) {
            count = kBlockRows;
        } else if (count < kBlockRows && end - begin >= kBlockRows) {
            // Partial final block with enough history in this chunk:
            // slide back to a full block and re-walk a few rows.
            // Predictions are deterministic, so the overlapped slots
            // are rewritten with identical values, and the overlap
            // never leaves [begin, end) — no cross-chunk writes.
            skip = kBlockRows - count;
            r0 -= skip;
            count = kBlockRows;
        }
        const double* rows = row_major + r0 * n_features;
        if (skip == 0) {
            walkRows(nodes, steps, rows, n_features, count, out + r0);
        } else {
            walkRows(nodes, steps, rows, n_features, count, buf);
            for (std::size_t i = skip; i < count; ++i)
                out[r0 + i] = buf[i];
        }
    }
}

}  // namespace

CompiledTree::CompiledTree(const DecisionTreeRegressor& tree)
{
    if (!tree.trained())
        fatal("CompiledTree: source tree not trained");
    // Leaves become self-loops holding their value in the threshold
    // slot; flat indices equal the source tree's node ids.
    for (std::size_t i = 0; i < tree.nodeCount(); ++i) {
        const auto v = tree.nodeView(i);
        const auto self = static_cast<std::int32_t>(i);
        feature_.push_back(v.leaf ? 0 : v.feature);
        threshold_.push_back(v.leaf ? v.value : v.threshold);
        kids_.push_back(v.leaf ? self : v.left);
        kids_.push_back(v.leaf ? self : v.right);
    }
    steps_ = tree.depth();
}

double
CompiledTree::predict(std::span<const double> x) const
{
    if (!compiled())
        fatal("CompiledTree::predict: not compiled");
    const Nodes nodes{feature_.data(), threshold_.data(), kids_.data()};
    return threshold_[static_cast<std::size_t>(leafOf(nodes, x))];
}

std::int32_t
CompiledTree::predictLeaf(std::span<const double> x) const
{
    if (!compiled())
        fatal("CompiledTree::predictLeaf: not compiled");
    const Nodes nodes{feature_.data(), threshold_.data(), kids_.data()};
    return leafOf(nodes, x);
}

void
CompiledTree::predictBatch(std::span<const double> rowMajor,
                           std::size_t nFeatures,
                           std::span<double> out) const
{
    if (!compiled())
        fatal("CompiledTree::predictBatch: not compiled");
    const std::size_t nRows = out.size();
    if (rowMajor.size() != nFeatures * nRows)
        fatal("CompiledTree::predictBatch: rowMajor size does not equal "
              "nFeatures * out size");
    if (nRows == 0)
        return;
    // Cached references: the registry owns its counters for the
    // process lifetime, and a string-keyed map lookup per batch would
    // cost more than a small batch's entire traversal.
    static obs::Counter& batches =
        obs::defaultRegistry().counter("ml.inference.batches");
    static obs::Counter& batchRows =
        obs::defaultRegistry().counter("ml.inference.batch_rows");
    batches.add(1);
    batchRows.add(nRows);

    const Nodes nodes{feature_.data(), threshold_.data(), kids_.data()};
    const std::size_t nChunks =
        (nRows + kTreeChunkRows - 1) / kTreeChunkRows;
    parallel::parallelFor(nChunks, [&](std::size_t chunk) {
        const std::size_t begin = chunk * kTreeChunkRows;
        const std::size_t end =
            std::min(begin + kTreeChunkRows, nRows);
        treeChunk(nodes, steps_, rowMajor.data(), nFeatures, out.data(),
                  begin, end);
    });
}

std::vector<double>
CompiledTree::predict(const Dataset& data) const
{
    const auto flat = data.toRowMajor();
    std::vector<double> out(data.size());
    predictBatch(flat, data.numFeatures(), out);
    return out;
}

}  // namespace mapp::ml
