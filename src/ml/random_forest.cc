#include "ml/random_forest.h"

#include "common/log.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace mapp::ml {

namespace {

/**
 * Per-tree RNG seed: a splitmix64-style mix of the forest seed and the
 * tree index. Each tree owns an independent stream derived only from
 * (seed, t), so fits are bit-identical whether trees are built
 * serially or concurrently, in any order.
 */
std::uint64_t
treeSeed(std::uint64_t forest_seed, int tree)
{
    std::uint64_t z = forest_seed +
                      (static_cast<std::uint64_t>(tree) + 1) *
                          0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

}  // namespace

void
RandomForestRegressor::fit(const Dataset& data)
{
    if (data.empty())
        fatal("RandomForestRegressor::fit: empty dataset");

    const auto n = data.size();
    const auto sampleSize = std::max<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(n) *
                                 params_.sampleFraction),
        1);

    const auto numTrees = static_cast<std::size_t>(params_.numTrees);
    std::vector<DecisionTreeRegressor> trees(
        numTrees, DecisionTreeRegressor(params_.tree));
    parallel::parallelFor(numTrees, [&](std::size_t t) {
        Rng rng(treeSeed(params_.seed, static_cast<int>(t)));
        std::vector<std::size_t> indices;
        indices.reserve(sampleSize);
        for (std::size_t i = 0; i < sampleSize; ++i)
            indices.push_back(static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(n) - 1)));
        trees[t].fit(data.subset(indices));
    });
    trees_ = std::move(trees);
}

double
RandomForestRegressor::predict(std::span<const double> x) const
{
    if (trees_.empty())
        fatal("RandomForestRegressor::predict: model not trained");
    double acc = 0.0;
    for (const auto& tree : trees_)
        acc += tree.predict(x);
    return acc / static_cast<double>(trees_.size());
}

std::vector<double>
RandomForestRegressor::predict(const Dataset& data) const
{
    if (trees_.empty())
        fatal("RandomForestRegressor::predict: model not trained");
    // One pass per tree with the rows inner: each tree's nodes stay
    // hot across the whole dataset instead of re-walking the entire
    // ensemble per row. Every row still sums its tree contributions
    // in tree order, so the result is bit-identical to the per-row
    // ensemble walk.
    std::vector<double> out(data.size(), 0.0);
    for (const auto& tree : trees_)
        for (std::size_t i = 0; i < data.size(); ++i)
            out[i] += tree.predict(data.row(i));
    const auto n = static_cast<double>(trees_.size());
    for (auto& v : out)
        v /= n;
    return out;
}

}  // namespace mapp::ml
