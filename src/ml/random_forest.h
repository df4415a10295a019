/**
 * @file
 * A bagged random-forest regressor over DecisionTreeRegressor — an
 * extension beyond the paper's single tree, used by the ablation benches
 * to check whether ensembling helps on this small, structured dataset.
 */

#ifndef MAPP_ML_RANDOM_FOREST_H
#define MAPP_ML_RANDOM_FOREST_H

#include <span>
#include <vector>

#include "ml/decision_tree.h"

namespace mapp::ml {

/** Random-forest hyper-parameters. */
struct RandomForestParams
{
    int numTrees = 30;
    DecisionTreeParams tree;
    double sampleFraction = 1.0;  ///< bootstrap sample size fraction
    std::uint64_t seed = 42;
};

/**
 * Mean-aggregated ensemble of CART trees on bootstrap samples.
 *
 * Each tree's bootstrap sample is drawn from an RNG stream derived
 * only from (seed, tree index), so trees fit concurrently on the
 * thread pool produce exactly the forest a serial fit would.
 */
class RandomForestRegressor
{
  public:
    explicit RandomForestRegressor(RandomForestParams params = {})
        : params_(params)
    {
    }

    /** Fit the ensemble (trees in parallel). @throws FatalError on
     *  empty data. */
    void fit(const Dataset& data);

    /** Predict one sample (mean over trees). */
    double predict(std::span<const double> x) const;

    /** Predict all rows. */
    std::vector<double> predict(const Dataset& data) const;

    std::size_t treeCount() const { return trees_.size(); }
    bool trained() const { return !trees_.empty(); }

  private:
    RandomForestParams params_;
    std::vector<DecisionTreeRegressor> trees_;
};

}  // namespace mapp::ml

#endif  // MAPP_ML_RANDOM_FOREST_H
