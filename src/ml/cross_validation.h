/**
 * @file
 * Cross-validation: leave-one-group-out (the paper's LOOCV, where every
 * data point of the left-out benchmark is held out together, Section
 * V-D.1), generic over any regressor with fit(Dataset)/predict(Dataset).
 */

#ifndef MAPP_ML_CROSS_VALIDATION_H
#define MAPP_ML_CROSS_VALIDATION_H

#include <functional>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/metrics.h"

namespace mapp::ml {

/** Errors of one cross-validation fold. */
struct FoldResult
{
    std::string label;          ///< group name or fold index
    double meanRelativeError = 0.0;  ///< percent
    double mse = 0.0;
    std::size_t testPoints = 0;
};

/** Aggregate cross-validation outcome. */
struct CrossValidationResult
{
    std::vector<FoldResult> folds;

    /** Unweighted mean of the folds' relative errors (percent). */
    double meanRelativeError() const;
};

/**
 * A regressor factory + fit + predict bundle, so the CV drivers stay
 * model-agnostic. fitPredict must train on the first dataset and return
 * predictions for the second.
 *
 * The CV drivers evaluate folds concurrently on the thread pool, so
 * fit_predict must be safe to call from several threads at once — in
 * practice: construct a fresh model inside the callback instead of
 * reusing one captured by reference.
 */
using FitPredictFn =
    std::function<std::vector<double>(const Dataset& train,
                                      const Dataset& test)>;

/**
 * Leave-one-group-out CV: for every distinct group, hold out all of its
 * rows, train on the rest, evaluate on the held-out rows.
 */
CrossValidationResult leaveOneGroupOut(const Dataset& data,
                                       const FitPredictFn& fit_predict);

}  // namespace mapp::ml

#endif  // MAPP_ML_CROSS_VALIDATION_H
