/**
 * @file
 * Regression error metrics. relativeErrorPercent implements the paper's
 * metric: |true - predicted| / true x 100 (Section VI).
 *
 * Every metric rejects NaN/Inf inputs with a FatalError: a non-finite
 * truth or prediction means a corrupt value escaped the validated input
 * boundaries, and averaging it in would silently fabricate a score.
 */

#ifndef MAPP_ML_METRICS_H
#define MAPP_ML_METRICS_H

#include <span>

namespace mapp::ml {

/** Mean squared error (the training loss, Equation 1). */
double meanSquaredError(std::span<const double> truth,
                        std::span<const double> predicted);

/** The paper's relative error for one prediction, in percent. */
double relativeErrorPercent(double truth, double predicted);

/** Mean of the per-point relative errors, in percent. */
double meanRelativeErrorPercent(std::span<const double> truth,
                                std::span<const double> predicted);

}  // namespace mapp::ml

#endif  // MAPP_ML_METRICS_H
