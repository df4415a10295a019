#include "ml/cross_validation.h"

#include "common/log.h"
#include "common/parallel.h"

namespace mapp::ml {

double
CrossValidationResult::meanRelativeError() const
{
    if (folds.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto& fold : folds)
        acc += fold.meanRelativeError;
    return acc / static_cast<double>(folds.size());
}

namespace {

FoldResult
evaluateFold(const std::string& label, const Dataset& train,
             const Dataset& test, const FitPredictFn& fit_predict)
{
    FoldResult fold;
    fold.label = label;
    fold.testPoints = test.size();
    if (train.empty() || test.empty())
        return fold;
    const auto predictions = fit_predict(train, test);
    fold.meanRelativeError =
        meanRelativeErrorPercent(test.targets(), predictions);
    fold.mse = meanSquaredError(test.targets(), predictions);
    return fold;
}

}  // namespace

CrossValidationResult
leaveOneGroupOut(const Dataset& data, const FitPredictFn& fit_predict)
{
    // Folds are independent (each trains a fresh model on its own
    // split), so they run concurrently; fold i writes only slot i and
    // the result order matches the serial loop.
    const auto groups = data.distinctGroups();
    CrossValidationResult result;
    result.folds.resize(groups.size());
    parallel::parallelFor(groups.size(), [&](std::size_t i) {
        auto [train, test] = data.splitOutGroup(groups[i]);
        result.folds[i] = evaluateFold(groups[i], train, test,
                                       fit_predict);
    });
    return result;
}

}  // namespace mapp::ml
