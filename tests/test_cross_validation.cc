/** @file Tests for the cross-validation drivers. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"

namespace {

using namespace mapp;
using namespace mapp::ml;

Dataset
groupedData()
{
    Dataset d({"x"});
    for (int g = 0; g < 4; ++g)
        for (int i = 0; i < 5; ++i)
            d.addRow({static_cast<double>(g * 5 + i)},
                     static_cast<double>(g), "G" + std::to_string(g));
    return d;
}

FitPredictFn
treeFitPredict()
{
    return [](const Dataset& train, const Dataset& test) {
        DecisionTreeRegressor tree;
        tree.fit(train);
        return tree.predict(test);
    };
}

TEST(LeaveOneGroupOut, OneFoldPerGroup)
{
    const auto cv = leaveOneGroupOut(groupedData(), treeFitPredict());
    ASSERT_EQ(cv.folds.size(), 4u);
    for (const auto& fold : cv.folds)
        EXPECT_EQ(fold.testPoints, 5u);
}

TEST(LeaveOneGroupOut, FoldLabelsAreGroups)
{
    const auto cv = leaveOneGroupOut(groupedData(), treeFitPredict());
    EXPECT_EQ(cv.folds[0].label, "G0");
    EXPECT_EQ(cv.folds[3].label, "G3");
}

TEST(LeaveOneGroupOut, HeldOutGroupIsUnseen)
{
    // The target equals the group id, so every held-out fold must have a
    // non-zero error (the model never saw that target value) except
    // where extrapolation happens to coincide.
    bool sawError = false;
    const auto cv = leaveOneGroupOut(groupedData(), treeFitPredict());
    for (const auto& fold : cv.folds)
        if (fold.mse > 0.0)
            sawError = true;
    EXPECT_TRUE(sawError);
}

TEST(LeaveOneGroupOut, MeanAggregatesFolds)
{
    CrossValidationResult r;
    r.folds.push_back({"a", 10.0, 0.0, 1});
    r.folds.push_back({"b", 30.0, 0.0, 1});
    EXPECT_DOUBLE_EQ(r.meanRelativeError(), 20.0);
}

TEST(CrossValidation, EmptyResultMeanIsZero)
{
    CrossValidationResult r;
    EXPECT_DOUBLE_EQ(r.meanRelativeError(), 0.0);
}

}  // namespace
