/** @file Unit tests for ml::Dataset and the error metrics. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "ml/dataset.h"
#include "ml/metrics.h"

namespace {

using namespace mapp;
using namespace mapp::ml;

Dataset
smallDataset()
{
    Dataset d({"x", "y"});
    d.addRow({1.0, 10.0}, 100.0, "A");
    d.addRow({2.0, 20.0}, 200.0, "A");
    d.addRow({3.0, 30.0}, 300.0, "B");
    d.addRow({4.0, 40.0}, 400.0, "C");
    return d;
}

TEST(Dataset, BasicAccessors)
{
    const auto d = smallDataset();
    EXPECT_EQ(d.size(), 4u);
    EXPECT_EQ(d.numFeatures(), 2u);
    EXPECT_DOUBLE_EQ(d.row(1)[1], 20.0);
    EXPECT_DOUBLE_EQ(d.target(2), 300.0);
    EXPECT_EQ(d.group(3), "C");
}

TEST(Dataset, AddRowValidatesWidth)
{
    Dataset d({"x"});
    EXPECT_THROW(d.addRow({1.0, 2.0}, 0.0), FatalError);
}

TEST(Dataset, FeatureIndexAndColumn)
{
    const auto d = smallDataset();
    EXPECT_EQ(d.featureIndex("y"), 1);
    EXPECT_EQ(d.featureIndex("nope"), -1);
    EXPECT_EQ(d.column(0), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(Dataset, DistinctGroupsInOrder)
{
    const auto d = smallDataset();
    EXPECT_EQ(d.distinctGroups(),
              (std::vector<std::string>{"A", "B", "C"}));
}

TEST(Dataset, SelectFeaturesReordersColumns)
{
    const auto d = smallDataset();
    const auto sel = d.selectFeatures({"y", "x"});
    EXPECT_EQ(sel.numFeatures(), 2u);
    EXPECT_DOUBLE_EQ(sel.row(0)[0], 10.0);
    EXPECT_DOUBLE_EQ(sel.row(0)[1], 1.0);
    EXPECT_DOUBLE_EQ(sel.target(0), 100.0);
}

TEST(Dataset, SelectUnknownFeatureIsFatal)
{
    const auto d = smallDataset();
    EXPECT_THROW(d.selectFeatures({"zz"}), FatalError);
}

TEST(Dataset, SubsetPicksRows)
{
    const auto d = smallDataset();
    const auto s = d.subset({3, 0});
    EXPECT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s.target(0), 400.0);
    EXPECT_DOUBLE_EQ(s.target(1), 100.0);
}

TEST(Dataset, SubsetOutOfRangeIsFatal)
{
    const auto d = smallDataset();
    EXPECT_THROW(d.subset({99}), FatalError);
}

TEST(Dataset, TrainTestSplitPartitions)
{
    const auto d = smallDataset();
    Rng rng(1);
    auto [train, test] = d.trainTestSplit(0.25, rng);
    EXPECT_EQ(test.size(), 1u);
    EXPECT_EQ(train.size(), 3u);
    // Targets are disjoint and cover the original set.
    double total = 0.0;
    for (std::size_t i = 0; i < train.size(); ++i)
        total += train.target(i);
    for (std::size_t i = 0; i < test.size(); ++i)
        total += test.target(i);
    EXPECT_DOUBLE_EQ(total, 1000.0);
}

TEST(Dataset, SplitOutGroup)
{
    const auto d = smallDataset();
    auto [train, test] = d.splitOutGroup("A");
    EXPECT_EQ(test.size(), 2u);
    EXPECT_EQ(train.size(), 2u);
    for (std::size_t i = 0; i < test.size(); ++i)
        EXPECT_EQ(test.group(i), "A");
}

TEST(Metrics, MseKnownValue)
{
    const std::vector<double> truth{1.0, 2.0};
    const std::vector<double> pred{2.0, 4.0};
    EXPECT_DOUBLE_EQ(meanSquaredError(truth, pred), 2.5);
}

TEST(Metrics, RelativeErrorPaperFormula)
{
    EXPECT_DOUBLE_EQ(relativeErrorPercent(10.0, 9.0), 10.0);
    EXPECT_DOUBLE_EQ(relativeErrorPercent(10.0, 12.0), 20.0);
    // Symmetric under sign of the deviation, scaled by the truth.
    EXPECT_DOUBLE_EQ(relativeErrorPercent(2.0, 1.0), 50.0);
}

TEST(Metrics, MeanRelativeError)
{
    const std::vector<double> truth{10.0, 20.0};
    const std::vector<double> pred{9.0, 24.0};
    EXPECT_DOUBLE_EQ(meanRelativeErrorPercent(truth, pred), 15.0);
}

TEST(Metrics, EmptyInputsSafe)
{
    EXPECT_DOUBLE_EQ(meanSquaredError({}, {}), 0.0);
    EXPECT_DOUBLE_EQ(meanRelativeErrorPercent({}, {}), 0.0);
}

}  // namespace
