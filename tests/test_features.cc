/** @file Unit tests for the feature schema, schemes and normalization. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "common/rng.h"
#include "predictor/features.h"
#include "predictor/schemes.h"

namespace {

using namespace mapp;
using namespace mapp::predictor;

TEST(Features, BaseNamesCoverTableIV)
{
    const auto names = baseFeatureNames();
    ASSERT_EQ(names.size(), 11u);  // 2 times + 9 mix classes
    EXPECT_EQ(names[0], "cpu_time");
    EXPECT_EQ(names[1], "gpu_time");
    EXPECT_NE(std::find(names.begin(), names.end(), "sse"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "mem_rd"),
              names.end());
}

TEST(Features, BagNamesReplicateSlotsPlusFairness)
{
    const auto names = bagFeatureNames();
    EXPECT_EQ(names.size(), 2u * 11u + 1u);
    EXPECT_EQ(names.size(), kBagFeatureCount);
    EXPECT_EQ(baseFeatureNames().size(), kBaseFeatureCount);
    EXPECT_EQ(names.front(), "a0_cpu_time");
    EXPECT_EQ(names.back(), "fairness");
    EXPECT_NE(std::find(names.begin(), names.end(), "a1_gpu_time"),
              names.end());
}

TEST(Features, BaseNameOfStripsSlot)
{
    EXPECT_EQ(baseNameOf("a0_cpu_time"), "cpu_time");
    EXPECT_EQ(baseNameOf("a1_sse"), "sse");
    EXPECT_EQ(baseNameOf("fairness"), "fairness");
}

TEST(Features, BuildBagVectorLayout)
{
    AppFeatures a;
    a.cpuTime = 1.0;
    a.gpuTime = 2.0;
    a.mixPercent[static_cast<std::size_t>(isa::InstClass::IntAlu)] = 40.0;
    AppFeatures b;
    b.cpuTime = 3.0;
    b.gpuTime = 4.0;
    const auto v = buildBagVector(a, b, 0.7);
    const auto names = bagFeatureNames();
    ASSERT_EQ(v.size(), names.size());
    EXPECT_DOUBLE_EQ(v[0], 1.0);   // a0_cpu_time
    EXPECT_DOUBLE_EQ(v[1], 2.0);   // a0_gpu_time
    EXPECT_DOUBLE_EQ(v[11], 3.0);  // a1_cpu_time
    EXPECT_DOUBLE_EQ(v.back(), 0.7);
    // arith percent lands at the right slot.
    const auto it = std::find(names.begin(), names.end(), "a0_arith");
    ASSERT_NE(it, names.end());
    EXPECT_DOUBLE_EQ(
        v[static_cast<std::size_t>(it - names.begin())], 40.0);
}

TEST(Normalizer, ScaleIsCpuTimeRange)
{
    ml::Dataset d(bagFeatureNames());
    AppFeatures a;
    a.cpuTime = 1.0;
    AppFeatures b;
    b.cpuTime = 5.0;
    d.addRow(buildBagVector(a, b, 1.0), 10.0, "g");
    AppFeatures c;
    c.cpuTime = 3.0;
    d.addRow(buildBagVector(c, c, 1.0), 20.0, "g");

    RangeNormalizer norm;
    norm.fit(d);
    EXPECT_DOUBLE_EQ(norm.scale(), 4.0);  // max 5 - min 1 across columns
}

TEST(Normalizer, AppliesOnlyToTimeFeaturesAndTarget)
{
    ml::Dataset d(bagFeatureNames());
    AppFeatures a;
    a.cpuTime = 2.0;
    a.gpuTime = 8.0;
    a.mixPercent[0] = 50.0;
    AppFeatures b;
    b.cpuTime = 6.0;
    d.addRow(buildBagVector(a, b, 0.9), 12.0, "g");

    RangeNormalizer norm;
    norm.fit(d);
    ASSERT_DOUBLE_EQ(norm.scale(), 4.0);
    const auto out = norm.apply(d);
    EXPECT_DOUBLE_EQ(out.row(0)[0], 0.5);   // cpu_time scaled
    EXPECT_DOUBLE_EQ(out.row(0)[1], 2.0);   // gpu_time scaled
    EXPECT_DOUBLE_EQ(out.row(0)[2], 50.0);  // mix untouched
    EXPECT_DOUBLE_EQ(out.row(0).back(), 0.9);  // fairness untouched
    EXPECT_DOUBLE_EQ(out.target(0), 3.0);   // target scaled
    EXPECT_DOUBLE_EQ(norm.denormalizeTarget(out.target(0)), 12.0);
}

TEST(Normalizer, BatchInPlaceMatchesPerElementReference)
{
    Rng rng(5150);
    const auto names = bagFeatureNames();
    const auto mask = RangeNormalizer::timeFeatureMask(names);
    ml::Dataset train(names);
    for (int r = 0; r < 12; ++r) {
        std::vector<double> row(names.size());
        for (double& v : row)
            v = rng.uniform(0.1, 40.0);
        train.addRow(std::move(row), rng.uniform(0.1, 40.0), "g");
    }
    RangeNormalizer norm;
    norm.fit(train);
    ASSERT_NE(1.0, norm.scale());

    const std::size_t rows = 37;
    std::vector<double> flat(rows * names.size());
    for (double& v : flat)
        v = rng.uniform(-50.0, 50.0);

    // The masked per-element divide, compared bit for bit.
    auto reference = flat;
    for (std::size_t base = 0; base < reference.size();
         base += names.size())
        for (std::size_t f = 0; f < names.size(); ++f)
            if (mask[f])
                reference[base + f] /= norm.scale();
    auto out = flat;
    norm.applyBatchInPlace(out, mask);
    ASSERT_EQ(0, std::memcmp(reference.data(), out.data(),
                             out.size() * sizeof(double)));

    // denormalizeInPlace is a per-element multiply.
    auto denorm = out;
    norm.denormalizeInPlace(denorm);
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i] * norm.scale(), denorm[i]) << "element " << i;
}

TEST(Normalizer, DegenerateRangeFallsBackToIdentity)
{
    ml::Dataset d(bagFeatureNames());
    AppFeatures a;
    a.cpuTime = 2.0;
    d.addRow(buildBagVector(a, a, 1.0), 5.0, "g");
    RangeNormalizer norm;
    norm.fit(d);
    EXPECT_DOUBLE_EQ(norm.scale(), 1.0);
}

TEST(Schemes, InsmixExpandsBothSlots)
{
    const auto names = insmixScheme().featureNames();
    EXPECT_EQ(names.size(), 18u);  // 9 classes x 2 slots, no fairness
    EXPECT_EQ(std::count_if(names.begin(), names.end(),
                            [](const std::string& n) {
                                return n.find("cpu_time") !=
                                       std::string::npos;
                            }),
              0);
}

TEST(Schemes, FullSchemeIsWholeVector)
{
    const auto names = fullScheme().featureNames();
    EXPECT_EQ(names.size(), bagFeatureNames().size());
}

TEST(Schemes, MemOnlyAndComputeOnly)
{
    FeatureScheme mem;
    mem.memOnly = true;
    EXPECT_EQ(mem.featureNames().size(), 4u);  // mem_rd/mem_wr x 2

    FeatureScheme compute;
    compute.computeOnly = true;
    const auto names = compute.featureNames();
    EXPECT_EQ(names.size(), 4u);  // arith/sse x 2
    EXPECT_EQ(names[0], "a0_arith");
}

TEST(Schemes, AddComponentComposes)
{
    FeatureScheme s;
    s.memOnly = true;
    const auto with = s.with("cpu").with("fairness");
    const auto names = with.featureNames();
    EXPECT_EQ(names.size(), 4u + 2u + 1u);
    EXPECT_EQ(names.back(), "fairness");
}

TEST(Schemes, AddUnknownComponentFatal)
{
    EXPECT_THROW(addComponent({}, "bogus"), FatalError);
}

TEST(Schemes, Figure5LineupMatchesPaper)
{
    const auto schemes = figure5Schemes();
    ASSERT_EQ(schemes.size(), 4u);
    EXPECT_FALSE(schemes[0].cpuTime);   // insmix only
    EXPECT_TRUE(schemes[1].cpuTime);    // + CPU time
    EXPECT_TRUE(schemes[2].fairness);   // + fairness
    EXPECT_TRUE(schemes[3].gpuTime);    // full
    // Feature sets grow monotonically along the lineup.
    for (std::size_t i = 1; i < schemes.size(); ++i)
        EXPECT_GT(schemes[i].featureNames().size(),
                  schemes[i - 1].featureNames().size());
}

TEST(Schemes, SensitivityBasesAreDistinct)
{
    const auto bases = sensitivityBaseSchemes();
    EXPECT_GE(bases.size(), 5u);
    for (std::size_t i = 0; i < bases.size(); ++i)
        for (std::size_t j = i + 1; j < bases.size(); ++j)
            EXPECT_NE(bases[i].featureNames(), bases[j].featureNames());
}

}  // namespace
