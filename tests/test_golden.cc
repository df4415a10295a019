/** @file Behaviour fingerprint (`ctest -L golden`): pins, bit for bit,
 * the Table-IV campaign dataset, the fitted default tree, its 91
 * predictions and the two headline LOOCV means. A refactor that claims
 * to change no behaviour proves it by leaving every pin green. The
 * suite is registered at MAPP_THREADS=1 and =4 because every figure
 * must be identical at any lane count. A change that moves behaviour
 * on purpose updates the pin here and says why in EXPERIMENTS.md. */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cache/hash.h"
#include "ml/dataset_binary.h"
#include "ml/model_binary.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"
#include "predictor/schemes.h"
#include "vision/registry.h"

namespace {

using namespace mapp;

// ml::hashDataset of toDataset(collectAll(campaign91())).
constexpr std::uint64_t kCampaignHash = 0xbd017af8c777bf72ull;
// Hasher digest of treeToBinary(default-params model's tree).
constexpr std::uint64_t kTreeBinaryHash = 0xe55a41e2fbe03317ull;
// Hasher digest of the 91 predictDataset outputs (seconds).
constexpr std::uint64_t kPredictionsHash = 0x023d091a8b2c14f5ull;
// Bit patterns of the leave-one-benchmark-out mean relative errors.
constexpr std::uint64_t kLoocvFullBits = 0x403276645261d52full;    // 18.4625 %
constexpr std::uint64_t kLoocvInsmixBits = 0x4075f5b281112d89ull;  // 351.356 %

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The campaign dataset, collected once per process. */
const ml::Dataset&
campaign()
{
    static const ml::Dataset data = [] {
        predictor::DataCollector collector;
        return predictor::toDataset(
            collector.collectAll(predictor::DataCollector::campaign91()));
    }();
    return data;
}

/** The default-params predictor fitted on the whole campaign. */
const predictor::MultiAppPredictor&
model()
{
    static const predictor::MultiAppPredictor fitted = [] {
        predictor::MultiAppPredictor m;
        m.train(campaign());
        return m;
    }();
    return fitted;
}

double
loocvMean(const predictor::PredictorParams& params)
{
    std::vector<std::string> names;
    for (auto id : vision::kAllBenchmarks)
        names.push_back(vision::benchmarkName(id));
    return predictor::MultiAppPredictor::looBenchmarkCv(campaign(), params,
                                                        names)
        .meanRelativeError();
}

TEST(Golden, CampaignDatasetHash)
{
    ASSERT_EQ(91u, campaign().size());
    cache::Hasher h;
    ml::hashDataset(h, campaign());
    EXPECT_EQ(hex(kCampaignHash), hex(h.digest()));
}

TEST(Golden, DefaultTreeModelBinary)
{
    const std::string blob = ml::treeToBinary(model().tree());
    cache::Hasher h;
    h.add(std::string_view(blob));
    EXPECT_EQ(hex(kTreeBinaryHash), hex(h.digest()));
}

TEST(Golden, PredictDatasetOutputs)
{
    const auto predictions = model().predictDataset(campaign());
    ASSERT_EQ(91u, predictions.size());
    cache::Hasher h;
    h.add(std::span<const double>(predictions));
    EXPECT_EQ(hex(kPredictionsHash), hex(h.digest()));
}

TEST(Golden, LoocvFullMean)
{
    const double mean = loocvMean(predictor::PredictorParams{});
    EXPECT_EQ(hex(kLoocvFullBits), hex(std::bit_cast<std::uint64_t>(mean)))
        << "mean " << mean;
}

TEST(Golden, LoocvInsmixMean)
{
    predictor::PredictorParams insmix;
    insmix.scheme = predictor::insmixScheme();
    const double mean = loocvMean(insmix);
    EXPECT_EQ(hex(kLoocvInsmixBits),
              hex(std::bit_cast<std::uint64_t>(mean)))
        << "mean " << mean;
}

}  // namespace
