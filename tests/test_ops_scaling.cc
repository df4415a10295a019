/** @file Property tests for the instrumentation itself: recorded
 * instruction counts must scale with the actual work performed (image
 * area, vector length, batch size), since the simulators trust them. */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "profiler/op_profiler.h"
#include "vision/ops.h"
#include "vision/registry.h"

namespace {

using namespace mapp;
using namespace mapp::vision;

Image
noiseImage(int size, std::uint64_t seed)
{
    Rng rng(seed);
    Image img(size, size);
    for (auto& v : img.data())
        v = static_cast<float>(rng.uniform(0.0, 255.0));
    return img;
}

/** Total instructions recorded while running fn. */
template <typename Fn>
InstCount
instsOf(Fn&& fn)
{
    profiler::ProfilerSession session("T", 1);
    fn();
    return session.take().totalInstructions();
}

class AreaScaling : public ::testing::TestWithParam<int>
{
};

TEST_P(AreaScaling, ConvolutionCountsScaleWithArea)
{
    const int size = GetParam();
    const std::vector<float> kernel(9, 1.0f / 9.0f);
    const auto base = instsOf(
        [&] { ops::convolve2d(noiseImage(32, 1), kernel, 3); });
    const auto scaled = instsOf(
        [&] { ops::convolve2d(noiseImage(size, 1), kernel, 3); });
    const double expected = static_cast<double>(size * size) / (32.0 * 32.0);
    const double actual =
        static_cast<double>(scaled) / static_cast<double>(base);
    EXPECT_NEAR(actual, expected, expected * 0.15);
}

TEST_P(AreaScaling, SobelCountsScaleWithArea)
{
    const int size = GetParam();
    Image gx, gy;
    const auto base =
        instsOf([&] { ops::sobel(noiseImage(32, 2), gx, gy); });
    const auto scaled =
        instsOf([&] { ops::sobel(noiseImage(size, 2), gx, gy); });
    const double expected = static_cast<double>(size * size) / (32.0 * 32.0);
    EXPECT_NEAR(static_cast<double>(scaled) / static_cast<double>(base),
                expected, expected * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AreaScaling,
                         ::testing::Values(48, 64, 96, 128));

TEST(OpScaling, DotCountsScaleWithLength)
{
    std::vector<float> a(256, 1.0f);
    std::vector<float> b(256, 2.0f);
    const auto small = instsOf([&] { ops::dot(a, b); });
    std::vector<float> a4(1024, 1.0f);
    std::vector<float> b4(1024, 2.0f);
    const auto large = instsOf([&] { ops::dot(a4, b4); });
    EXPECT_NEAR(static_cast<double>(large) / static_cast<double>(small),
                4.0, 0.5);
}

TEST(OpScaling, DistanceRowsCountsScaleWithPairs)
{
    const std::vector<Descriptor> a8(8, Descriptor(16, 1.0f));
    const std::vector<Descriptor> a16(16, Descriptor(16, 1.0f));
    const auto ignore = [](std::size_t, std::span<const double>) {};
    const auto small = instsOf([&] { ops::distanceRows(a8, a8, ignore); });
    const auto large =
        instsOf([&] { ops::distanceRows(a16, a16, ignore); });
    EXPECT_NEAR(static_cast<double>(large) / static_cast<double>(small),
                4.0, 0.6);
}

TEST(OpScaling, TrafficConsistentWithCounts)
{
    // Bytes read must track mem_rd counts for streaming ops.
    profiler::ProfilerSession session("T", 1);
    const std::vector<float> kernel(9, 1.0f / 9.0f);
    ops::convolve2d(noiseImage(64, 3), kernel, 3);
    const auto trace = session.take();
    const auto& p = trace.phases()[0];
    EXPECT_EQ(p.bytesRead,
              p.mix.count(isa::InstClass::MemRead) * sizeof(float));
}

TEST(OpScaling, BatchScalingMatchesSampledTraces)
{
    // For a per-image benchmark, the scaled full-batch trace must equal
    // (batch / sample) x the sampled trace, phase by phase.
    const auto t80 = profileWorkload(BenchmarkId::Hog, 80);
    const auto t160 = profileWorkload(BenchmarkId::Hog, 160);
    // Instructions roughly double (different image content allows a
    // small deviation).
    const double ratio =
        static_cast<double>(t160.totalInstructions()) /
        static_cast<double>(t80.totalInstructions());
    EXPECT_NEAR(ratio, 2.0, 0.2);
}

}  // namespace
