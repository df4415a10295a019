/** @file Unit tests for the instrumented vision primitives: both their
 * functional results and the phases they record, plus a seeded fuzz
 * that holds every rewritten primitive bit-identical to its pre-rewrite
 * loop (tests/vision_reference.h). */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"
#include "isa/trace_binary.h"
#include "profiler/op_profiler.h"
#include "vision/hog.h"
#include "vision/ops.h"
#include "vision/registry.h"
#include "vision_reference.h"

namespace {

using namespace mapp;
using namespace mapp::vision;

/** Run fn inside a profiler session and return the recorded trace. */
template <typename Fn>
isa::WorkloadTrace
traced(Fn&& fn)
{
    profiler::ProfilerSession session("T", 1);
    fn();
    return session.take();
}

Image
randomImage(int w, int h, std::uint64_t seed)
{
    Rng rng(seed);
    Image img(w, h);
    for (auto& v : img.data())
        v = static_cast<float>(rng.uniform(0.0, 255.0));
    return img;
}

TEST(Ops, ConvolveIdentityKernel)
{
    const Image img = randomImage(12, 12, 1);
    const std::vector<float> kernel{0, 0, 0, 0, 1, 0, 0, 0, 0};
    const Image out = ops::convolve2d(img, kernel, 3);
    for (int y = 0; y < 12; ++y)
        for (int x = 0; x < 12; ++x)
            EXPECT_NEAR(out.at(x, y), img.at(x, y), 1e-4);
}

TEST(Ops, ConvolveRecordsPhaseWithCorrectTapCount)
{
    const Image img = randomImage(8, 8, 2);
    const std::vector<float> kernel(9, 1.0f / 9.0f);
    const auto trace = traced([&] { ops::convolve2d(img, kernel, 3); });
    ASSERT_EQ(trace.size(), 1u);
    const auto& p = trace.phases()[0];
    EXPECT_EQ(p.name, "convolve2d");
    EXPECT_EQ(p.mix.count(isa::InstClass::MemRead), 64u * 9u);
    EXPECT_EQ(p.mix.count(isa::InstClass::MemWrite), 64u);
    EXPECT_EQ(p.workItems, 64u);
}

TEST(Ops, GaussianBlurPreservesConstantImage)
{
    const Image img(16, 16, 42.0f);
    const Image out = ops::gaussianBlur(img, 1.2f);
    for (float v : out.data())
        EXPECT_NEAR(v, 42.0f, 1e-3);
}

TEST(Ops, GaussianBlurSmooths)
{
    Image img(17, 17, 0.0f);
    img.at(8, 8) = 100.0f;  // impulse
    const Image out = ops::gaussianBlur(img, 1.5f);
    EXPECT_LT(out.at(8, 8), 100.0f);
    EXPECT_GT(out.at(8, 8), out.at(8, 4));  // peak stays central
}

TEST(Ops, SobelDetectsVerticalEdge)
{
    Image img(10, 10, 0.0f);
    for (int y = 0; y < 10; ++y)
        for (int x = 5; x < 10; ++x)
            img.at(x, y) = 100.0f;
    Image gx, gy;
    ops::sobel(img, gx, gy);
    EXPECT_GT(std::abs(gx.at(4, 5)), 100.0f);
    EXPECT_NEAR(gy.at(4, 5), 0.0f, 1e-3);
    EXPECT_NEAR(gx.at(1, 5), 0.0f, 1e-3);
}

TEST(Ops, GradientPolarMagnitudeAndAngle)
{
    Image gx(3, 3, 3.0f);
    Image gy(3, 3, 4.0f);
    Image mag, orient;
    ops::gradientPolar(gx, gy, mag, orient);
    EXPECT_NEAR(mag.at(1, 1), 5.0f, 1e-4);
    EXPECT_NEAR(orient.at(1, 1), std::atan2(4.0, 3.0), 1e-4);
}

TEST(Ops, Downsample2xAverages)
{
    Image img(4, 4, 0.0f);
    img.at(0, 0) = 4.0f;
    img.at(1, 0) = 8.0f;
    img.at(0, 1) = 12.0f;
    img.at(1, 1) = 16.0f;
    const Image out = ops::downsample2x(img);
    EXPECT_EQ(out.width(), 2);
    EXPECT_NEAR(out.at(0, 0), 10.0f, 1e-4);
}

TEST(Ops, ResizeBilinearPreservesConstant)
{
    const Image img(9, 9, 7.0f);
    const Image out = ops::resizeBilinear(img, 5, 13);
    EXPECT_EQ(out.width(), 5);
    EXPECT_EQ(out.height(), 13);
    for (float v : out.data())
        EXPECT_NEAR(v, 7.0f, 1e-4);
}

TEST(Ops, IntegralMatchesDirectConstruction)
{
    const Image img = randomImage(7, 5, 3);
    const IntegralImage a = ops::integral(img);
    const IntegralImage b(img);
    EXPECT_NEAR(a.boxSum(1, 1, 5, 3), b.boxSum(1, 1, 5, 3), 1e-9);
}

TEST(Ops, HistogramCountsAndClamps)
{
    const std::vector<float> values{0.5f, 1.5f, 1.6f, 9.9f, -5.0f, 42.0f};
    const auto h = ops::histogram(values, 10, 0.0f, 10.0f);
    ASSERT_EQ(h.size(), 10u);
    EXPECT_DOUBLE_EQ(h[0], 2.0);  // 0.5 and clamped -5.0
    EXPECT_DOUBLE_EQ(h[1], 2.0);
    EXPECT_DOUBLE_EQ(h[9], 2.0);  // 9.9 and clamped 42
}

TEST(Ops, NonMaxSuppressFindsIsolatedPeak)
{
    Image resp(9, 9, 0.0f);
    resp.at(4, 4) = 10.0f;
    resp.at(1, 1) = 5.0f;
    const auto maxima = ops::nonMaxSuppress(resp, 1.0f, 2);
    ASSERT_EQ(maxima.size(), 2u);
}

TEST(Ops, NonMaxSuppressRejectsNeighbors)
{
    Image resp(9, 9, 0.0f);
    resp.at(4, 4) = 10.0f;
    resp.at(5, 4) = 9.0f;  // suppressed by the neighbor
    const auto maxima = ops::nonMaxSuppress(resp, 1.0f, 2);
    ASSERT_EQ(maxima.size(), 1u);
    EXPECT_EQ(maxima[0].first, 4);
}

TEST(Ops, DotMatchesManualComputation)
{
    const std::vector<float> a{1.0f, 2.0f, 3.0f};
    const std::vector<float> b{4.0f, 5.0f, 6.0f};
    EXPECT_DOUBLE_EQ(ops::dot(a, b), 32.0);
}

/** The rows ops::distanceRows visits, assembled into the row-major
 * a.size() x b.size() matrix; checks each row arrives once, in order,
 * with one distance per element of @p b. */
std::vector<double>
assembledDistances(const std::vector<Descriptor>& a,
                   const std::vector<Descriptor>& b)
{
    std::vector<double> out;
    std::size_t rows = 0;
    ops::distanceRows(a, b, [&](std::size_t i, std::span<const double> row) {
        EXPECT_EQ(i, rows++);
        EXPECT_EQ(row.size(), b.size());
        out.insert(out.end(), row.begin(), row.end());
    });
    EXPECT_EQ(rows, a.size());
    return out;
}

TEST(Ops, DistanceRowsValues)
{
    const std::vector<Descriptor> a{{0.0f, 0.0f}, {1.0f, 1.0f}};
    const std::vector<Descriptor> b{{0.0f, 1.0f}};
    const auto d = assembledDistances(a, b);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_DOUBLE_EQ(d[0], 1.0);
    EXPECT_DOUBLE_EQ(d[1], 1.0);
}

TEST(Ops, TopKSmallestOrdersResults)
{
    const std::vector<double> v{5.0, 1.0, 3.0, 0.5, 4.0};
    const auto idx = ops::topKSmallest(v, 3);
    ASSERT_EQ(idx.size(), 3u);
    EXPECT_EQ(idx[0], 3);
    EXPECT_EQ(idx[1], 1);
    EXPECT_EQ(idx[2], 2);
}

TEST(Ops, TopKClampsToSize)
{
    const std::vector<double> v{2.0, 1.0};
    EXPECT_EQ(ops::topKSmallest(v, 10).size(), 2u);
}

TEST(Ops, HammingDistanceCountsBits)
{
    const BinaryDescriptor a{0b1010, 0xFF};
    const BinaryDescriptor b{0b0110, 0x00};
    EXPECT_EQ(ops::hammingDistance(a, b), 2 + 8);
}

TEST(Ops, CopyImageIsExactAndStaged)
{
    const Image img = randomImage(6, 6, 4);
    const auto trace = traced([&] {
        const Image out = ops::copyImage(img);
        EXPECT_EQ(out.data(), img.data());
    });
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_TRUE(trace.phases()[0].hostStaged);
    EXPECT_GT(trace.phases()[0].mix.count(isa::InstClass::String), 0u);
}

TEST(Ops, PhasesValidateThemselves)
{
    // Every op must record a well-formed phase; run a sampler of ops
    // under a session and rely on record()'s validation.
    const Image img = randomImage(16, 16, 5);
    const auto trace = traced([&] {
        Image gx, gy, mag, orient;
        ops::sobel(img, gx, gy);
        ops::gradientPolar(gx, gy, mag, orient);
        ops::integral(img);
        ops::downsample2x(img);
        ops::gaussianBlur(img, 1.0f);
    });
    EXPECT_EQ(trace.size(), 5u);
    for (const auto& p : trace.phases())
        EXPECT_NO_THROW(p.validate());
}

// ---------------------------------------------------------------------------
// Bit identity against the pre-rewrite loops

/** Image sizes of the fuzz: degenerate, thin, smaller than a blur
 * kernel's radius (no clamp-free interior at all), and campaign-like. */
constexpr std::pair<int, int> kSizes[] = {
    {1, 1}, {2, 3}, {3, 2}, {5, 40}, {40, 5}, {7, 7},
    {24, 24}, {17, 31}, {48, 48}, {96, 64},
};

/** Random pixels in [-128, 255): negative values included. */
Image
signedImage(int w, int h, std::uint64_t seed)
{
    Rng rng(seed);
    Image img(w, h);
    for (auto& v : img.data())
        v = static_cast<float>(rng.uniform(-128.0, 255.0));
    return img;
}

template <typename T>
::testing::AssertionResult
sameBits(const std::vector<T>& a, const std::vector<T>& b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << a.size() << " vs " << b.size() << " values";
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0)
            return ::testing::AssertionFailure()
                   << "value " << i << ": " << a[i] << " vs " << b[i];
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameBits(const Image& a, const Image& b)
{
    if (a.width() != b.width() || a.height() != b.height())
        return ::testing::AssertionFailure()
               << a.width() << "x" << a.height() << " vs " << b.width()
               << "x" << b.height();
    return sameBits(a.data(), b.data());
}

/** sameBits as a callable for expectMatchesOracle. */
const auto kSameBits = [](const auto& a, const auto& b) {
    return sameBits(a, b);
};

/** Run @p fn under a profiler session; @return the message of the
 * exception it threw (a phase with no work fails validation), or "". */
template <typename Fn>
std::string
tracedOrError(Fn&& fn, isa::WorkloadTrace& trace)
{
    try {
        trace = traced(fn);
    } catch (const std::exception& e) {
        return e.what();
    }
    return "";
}

/** Run the primitive and its oracle under profiler sessions; require
 * bit-identical outputs (via @p same) and byte-identical traces, or the
 * same error from both. */
template <typename Fast, typename Oracle, typename Same>
void
expectMatchesOracle(Fast&& fast, Oracle&& oracle, Same&& same)
{
    decltype(fast()) got;
    decltype(oracle()) want;
    isa::WorkloadTrace gotTrace, wantTrace;
    const std::string gotError =
        tracedOrError([&] { got = fast(); }, gotTrace);
    const std::string wantError =
        tracedOrError([&] { want = oracle(); }, wantTrace);
    ASSERT_EQ(gotError, wantError);
    if (!gotError.empty())
        return;
    EXPECT_TRUE(same(got, want));
    EXPECT_EQ(isa::traceToBinary(gotTrace), isa::traceToBinary(wantTrace));
}

TEST(OpsOracle, GaussianBlurOverTheSiftSigmaLadder)
{
    std::vector<float> sigmas{0.3f, 1.0f};
    for (int s = 0; s < 6; ++s)  // SiftParams: sigma0 * 2^(s/3), s < 6
        sigmas.push_back(1.6f * std::pow(2.0f, static_cast<float>(s) / 3.0f));
    std::uint64_t seed = 100;
    for (auto [w, h] : kSizes) {
        const Image img = signedImage(w, h, ++seed);
        for (float sigma : sigmas) {
            SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) +
                         " sigma " + std::to_string(sigma));
            expectMatchesOracle(
                [&] { return ops::gaussianBlur(img, sigma); },
                [&] { return reference::gaussianBlur(img, sigma); },
                kSameBits);
        }
    }
}

TEST(OpsOracle, Convolve2dAnyKernel)
{
    std::uint64_t seed = 200;
    for (auto [w, h] : kSizes) {
        const Image img = signedImage(w, h, ++seed);
        for (int k : {1, 3, 5, 9}) {
            SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) +
                         " k " + std::to_string(k));
            Rng rng(seed * 7 + static_cast<std::uint64_t>(k));
            std::vector<float> kernel(static_cast<std::size_t>(k * k));
            for (auto& v : kernel)
                v = static_cast<float>(rng.uniform(-1.0, 1.0));
            expectMatchesOracle(
                [&] { return ops::convolve2d(img, kernel, k); },
                [&] { return reference::convolve2d(img, kernel, k); },
                kSameBits);
        }
    }
}

TEST(OpsOracle, SobelDownsampleAndResize)
{
    std::uint64_t seed = 300;
    for (auto [w, h] : kSizes) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
        const Image img = signedImage(w, h, ++seed);
        using Pair = std::pair<Image, Image>;
        expectMatchesOracle(
            [&] {
                Pair g;
                ops::sobel(img, g.first, g.second);
                return g;
            },
            [&] {
                Pair g;
                reference::sobel(img, g.first, g.second);
                return g;
            },
            [](const Pair& a, const Pair& b) {
                const auto x = sameBits(a.first, b.first);
                return x ? sameBits(a.second, b.second) : x;
            });
        expectMatchesOracle([&] { return ops::downsample2x(img); },
                            [&] { return reference::downsample2x(img); },
                            kSameBits);
        for (auto [tw, th] : {std::pair{1, 1}, std::pair{32, 32},
                              std::pair{w * 3, h + 1}, std::pair{7, 2}}) {
            SCOPED_TRACE("resize to " + std::to_string(tw) + "x" +
                         std::to_string(th));
            expectMatchesOracle(
                [&] { return ops::resizeBilinear(img, tw, th); },
                [&] { return reference::resizeBilinear(img, tw, th); },
                kSameBits);
        }
    }
}

TEST(OpsOracle, DistanceMatrixIncludingEmptySets)
{
    auto descriptors = [](std::size_t n, std::size_t dim,
                          std::uint64_t seed) {
        Rng rng(seed);
        std::vector<Descriptor> out(n, Descriptor(dim));
        for (auto& d : out)
            for (auto& v : d)
                v = static_cast<float>(rng.uniform(-100.0, 100.0));
        return out;
    };
    std::uint64_t seed = 400;
    for (std::size_t dim : {0u, 1u, 7u, 144u}) {
        for (auto [na, nb] : {std::pair<std::size_t, std::size_t>{0, 0},
                              {0, 5}, {5, 0}, {1, 1}, {3, 7}, {4, 8},
                              {2, 9}, {6, 17}, {13, 40}}) {
            SCOPED_TRACE("dim " + std::to_string(dim) + " " +
                         std::to_string(na) + "x" + std::to_string(nb));
            const auto a = descriptors(na, dim, ++seed);
            const auto b = descriptors(nb, dim, ++seed);
            expectMatchesOracle(
                [&] { return assembledDistances(a, b); },
                [&] { return reference::distanceMatrix(a, b); },
                kSameBits);
        }
    }
}

TEST(OpsOracle, TextureAndRngStream)
{
    for (auto [w, h] : kSizes) {
        for (int cell : {1, 3, 8, 16}) {
            SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) +
                         " cell " + std::to_string(cell));
            const auto seed = static_cast<std::uint64_t>(w * 1000 + h + cell);
            Rng fastRng(seed);
            Rng oracleRng(seed);
            EXPECT_TRUE(sameBits(synth::texture(w, h, fastRng, cell),
                                 reference::texture(w, h, oracleRng, cell)));
            EXPECT_EQ(fastRng.next(), oracleRng.next());
        }
    }
}

// gradientPolar's four-lane fdlibm arctangent against the libm loop.

/** Image whose pixels are the given values, in rows of @p width
 * (a multiple of which values.size() must be). */
Image
imageOf(const std::vector<float>& values, int width)
{
    EXPECT_EQ(values.size() % static_cast<std::size_t>(width), 0u);
    Image img(width, static_cast<int>(values.size()) / width);
    std::copy(values.begin(),
              values.begin() + static_cast<std::ptrdiff_t>(img.pixels()),
              img.data().begin());
    return img;
}

/** gradientPolar and its oracle on (gy, gx): identical magnitude and
 * orientation bits and identical phases. */
void
expectPolarMatchesOracle(const Image& gx, const Image& gy)
{
    using Pair = std::pair<Image, Image>;
    expectMatchesOracle(
        [&] {
            Pair p;
            ops::gradientPolar(gx, gy, p.first, p.second);
            return p;
        },
        [&] {
            Pair p;
            reference::gradientPolar(gx, gy, p.first, p.second);
            return p;
        },
        [&](const Pair& a, const Pair& b) {
            const auto mag = sameBits(a.first, b.first);
            if (!mag)
                return mag;
            for (std::size_t i = 0; i < a.second.pixels(); ++i) {
                const float got = a.second.data()[i];
                const float want = b.second.data()[i];
                if (std::bit_cast<std::uint32_t>(got) !=
                    std::bit_cast<std::uint32_t>(want))
                    return ::testing::AssertionFailure()
                           << "atan2(" << std::hexfloat << gy.data()[i]
                           << ", " << gx.data()[i] << ") = " << got
                           << ", libm " << want;
            }
            return ::testing::AssertionSuccess();
        });
}

float
fromBits(std::uint32_t bits)
{
    return std::bit_cast<float>(bits);
}

TEST(OpsOracle, GradientPolarSpecialOperands)
{
    // Signed zeros, x == 1, subnormals, the normal range's ends,
    // infinities and NaNs, each paired with every other value.
    constexpr float inf = std::numeric_limits<float>::infinity();
    constexpr float nan = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> values;
    for (float v : {0.0f, 1.0f, 0.5f, 3.0f, 7.25f, fromBits(1),
                    fromBits(0x007fffff), std::numeric_limits<float>::min(),
                    std::numeric_limits<float>::max(), 0x1p60f, 0x1p-60f,
                    0x1p25f, inf, nan, fromBits(0x7f800001)}) {
        values.push_back(v);
        values.push_back(-v);
    }
    // Every (y, x) pair: one image row per y.
    const int n = static_cast<int>(values.size());
    Image gx(n, n);
    Image gy(n, n);
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            gy.at(x, y) = values[static_cast<std::size_t>(y)];
            gx.at(x, y) = values[static_cast<std::size_t>(x)];
        }
    }
    expectPolarMatchesOracle(gx, gy);
}

TEST(OpsOracle, GradientPolarRatioExponents)
{
    // |y / x| from 2^-70 to 2^70, a few ulps either side of each power:
    // crosses the 2^+-60 cuts and atanf's 2^25 saturation, in all four
    // quadrants and with x far from 1.
    std::vector<float> ys;
    std::vector<float> xs;
    for (int e = -70; e <= 70; ++e) {
        for (int ulps = -2; ulps <= 2; ++ulps) {
            const float y = std::ldexp(
                fromBits(static_cast<std::uint32_t>(0x3f800000 + ulps)), e);
            for (float x : {1.0f, 1.25f, 0x1p-20f, 0x1p20f}) {
                for (float sy : {1.0f, -1.0f}) {
                    for (float sx : {1.0f, -1.0f}) {
                        ys.push_back(sy * y * x);
                        xs.push_back(sx * x);
                    }
                }
            }
        }
    }
    expectPolarMatchesOracle(imageOf(xs, 16), imageOf(ys, 16));
}

TEST(OpsOracle, GradientPolarReductionBoundaries)
{
    // r = |y / x| within a few ulps of atanf's interval ends 7/16,
    // 11/16, 19/16 and 39/16 (and 2^-29, 2^25); x = 2 and 0.25 keep
    // y / x exact.
    std::vector<float> ys;
    std::vector<float> xs;
    for (float edge : {7.0f / 16, 11.0f / 16, 19.0f / 16, 39.0f / 16,
                       0x1p-29f, 0x1p25f}) {
        const auto bits = std::bit_cast<std::uint32_t>(edge);
        for (std::uint32_t b = bits - 3; b <= bits + 3; ++b) {
            const float r = fromBits(b);
            for (float x : {2.0f, -2.0f, 0.25f, -0.25f}) {
                ys.push_back(r * x);
                xs.push_back(x);
                ys.push_back(-r * x);
                xs.push_back(x);
            }
        }
    }
    expectPolarMatchesOracle(imageOf(xs, 8), imageOf(ys, 8));
}

TEST(OpsOracle, GradientPolarTailWidths)
{
    // Widths whose pixel counts leave 1-3 lanes for the padded block,
    // with a NaN and an infinity landing in the tail.
    std::uint64_t seed = 600;
    for (auto [w, h] : {std::pair{1, 1}, std::pair{2, 1}, std::pair{3, 1},
                        std::pair{5, 1}, std::pair{5, 3}, std::pair{7, 7}}) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
        Image gx = signedImage(w, h, ++seed);
        Image gy = signedImage(w, h, ++seed);
        expectPolarMatchesOracle(gx, gy);
        gx.data().back() = std::numeric_limits<float>::quiet_NaN();
        gy.data().front() = -std::numeric_limits<float>::infinity();
        expectPolarMatchesOracle(gx, gy);
    }
}

TEST(OpsOracle, GradientPolarOnSobelOfCampaignImages)
{
    ImageStream batch(BenchmarkId::ObjRec, 2, 7);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Image img = batch.next();
        Image gx, gy;
        ops::sobel(img, gx, gy);
        expectPolarMatchesOracle(gx, gy);
    }
}

TEST(OpsOracle, GradientPolarStridedSweep)
{
    // 10,240,000 (y, x) bit patterns from two Weyl sequences over the
    // 32-bit space: every exponent, sign, subnormal, infinity and NaN.
    constexpr int kWidth = 1024;
    constexpr int kRows = 1000;
    constexpr int kChunks = 10;
    std::uint32_t yBits = 0x2545f491u;
    std::uint32_t xBits = 0x6c078965u;
    for (int chunk = 0; chunk < kChunks; ++chunk) {
        Image gx(kWidth, kRows);
        Image gy(kWidth, kRows);
        for (std::size_t i = 0; i < gx.pixels(); ++i) {
            gy.data()[i] = fromBits(yBits += 0x9e3779b9u);
            gx.data()[i] = fromBits(xBits += 0x7f4a7c15u);
        }
        expectPolarMatchesOracle(gx, gy);
    }
}

TEST(OpsOracle, HogCellHistograms)
{
    std::uint64_t seed = 500;
    for (auto [w, h] : kSizes) {
        // Scene-like pixels (flat regions give zero gradients) and noise.
        Rng rng(++seed);
        const Image scene = synth::scene(std::max(w, 32), std::max(h, 32), rng);
        const Image noise = signedImage(w, h, ++seed);
        for (const Image* img : {&scene, &noise}) {
            for (const HogParams params :
                 {HogParams{}, HogParams{16, 2, 9}, HogParams{5, 1, 4}}) {
                SCOPED_TRACE(std::to_string(img->width()) + "x" +
                             std::to_string(img->height()) + " cell " +
                             std::to_string(params.cellSize));
                expectMatchesOracle(
                    [&] { return computeHog(*img, params); },
                    [&] { return reference::computeHog(*img, params); },
                    kSameBits);
            }
        }
    }
}

}  // namespace
