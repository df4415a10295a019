/** @file Unit tests for images, integral images and scene synthesis. */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vision/image.h"

namespace {

using namespace mapp;
using namespace mapp::vision;

TEST(Image, ConstructionAndFill)
{
    Image img(8, 6, 3.0f);
    EXPECT_EQ(img.width(), 8);
    EXPECT_EQ(img.height(), 6);
    EXPECT_EQ(img.pixels(), 48u);
    EXPECT_FLOAT_EQ(img.at(7, 5), 3.0f);
    EXPECT_EQ(img.sizeBytes(), 48u * sizeof(float));
}

TEST(Image, ClampedAccessAtBorders)
{
    Image img(4, 4, 0.0f);
    img.at(0, 0) = 9.0f;
    img.at(3, 3) = 5.0f;
    EXPECT_FLOAT_EQ(img.atClamped(-3, -1), 9.0f);
    EXPECT_FLOAT_EQ(img.atClamped(10, 10), 5.0f);
}

TEST(Image, InsidePredicate)
{
    Image img(4, 4);
    EXPECT_TRUE(img.inside(0, 0));
    EXPECT_TRUE(img.inside(3, 3));
    EXPECT_FALSE(img.inside(4, 0));
    EXPECT_FALSE(img.inside(0, -1));
}

TEST(Image, MeanOfUniformImage)
{
    Image img(5, 5, 2.0f);
    EXPECT_DOUBLE_EQ(img.mean(), 2.0);
}

TEST(IntegralImage, BoxSumMatchesBruteForce)
{
    Rng rng(1);
    Image img(9, 7);
    for (int y = 0; y < 7; ++y)
        for (int x = 0; x < 9; ++x)
            img.at(x, y) = static_cast<float>(rng.uniform(0.0, 10.0));

    IntegralImage ii(img);
    for (auto [x0, y0, x1, y1] :
         {std::tuple{0, 0, 8, 6}, {2, 1, 5, 4}, {3, 3, 3, 3}}) {
        double brute = 0.0;
        for (int y = y0; y <= y1; ++y)
            for (int x = x0; x <= x1; ++x)
                brute += img.at(x, y);
        EXPECT_NEAR(ii.boxSum(x0, y0, x1, y1), brute, 1e-6);
    }
}

TEST(IntegralImage, ClampsOutOfRangeBoxes)
{
    Image img(4, 4, 1.0f);
    IntegralImage ii(img);
    EXPECT_DOUBLE_EQ(ii.boxSum(-5, -5, 10, 10), 16.0);
}

TEST(IntegralImage, InvertedBoxIsZero)
{
    Image img(4, 4, 1.0f);
    IntegralImage ii(img);
    EXPECT_DOUBLE_EQ(ii.boxSum(3, 3, 1, 1), 0.0);
}

TEST(Synth, TextureInRangeAndDeterministic)
{
    Rng r1(5);
    Rng r2(5);
    const Image a = synth::texture(32, 32, r1);
    const Image b = synth::texture(32, 32, r2);
    EXPECT_EQ(a.data(), b.data());
    for (float v : a.data()) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 255.0f);
    }
}

TEST(Synth, DrawRectFillsAndClips)
{
    Image img(8, 8, 0.0f);
    synth::drawRect(img, 2, 2, 20, 3, 7.0f);  // clipped right edge
    EXPECT_FLOAT_EQ(img.at(2, 2), 7.0f);
    EXPECT_FLOAT_EQ(img.at(7, 3), 7.0f);
    EXPECT_FLOAT_EQ(img.at(1, 2), 0.0f);
    EXPECT_FLOAT_EQ(img.at(2, 4), 0.0f);
}

TEST(Synth, DrawDiscRespectsRadius)
{
    Image img(16, 16, 0.0f);
    synth::drawDisc(img, 8, 8, 3, 1.0f);
    EXPECT_FLOAT_EQ(img.at(8, 8), 1.0f);
    EXPECT_FLOAT_EQ(img.at(8, 5), 1.0f);   // on radius
    EXPECT_FLOAT_EQ(img.at(8, 4), 0.0f);   // outside
    EXPECT_FLOAT_EQ(img.at(12, 12), 0.0f);
}

TEST(Synth, SceneHasContrastStructure)
{
    Rng rng(9);
    const Image img = synth::scene(64, 64, rng);
    // A cluttered scene must have substantial intensity variance.
    double mean = img.mean();
    double var = 0.0;
    for (float v : img.data())
        var += (v - mean) * (v - mean);
    var /= static_cast<double>(img.pixels());
    EXPECT_GT(var, 100.0);
}

TEST(Synth, FaceStampHasEyeCheekContrast)
{
    Image img(64, 64, 128.0f);
    synth::stampFace(img, 32, 32, 12);
    // Eye regions darker than mid-face.
    const float eye = img.at(32 - 6, 32 - 4);
    const float cheek = img.at(32, 32 + 2);
    EXPECT_LT(eye, cheek);
}

TEST(Synth, FacesSceneDeterministic)
{
    Rng r1(7);
    Rng r2(7);
    EXPECT_EQ(synth::facesScene(48, 48, r1, 2).data(),
              synth::facesScene(48, 48, r2, 2).data());
}

}  // namespace
