#include "vision/sift.h"

#include <algorithm>
#include <cmath>

#include "vision/ops.h"
#include "vision/registry.h"

namespace mapp::vision {

namespace {

constexpr int kDescWidth = 4;   // 4x4 spatial cells
constexpr int kDescBins = 8;    // orientation bins per cell

/**
 * Scan a DoG triplet (below, center, above) for 3x3x3 extrema above the
 * contrast threshold; appends keypoints at the given octave scale.
 */
void
findExtrema(const Image& below, const Image& center, const Image& above,
            float contrast, float octaveScale, std::vector<Keypoint>& out,
            InstCount& comparisons)
{
    for (int y = 1; y < center.height() - 1; ++y) {
        for (int x = 1; x < center.width() - 1; ++x) {
            const float v = center.at(x, y);
            ++comparisons;
            if (std::abs(v) < contrast)
                continue;
            bool isMax = true;
            bool isMin = true;
            for (int j = -1; j <= 1 && (isMax || isMin); ++j) {
                for (int i = -1; i <= 1; ++i) {
                    for (const Image* level : {&below, &center, &above}) {
                        if (level == &center && i == 0 && j == 0)
                            continue;
                        ++comparisons;
                        const float n = level->at(x + i, y + j);
                        if (n >= v)
                            isMax = false;
                        if (n <= v)
                            isMin = false;
                    }
                }
            }
            if (isMax || isMin) {
                Keypoint kp;
                kp.x = static_cast<float>(x) * octaveScale;
                kp.y = static_cast<float>(y) * octaveScale;
                kp.scale = octaveScale;
                kp.response = std::abs(v);
                out.push_back(kp);
            }
        }
    }
}

/**
 * Build a 128-d descriptor from gradient magnitude/orientation around the
 * keypoint in octave coordinates.
 */
Descriptor
buildDescriptor(const Image& mag, const Image& orient, int cx, int cy)
{
    Descriptor desc(kDescWidth * kDescWidth * kDescBins, 0.0f);
    const int half = kDescWidth * 2;  // 8-pixel half-window
    for (int j = -half; j < half; ++j) {
        for (int i = -half; i < half; ++i) {
            const int x = cx + i;
            const int y = cy + j;
            const float m = mag.atClamped(x, y);
            float o = orient.atClamped(x, y);
            if (o < 0.0f)
                o += 2.0f * static_cast<float>(M_PI);
            const int cellX = (i + half) / kDescWidth;
            const int cellY = (j + half) / kDescWidth;
            int bin = static_cast<int>(o / (2.0f * static_cast<float>(M_PI)) *
                                       kDescBins);
            bin = std::clamp(bin, 0, kDescBins - 1);
            desc[static_cast<std::size_t>(
                (cellY * kDescWidth + cellX) * kDescBins + bin)] += m;
        }
    }
    // L2 normalize with clipping (Lowe's 0.2 clamp).
    double norm = 0.0;
    for (float v : desc)
        norm += static_cast<double>(v) * static_cast<double>(v);
    norm = std::sqrt(std::max(norm, 1e-12));
    for (auto& v : desc)
        v = std::min(static_cast<float>(v / norm), 0.2f);
    norm = 0.0;
    for (float v : desc)
        norm += static_cast<double>(v) * static_cast<double>(v);
    norm = std::sqrt(std::max(norm, 1e-12));
    for (auto& v : desc)
        v = static_cast<float>(v / norm);
    return desc;
}

}  // namespace

SiftResult
detectSift(const Image& img, const SiftParams& params)
{
    SiftResult result;
    const int levels = params.scalesPerOctave + 3;

    Image base = img;
    float octaveScale = 1.0f;
    for (int octave = 0; octave < params.maxOctaves; ++octave) {
        if (base.width() < 16 || base.height() < 16)
            break;

        // Gaussian levels for this octave.
        std::vector<Image> gauss;
        gauss.reserve(static_cast<std::size_t>(levels));
        for (int s = 0; s < levels; ++s) {
            const float sigma =
                params.sigma0 *
                std::pow(2.0f, static_cast<float>(s) /
                                   static_cast<float>(params.scalesPerOctave));
            gauss.push_back(ops::gaussianBlur(base, sigma));
        }

        // Difference of Gaussians.
        std::vector<Image> dog;
        dog.reserve(static_cast<std::size_t>(levels - 1));
        for (int s = 0; s + 1 < levels; ++s) {
            Image d(base.width(), base.height());
            for (int y = 0; y < base.height(); ++y)
                for (int x = 0; x < base.width(); ++x)
                    d.at(x, y) = gauss[static_cast<std::size_t>(s + 1)].at(x, y) -
                                 gauss[static_cast<std::size_t>(s)].at(x, y);
            dog.push_back(std::move(d));
        }
        {
            const auto px = static_cast<InstCount>(base.pixels()) *
                            static_cast<InstCount>(dog.size());
            ops::PhaseBuilder("dog_subtract")
                .insts(isa::InstClass::MemRead, px * 2)
                .insts(isa::InstClass::FpAlu, px)
                .insts(isa::InstClass::Simd, px)
                .insts(isa::InstClass::MemWrite, px)
                .insts(isa::InstClass::IntAlu, px)
                .insts(isa::InstClass::Control, px / 4)
                .read(px * 2 * sizeof(float))
                .write(px * sizeof(float))
                .foot(base.sizeBytes() * 3)
                .par(0.98)
                .items(px)
                .loc(0.85)
                .div(0.02)
                .record();
        }

        // Extrema over interior DoG triplets.
        std::vector<Keypoint> octaveKps;
        InstCount comparisons = 0;
        for (std::size_t s = 1; s + 1 < dog.size(); ++s)
            findExtrema(dog[s - 1], dog[s], dog[s + 1],
                        params.contrastThreshold, octaveScale, octaveKps,
                        comparisons);
        {
            ops::PhaseBuilder("dog_extrema")
                .insts(isa::InstClass::MemRead, comparisons)
                .insts(isa::InstClass::FpAlu, comparisons)
                .insts(isa::InstClass::Control, comparisons * 2)
                .insts(isa::InstClass::IntAlu, comparisons / 2)
                .insts(isa::InstClass::MemWrite,
                       static_cast<InstCount>(octaveKps.size()) * 4)
                .insts(isa::InstClass::Stack,
                       static_cast<InstCount>(octaveKps.size()))
                .read(comparisons * sizeof(float))
                .write(static_cast<Bytes>(octaveKps.size()) *
                       sizeof(Keypoint))
                .foot(base.sizeBytes() * 4)
                .par(0.95)
                .items(static_cast<std::uint64_t>(base.pixels()))
                .loc(0.8)
                .div(0.55)
                .record();
        }

        // Gradients of the representative Gaussian level for descriptors.
        Image gx, gy, mag, orient;
        ops::sobel(gauss[1], gx, gy);
        ops::gradientPolar(gx, gy, mag, orient);

        InstCount descWork = 0;
        for (const auto& kp : octaveKps) {
            const int cx = static_cast<int>(kp.x / octaveScale);
            const int cy = static_cast<int>(kp.y / octaveScale);
            result.descriptors.push_back(buildDescriptor(mag, orient, cx, cy));
            result.keypoints.push_back(kp);
            descWork += 256;  // 16x16 sample window
        }
        {
            if (descWork > 0) {
                ops::PhaseBuilder("sift_descriptor")
                    .insts(isa::InstClass::MemRead, descWork * 2)
                    .insts(isa::InstClass::FpAlu, descWork * 6)
                    .insts(isa::InstClass::Simd, descWork)
                    .insts(isa::InstClass::IntAlu, descWork * 3)
                    .insts(isa::InstClass::Control, descWork)
                    .insts(isa::InstClass::MemWrite, descWork / 2)
                    .insts(isa::InstClass::Stack,
                           static_cast<InstCount>(octaveKps.size()) * 4)
                    .read(descWork * 2 * sizeof(float))
                    .write(static_cast<Bytes>(octaveKps.size()) * 128 *
                           sizeof(float))
                    .foot(base.sizeBytes() * 2)
                    .par(0.95)
                    .items(static_cast<std::uint64_t>(
                        std::max<std::size_t>(octaveKps.size(), 1)))
                    .loc(0.75)
                    .div(0.15)
                    .record();
            }
        }

        base = ops::downsample2x(gauss[static_cast<std::size_t>(
            params.scalesPerOctave)]);
        octaveScale *= 2.0f;
    }
    return result;
}

std::size_t
runSiftBenchmark(ImageStream& batch, const SiftParams& params)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Image staged = ops::copyImage(batch.next());
        total += detectSift(staged, params).keypoints.size();
    }
    return total;
}

}  // namespace mapp::vision
