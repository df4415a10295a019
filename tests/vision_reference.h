/**
 * @file
 * Literal transcriptions of the vision primitives as they were before
 * their inner loops were rewritten for speed, kept as the bit-identity
 * oracle for the instrumented primitives in src/vision.
 *
 * Each function here must produce bit-identical outputs and record the
 * same KernelPhase as its namesake in vision::ops, vision::synth or
 * vision::computeHog. tests/test_ops.cc fuzzes the pairs against each
 * other, and bench_micro_kernels times these loops as the in-process
 * "before" baseline so a reported speedup is measured under one machine
 * state. The arctangent oracle is the host libm's atan2f, which glibc
 * (2.36) computes with the fdlibm algorithm ops.cc transcribes.
 *
 * Do not optimize or "clean up" these functions: every loop and every
 * expression is the earlier implementation verbatim.
 */

#ifndef MAPP_TESTS_VISION_REFERENCE_H
#define MAPP_TESTS_VISION_REFERENCE_H

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/rng.h"
#include "isa/inst_class.h"
#include "vision/hog.h"
#include "vision/image.h"
#include "vision/ops.h"

namespace mapp::vision::reference {

using isa::InstClass;

/** Bytes of a float. */
constexpr Bytes kF = sizeof(float);

inline Image
convolve2d(const Image& img, std::span<const float> kernel, int k)
{
    const int r = k / 2;
    Image out(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            float acc = 0.0f;
            for (int j = 0; j < k; ++j)
                for (int i = 0; i < k; ++i)
                    acc += img.atClamped(x + i - r, y + j - r) *
                           kernel[static_cast<std::size_t>(j * k + i)];
            out.at(x, y) = acc;
        }
    }

    const auto px = static_cast<InstCount>(img.pixels());
    const auto taps = px * static_cast<InstCount>(k) *
                      static_cast<InstCount>(k);
    ops::PhaseBuilder("convolve2d")
        .insts(InstClass::MemRead, taps)
        .insts(InstClass::FpAlu, taps)          // scalar tail mul-adds
        .insts(InstClass::Simd, taps / 2)       // vectorized portion
        .insts(InstClass::MemWrite, px)
        .insts(InstClass::IntAlu, px * 3)       // index arithmetic
        .insts(InstClass::Control, px + taps / 8)
        .insts(InstClass::Stack,
               static_cast<InstCount>(img.height()) * 2)
        .read(taps * kF)
        .write(px * kF)
        .foot(img.sizeBytes() + out.sizeBytes())
        .par(0.98)
        .items(px)
        .loc(0.8)
        .div(0.05)
        .record();
    return out;
}

inline Image
gaussianBlur(const Image& img, float sigma)
{
    const int r = std::max(1, static_cast<int>(std::ceil(3.0f * sigma)));
    const int k = 2 * r + 1;
    std::vector<float> kernel(static_cast<std::size_t>(k));
    float sum = 0.0f;
    for (int i = 0; i < k; ++i) {
        const float d = static_cast<float>(i - r);
        kernel[static_cast<std::size_t>(i)] =
            std::exp(-d * d / (2.0f * sigma * sigma));
        sum += kernel[static_cast<std::size_t>(i)];
    }
    for (auto& v : kernel)
        v /= sum;

    // Horizontal then vertical pass.
    Image tmp(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x) {
            float acc = 0.0f;
            for (int i = 0; i < k; ++i)
                acc += img.atClamped(x + i - r, y) *
                       kernel[static_cast<std::size_t>(i)];
            tmp.at(x, y) = acc;
        }
    Image out(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x) {
            float acc = 0.0f;
            for (int i = 0; i < k; ++i)
                acc += tmp.atClamped(x, y + i - r) *
                       kernel[static_cast<std::size_t>(i)];
            out.at(x, y) = acc;
        }

    const auto px = static_cast<InstCount>(img.pixels());
    const auto taps = 2 * px * static_cast<InstCount>(k);
    ops::PhaseBuilder("gaussian_blur")
        .insts(InstClass::MemRead, taps)
        .insts(InstClass::FpAlu, taps)
        .insts(InstClass::Simd, taps * 3 / 4)  // separable filters vectorize
        .insts(InstClass::MemWrite, 2 * px)
        .insts(InstClass::IntAlu, 2 * px * 2)
        .insts(InstClass::Control, 2 * px + taps / 8)
        .insts(InstClass::Stack, static_cast<InstCount>(img.height()) * 4)
        .read(taps * kF)
        .write(2 * px * kF)
        .foot(img.sizeBytes() * 3)
        .par(0.98)
        .items(px)
        .loc(0.85)
        .div(0.03)
        .record();
    return out;
}

inline void
sobel(const Image& img, Image& gx, Image& gy)
{
    gx = Image(img.width(), img.height());
    gy = Image(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            const float tl = img.atClamped(x - 1, y - 1);
            const float t = img.atClamped(x, y - 1);
            const float tr = img.atClamped(x + 1, y - 1);
            const float l = img.atClamped(x - 1, y);
            const float r = img.atClamped(x + 1, y);
            const float bl = img.atClamped(x - 1, y + 1);
            const float b = img.atClamped(x, y + 1);
            const float br = img.atClamped(x + 1, y + 1);
            gx.at(x, y) = (tr + 2 * r + br) - (tl + 2 * l + bl);
            gy.at(x, y) = (bl + 2 * b + br) - (tl + 2 * t + tr);
        }
    }
    const auto px = static_cast<InstCount>(img.pixels());
    ops::PhaseBuilder("sobel")
        .insts(InstClass::MemRead, px * 8)
        .insts(InstClass::FpAlu, px * 10)
        .insts(InstClass::Simd, px * 4)
        .insts(InstClass::MemWrite, px * 2)
        .insts(InstClass::IntAlu, px * 3)
        .insts(InstClass::Control, px)
        .read(px * 8 * kF)
        .write(px * 2 * kF)
        .foot(img.sizeBytes() * 3)
        .par(0.98)
        .items(px)
        .loc(0.9)
        .div(0.03)
        .record();
}

/** gradientPolar with its per-pixel libm arctangent: the oracle for the
 * four-lane fdlibm transcription in ops.cc. */
inline void
gradientPolar(const Image& gx, const Image& gy, Image& mag, Image& orient)
{
    mag = Image(gx.width(), gx.height());
    orient = Image(gx.width(), gx.height());
    for (int y = 0; y < gx.height(); ++y) {
        for (int x = 0; x < gx.width(); ++x) {
            const float dx = gx.at(x, y);
            const float dy = gy.at(x, y);
            mag.at(x, y) = std::sqrt(dx * dx + dy * dy);
            orient.at(x, y) = std::atan2(dy, dx);
        }
    }
    const auto px = static_cast<InstCount>(gx.pixels());
    ops::PhaseBuilder("gradient_polar")
        .insts(InstClass::MemRead, px * 2)
        .insts(InstClass::FpAlu, px * 14)  // sqrt + atan2 expansions
        .insts(InstClass::MemWrite, px * 2)
        .insts(InstClass::IntAlu, px * 2)
        .insts(InstClass::Control, px)
        .read(px * 2 * kF)
        .write(px * 2 * kF)
        .foot(gx.sizeBytes() * 4)
        .par(0.98)
        .items(px)
        .loc(0.9)
        .div(0.02)
        .record();
}

inline Image
downsample2x(const Image& img)
{
    const int w = std::max(img.width() / 2, 1);
    const int h = std::max(img.height() / 2, 1);
    Image out(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            out.at(x, y) =
                (img.atClamped(2 * x, 2 * y) +
                 img.atClamped(2 * x + 1, 2 * y) +
                 img.atClamped(2 * x, 2 * y + 1) +
                 img.atClamped(2 * x + 1, 2 * y + 1)) * 0.25f;

    const auto px = static_cast<InstCount>(out.pixels());
    ops::PhaseBuilder("downsample2x")
        .insts(InstClass::MemRead, px * 4)
        .insts(InstClass::FpAlu, px * 4)
        .insts(InstClass::Simd, px)
        .insts(InstClass::MemWrite, px)
        .insts(InstClass::IntAlu, px * 4)
        .insts(InstClass::Shift, px * 2)  // index doubling
        .insts(InstClass::Control, px)
        .read(px * 4 * kF)
        .write(px * kF)
        .foot(img.sizeBytes() + out.sizeBytes())
        .par(0.98)
        .items(px)
        .loc(0.7)
        .div(0.02)
        .record();
    return out;
}

inline Image
resizeBilinear(const Image& img, int w, int h)
{
    Image out(w, h);
    const float sx =
        static_cast<float>(img.width()) / static_cast<float>(w);
    const float sy =
        static_cast<float>(img.height()) / static_cast<float>(h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
            const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
            const int x0 = static_cast<int>(std::floor(fx));
            const int y0 = static_cast<int>(std::floor(fy));
            const float ax = fx - static_cast<float>(x0);
            const float ay = fy - static_cast<float>(y0);
            const float top = img.atClamped(x0, y0) * (1 - ax) +
                              img.atClamped(x0 + 1, y0) * ax;
            const float bot = img.atClamped(x0, y0 + 1) * (1 - ax) +
                              img.atClamped(x0 + 1, y0 + 1) * ax;
            out.at(x, y) = top * (1 - ay) + bot * ay;
        }
    }
    const auto px = static_cast<InstCount>(out.pixels());
    ops::PhaseBuilder("resize_bilinear")
        .insts(InstClass::MemRead, px * 4)
        .insts(InstClass::FpAlu, px * 10)
        .insts(InstClass::MemWrite, px)
        .insts(InstClass::IntAlu, px * 6)
        .insts(InstClass::Control, px)
        .read(px * 4 * kF)
        .write(px * kF)
        .foot(img.sizeBytes() + out.sizeBytes())
        .par(0.98)
        .items(px)
        .loc(0.6)
        .div(0.05)
        .record();
    return out;
}

inline std::vector<double>
distanceMatrix(const std::vector<Descriptor>& a,
               const std::vector<Descriptor>& b)
{
    const std::size_t dim = a.empty() ? 0 : a.front().size();
    std::vector<double> out(a.size() * b.size(), 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = 0; j < b.size(); ++j) {
            double acc = 0.0;
            for (std::size_t d = 0; d < dim; ++d) {
                const double diff = static_cast<double>(a[i][d]) -
                                    static_cast<double>(b[j][d]);
                acc += diff * diff;
            }
            out[i * b.size() + j] = acc;
        }
    }
    const auto ops = static_cast<InstCount>(a.size()) *
                     static_cast<InstCount>(b.size()) *
                     static_cast<InstCount>(std::max<std::size_t>(dim, 1));
    const auto pairs = static_cast<InstCount>(a.size()) *
                       static_cast<InstCount>(b.size());
    ops::PhaseBuilder("distance_matrix")
        .insts(InstClass::MemRead, ops * 2)
        .insts(InstClass::Simd, ops * 2)
        .insts(InstClass::FpAlu, ops / 2)
        .insts(InstClass::MemWrite, pairs)
        .insts(InstClass::IntAlu, pairs * 2)
        .insts(InstClass::Control, pairs + ops / 8)
        .read(ops * 2 * kF)
        .write(pairs * static_cast<Bytes>(sizeof(double)))
        .foot((static_cast<Bytes>(a.size()) + static_cast<Bytes>(b.size())) *
                  static_cast<Bytes>(dim) * kF +
              static_cast<Bytes>(out.size()) *
                  static_cast<Bytes>(sizeof(double)))
        .par(0.97)
        .items(pairs)
        .loc(0.3)  // streaming through both sets
        .div(0.02)
        .record();
    return out;
}

/** synth::texture before its per-column divisions were hoisted. */
inline Image
texture(int w, int h, Rng& rng, int cell_size)
{
    // Random lattice values, bilinearly interpolated.
    const int gw = w / cell_size + 2;
    const int gh = h / cell_size + 2;
    std::vector<float> grid(static_cast<std::size_t>(gw) *
                            static_cast<std::size_t>(gh));
    for (auto& v : grid)
        v = static_cast<float>(rng.uniform(40.0, 210.0));

    Image img(w, h);
    for (int y = 0; y < h; ++y) {
        const int gy = y / cell_size;
        const float fy =
            static_cast<float>(y % cell_size) / static_cast<float>(cell_size);
        for (int x = 0; x < w; ++x) {
            const int gx = x / cell_size;
            const float fx = static_cast<float>(x % cell_size) /
                             static_cast<float>(cell_size);
            auto g = [&](int i, int j) {
                return grid[static_cast<std::size_t>(j) *
                                static_cast<std::size_t>(gw) +
                            static_cast<std::size_t>(i)];
            };
            const float top = g(gx, gy) * (1 - fx) + g(gx + 1, gy) * fx;
            const float bot =
                g(gx, gy + 1) * (1 - fx) + g(gx + 1, gy + 1) * fx;
            img.at(x, y) = top * (1 - fy) + bot * fy;
        }
    }
    return img;
}

/** computeHog before its per-pixel cell divisions were hoisted (the
 * Sobel and polar passes are the reference ones too). */
inline Descriptor
computeHog(const Image& img, const HogParams& params)
{
    Image gx, gy, mag, orient;
    sobel(img, gx, gy);
    gradientPolar(gx, gy, mag, orient);

    const int cellsX = img.width() / params.cellSize;
    const int cellsY = img.height() / params.cellSize;
    const auto bins = static_cast<std::size_t>(params.bins);

    // Cell histograms (unsigned gradient: orientation folded into [0, pi)).
    std::vector<double> cells(
        static_cast<std::size_t>(cellsX) * static_cast<std::size_t>(cellsY) *
            bins,
        0.0);
    InstCount votes = 0;
    for (int y = 0; y < cellsY * params.cellSize; ++y) {
        for (int x = 0; x < cellsX * params.cellSize; ++x) {
            float o = orient.at(x, y);
            if (o < 0.0f)
                o += static_cast<float>(M_PI);
            if (o >= static_cast<float>(M_PI))
                o -= static_cast<float>(M_PI);
            int bin = static_cast<int>(o / static_cast<float>(M_PI) *
                                       static_cast<float>(params.bins));
            bin = std::clamp(bin, 0, params.bins - 1);
            const int cx = x / params.cellSize;
            const int cy = y / params.cellSize;
            cells[(static_cast<std::size_t>(cy) *
                       static_cast<std::size_t>(cellsX) +
                   static_cast<std::size_t>(cx)) *
                      bins +
                  static_cast<std::size_t>(bin)] += mag.at(x, y);
            ++votes;
        }
    }
    ops::PhaseBuilder("hog_cell_histograms")
        .insts(isa::InstClass::MemRead, votes * 3)
        .insts(isa::InstClass::FpAlu, votes * 5)
        .insts(isa::InstClass::IntAlu, votes * 6)
        .insts(isa::InstClass::MemWrite, votes)
        .insts(isa::InstClass::Control, votes * 2)
        .read(votes * 2 * sizeof(float))
        .write(votes * sizeof(double) / 2)
        .foot(img.sizeBytes() * 2 +
              static_cast<Bytes>(cells.size()) * sizeof(double))
        .par(0.97)  // GPU histograms vote via atomics, still parallel
        .items(votes)
        .loc(0.9)
        .div(0.2)
        .record();

    // Overlapping block normalization.
    Descriptor desc;
    const int bw = params.blockSize;
    InstCount normOps = 0;
    for (int by = 0; by + bw <= cellsY; ++by) {
        for (int bx = 0; bx + bw <= cellsX; ++bx) {
            const std::size_t start = desc.size();
            double norm = 0.0;
            for (int j = 0; j < bw; ++j) {
                for (int i = 0; i < bw; ++i) {
                    const auto* cell =
                        &cells[(static_cast<std::size_t>(by + j) *
                                    static_cast<std::size_t>(cellsX) +
                                static_cast<std::size_t>(bx + i)) *
                               bins];
                    for (std::size_t b = 0; b < bins; ++b) {
                        desc.push_back(static_cast<float>(cell[b]));
                        norm += cell[b] * cell[b];
                        ++normOps;
                    }
                }
            }
            norm = std::sqrt(norm + 1e-6);
            for (std::size_t i = start; i < desc.size(); ++i) {
                desc[i] = static_cast<float>(desc[i] / norm);
                ++normOps;
            }
        }
    }
    ops::PhaseBuilder("hog_block_normalize")
        .insts(isa::InstClass::MemRead, normOps * 2)
        .insts(isa::InstClass::FpAlu, normOps * 2)
        .insts(isa::InstClass::Simd, normOps)
        .insts(isa::InstClass::MemWrite, normOps)
        .insts(isa::InstClass::IntAlu, normOps)
        .insts(isa::InstClass::Control, normOps / 4)
        .insts(isa::InstClass::Stack,
               static_cast<InstCount>(cellsX) *
                   static_cast<InstCount>(cellsY))
        .read(normOps * sizeof(double))
        .write(normOps * sizeof(float))
        .foot(static_cast<Bytes>(cells.size()) * sizeof(double))
        .par(0.95)
        .items(static_cast<std::uint64_t>(cellsX) *
               static_cast<std::uint64_t>(cellsY))
        .loc(0.85)
        .div(0.05)
        .record();
    return desc;
}

}  // namespace mapp::vision::reference

#endif  // MAPP_TESTS_VISION_REFERENCE_H
