#include "vision/surf.h"

#include <algorithm>
#include <cmath>

#include "vision/ops.h"
#include "vision/registry.h"

namespace mapp::vision {

namespace {

/**
 * Approximate Hessian determinant response at (x, y) for a box-filter of
 * width @p size, using integral-image box sums for Dxx, Dyy, Dxy.
 */
float
hessianResponse(const IntegralImage& ii, int x, int y, int size)
{
    const int l = size / 3;       // lobe size
    const int hl = l / 2;
    const int hs = size / 2;

    // Dyy: three stacked horizontal lobes (white, black x2 weight, white).
    const double dyy =
        ii.boxSum(x - hl, y - hs, x + hl, y - hs + l - 1) -
        2.0 * ii.boxSum(x - hl, y - hl, x + hl, y + hl) +
        ii.boxSum(x - hl, y + hs - l + 1, x + hl, y + hs);

    // Dxx: transposed.
    const double dxx =
        ii.boxSum(x - hs, y - hl, x - hs + l - 1, y + hl) -
        2.0 * ii.boxSum(x - hl, y - hl, x + hl, y + hl) +
        ii.boxSum(x + hs - l + 1, y - hl, x + hs, y + hl);

    // Dxy: four diagonal quadrant lobes.
    const double dxy = ii.boxSum(x - l, y - l, x - 1, y - 1) +
                       ii.boxSum(x + 1, y + 1, x + l, y + l) -
                       ii.boxSum(x + 1, y - l, x + l, y - 1) -
                       ii.boxSum(x - l, y + 1, x - 1, y + l);

    const auto norm = static_cast<double>(size) * static_cast<double>(size);
    const double nxx = dxx / norm;
    const double nyy = dyy / norm;
    const double nxy = dxy / norm;
    return static_cast<float>(nxx * nyy - 0.81 * nxy * nxy);
}

}  // namespace

SurfResult
detectSurf(const Image& img, const SurfParams& params)
{
    SurfResult result;
    const IntegralImage ii = ops::integral(img);

    for (int size : params.filterSizes) {
        Image response(img.width(), img.height(), 0.0f);
        const int border = size / 2 + 1;
        InstCount evals = 0;
        for (int y = border; y < img.height() - border; ++y) {
            for (int x = border; x < img.width() - border; ++x) {
                response.at(x, y) = hessianResponse(ii, x, y, size);
                ++evals;
            }
        }
        {
            // 10 box sums x 4 integral reads each, plus weighting math.
            ops::PhaseBuilder("surf_hessian")
                .insts(isa::InstClass::MemRead, evals * 40)
                .insts(isa::InstClass::IntAlu, evals * 44)
                .insts(isa::InstClass::Shift, evals * 12)  // index scaling
                .insts(isa::InstClass::FpAlu, evals * 10)
                .insts(isa::InstClass::Simd, evals * 6)
                .insts(isa::InstClass::MemWrite, evals)
                .insts(isa::InstClass::Control, evals * 3)
                .read(evals * 40 * sizeof(double))
                .write(evals * sizeof(float))
                .foot(ii.sizeBytes() + img.sizeBytes())
                .par(0.98)
                .items(evals)
                .loc(0.88)  // integral image reused across windows
                .div(0.05)
                .record();
        }

        auto maxima =
            ops::nonMaxSuppress(response, params.hessianThreshold,
                                params.nmsRadius);
        for (auto [x, y] : maxima) {
            Keypoint kp;
            kp.x = static_cast<float>(x);
            kp.y = static_cast<float>(y);
            kp.scale = static_cast<float>(size) / 9.0f;
            kp.response = response.at(x, y);
            result.keypoints.push_back(kp);
        }
    }

    // Haar-wavelet 64-d descriptors: 4x4 cells x (sum dx, sum |dx|,
    // sum dy, sum |dy|).
    InstCount haarOps = 0;
    for (const auto& kp : result.keypoints) {
        Descriptor desc(64, 0.0f);
        const int step = std::max(1, static_cast<int>(kp.scale * 2.0f));
        int cell = 0;
        for (int cy = -2; cy < 2; ++cy) {
            for (int cx = -2; cx < 2; ++cx, ++cell) {
                double sdx = 0.0, sadx = 0.0, sdy = 0.0, sady = 0.0;
                for (int j = 0; j < 5; ++j) {
                    for (int i = 0; i < 5; ++i) {
                        const int px = static_cast<int>(kp.x) +
                                       (cx * 5 + i) * step;
                        const int py = static_cast<int>(kp.y) +
                                       (cy * 5 + j) * step;
                        const double dx =
                            ii.boxSum(px, py - step, px + step, py + step) -
                            ii.boxSum(px - step, py - step, px, py + step);
                        const double dy =
                            ii.boxSum(px - step, py, px + step, py + step) -
                            ii.boxSum(px - step, py - step, px + step, py);
                        sdx += dx;
                        sadx += std::abs(dx);
                        sdy += dy;
                        sady += std::abs(dy);
                        haarOps += 16;  // 4 box sums x 4 reads
                    }
                }
                desc[static_cast<std::size_t>(cell * 4 + 0)] =
                    static_cast<float>(sdx);
                desc[static_cast<std::size_t>(cell * 4 + 1)] =
                    static_cast<float>(sadx);
                desc[static_cast<std::size_t>(cell * 4 + 2)] =
                    static_cast<float>(sdy);
                desc[static_cast<std::size_t>(cell * 4 + 3)] =
                    static_cast<float>(sady);
            }
        }
        // Normalize.
        double norm = 0.0;
        for (float v : desc)
            norm += static_cast<double>(v) * static_cast<double>(v);
        norm = std::sqrt(std::max(norm, 1e-12));
        for (auto& v : desc)
            v = static_cast<float>(v / norm);
        result.descriptors.push_back(std::move(desc));
    }
    if (haarOps > 0) {
        const auto n = static_cast<InstCount>(result.keypoints.size());
        ops::PhaseBuilder("surf_descriptor")
            .insts(isa::InstClass::MemRead, haarOps)
            .insts(isa::InstClass::IntAlu, haarOps)
            .insts(isa::InstClass::FpAlu, haarOps / 2)
            .insts(isa::InstClass::Shift, haarOps / 4)
            .insts(isa::InstClass::MemWrite, n * 64)
            .insts(isa::InstClass::Control, haarOps / 4)
            .insts(isa::InstClass::Stack, n * 2)
            .read(haarOps * sizeof(double))
            .write(n * 64 * sizeof(float))
            .foot(ii.sizeBytes())
            .par(0.95)
            .items(std::max<std::uint64_t>(n, 1))
            .loc(0.8)
            .div(0.1)
            .record();
    }
    return result;
}

std::size_t
runSurfBenchmark(ImageStream& batch, const SurfParams& params)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Image staged = ops::copyImage(batch.next());
        total += detectSurf(staged, params).keypoints.size();
    }
    return total;
}

}  // namespace mapp::vision
