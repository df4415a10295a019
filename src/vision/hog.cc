#include "vision/hog.h"

#include <algorithm>
#include <cmath>

#include "vision/ops.h"
#include "vision/registry.h"

namespace mapp::vision {

Descriptor
computeHog(const Image& img, const HogParams& params)
{
    Image gx, gy, mag, orient;
    ops::sobel(img, gx, gy);
    ops::gradientPolar(gx, gy, mag, orient);

    const int cellsX = img.width() / params.cellSize;
    const int cellsY = img.height() / params.cellSize;
    const auto bins = static_cast<std::size_t>(params.bins);

    // Cell histograms (unsigned gradient: orientation folded into [0, pi)).
    std::vector<double> cells(
        static_cast<std::size_t>(cellsX) * static_cast<std::size_t>(cellsY) *
            bins,
        0.0);
    // A pixel's cell column depends only on x: compute it once per column.
    std::vector<std::size_t> cellOfX(
        static_cast<std::size_t>(cellsX * params.cellSize));
    for (std::size_t x = 0; x < cellOfX.size(); ++x)
        cellOfX[x] = x / static_cast<std::size_t>(params.cellSize);
    InstCount votes = 0;
    for (int y = 0; y < cellsY * params.cellSize; ++y) {
        double* cellRow =
            cells.data() + static_cast<std::size_t>(y / params.cellSize) *
                               static_cast<std::size_t>(cellsX) * bins;
        for (int x = 0; x < cellsX * params.cellSize; ++x) {
            float o = orient.at(x, y);
            if (o < 0.0f)
                o += static_cast<float>(M_PI);
            if (o >= static_cast<float>(M_PI))
                o -= static_cast<float>(M_PI);
            int bin = static_cast<int>(o / static_cast<float>(M_PI) *
                                       static_cast<float>(params.bins));
            bin = std::clamp(bin, 0, params.bins - 1);
            cellRow[cellOfX[static_cast<std::size_t>(x)] * bins +
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

std::size_t
runHogBenchmark(ImageStream& batch, const HogParams& params)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Image staged = ops::copyImage(batch.next());
        total += computeHog(staged, params).size();
    }
    return total;
}

}  // namespace mapp::vision
