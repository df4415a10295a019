#include "vision/fast.h"

#include <array>
#include <cmath>

#include "vision/ops.h"
#include "vision/registry.h"

namespace mapp::vision {

namespace {

/** Bresenham circle of radius 3: the 16 FAST ring offsets. */
constexpr std::array<std::pair<int, int>, 16> kRing = {{
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
    {0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2},
    {-1, -3},
}};

/**
 * Segment test at (x, y): true if >= arc contiguous ring pixels are all
 * brighter or all darker than center +/- threshold. Counts every ring
 * access in @p tests.
 */
bool
segmentTest(const Image& img, int x, int y, float threshold, int arc,
            InstCount& tests, float& response)
{
    const float c = img.at(x, y);
    const float hi = c + threshold;
    const float lo = c - threshold;

    // Quick rejection: any 9-of-16 contiguous arc covers at least two
    // of the four compass points, so fewer than 2 agreeing compass
    // points rules a corner out (the FAST-9 short-circuit).
    int brighter = 0;
    int darker = 0;
    for (int probe : {0, 4, 8, 12}) {
        ++tests;
        const float v = img.at(x + kRing[static_cast<std::size_t>(probe)].first,
                               y + kRing[static_cast<std::size_t>(probe)].second);
        if (v > hi)
            ++brighter;
        else if (v < lo)
            ++darker;
    }
    if (brighter < 2 && darker < 2)
        return false;

    // Full contiguous-arc scan over 16 + arc wrapped positions.
    int runBright = 0;
    int runDark = 0;
    int bestBright = 0;
    int bestDark = 0;
    float score = 0.0f;
    for (int i = 0; i < 16 + arc; ++i) {
        ++tests;
        const auto& off = kRing[static_cast<std::size_t>(i % 16)];
        const float v = img.at(x + off.first, y + off.second);
        if (v > hi) {
            ++runBright;
            runDark = 0;
            score += v - hi;
        } else if (v < lo) {
            ++runDark;
            runBright = 0;
            score += lo - v;
        } else {
            runBright = 0;
            runDark = 0;
        }
        bestBright = std::max(bestBright, runBright);
        bestDark = std::max(bestDark, runDark);
    }
    response = score / 16.0f;
    return bestBright >= arc || bestDark >= arc;
}

}  // namespace

std::vector<Keypoint>
detectFast(const Image& img, const FastParams& params)
{
    Image response(img.width(), img.height(), 0.0f);
    InstCount tests = 0;
    InstCount candidates = 0;
    for (int y = 3; y < img.height() - 3; ++y) {
        for (int x = 3; x < img.width() - 3; ++x) {
            float r = 0.0f;
            if (segmentTest(img, x, y, params.threshold, params.arcLength,
                            tests, r)) {
                response.at(x, y) = r;
                ++candidates;
            }
        }
    }

    const auto px = static_cast<InstCount>(img.pixels());
    ops::PhaseBuilder("fast_segment_test")
        .insts(isa::InstClass::MemRead, tests + px)
        .insts(isa::InstClass::IntAlu, tests * 2 + px * 2)
        .insts(isa::InstClass::FpAlu, tests)
        .insts(isa::InstClass::Control, tests * 2 + px)
        .insts(isa::InstClass::MemWrite, candidates)
        .insts(isa::InstClass::Stack, static_cast<InstCount>(img.height()))
        .read((tests + px) * sizeof(float))
        .write(candidates * sizeof(float))
        .foot(img.sizeBytes() * 2)
        .par(0.97)
        .items(px)
        .loc(0.85)
        .div(0.65)  // heavy early-exit divergence
        .record();

    auto maxima = ops::nonMaxSuppress(response, 0.0f, params.nmsRadius);
    std::vector<Keypoint> kps;
    kps.reserve(maxima.size());
    for (auto [x, y] : maxima) {
        Keypoint kp;
        kp.x = static_cast<float>(x);
        kp.y = static_cast<float>(y);
        kp.response = response.at(x, y);
        kps.push_back(kp);
    }
    return kps;
}

std::size_t
runFastBenchmark(ImageStream& batch, const FastParams& params)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Image staged = ops::copyImage(batch.next());
        total += detectFast(staged, params).size();
    }
    return total;
}

}  // namespace mapp::vision
