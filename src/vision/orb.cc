#include "vision/orb.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "vision/ops.h"
#include "vision/registry.h"

namespace mapp::vision {

namespace {

/** Deterministic BRIEF sampling pattern (pair offsets within the patch). */
std::vector<std::array<int, 4>>
briefPattern(int pairs, int radius)
{
    Rng rng(0xB41EFull);  // fixed: the pattern is part of the algorithm
    std::vector<std::array<int, 4>> out;
    out.reserve(static_cast<std::size_t>(pairs));
    for (int i = 0; i < pairs; ++i) {
        out.push_back({static_cast<int>(rng.uniformInt(-radius, radius)),
                       static_cast<int>(rng.uniformInt(-radius, radius)),
                       static_cast<int>(rng.uniformInt(-radius, radius)),
                       static_cast<int>(rng.uniformInt(-radius, radius))});
    }
    return out;
}

/** Harris corner response at (x, y) over a 5x5 window of gradients. */
float
harrisResponse(const Image& gx, const Image& gy, int x, int y)
{
    float sxx = 0.0f, syy = 0.0f, sxy = 0.0f;
    for (int j = -2; j <= 2; ++j) {
        for (int i = -2; i <= 2; ++i) {
            const float dx = gx.atClamped(x + i, y + j);
            const float dy = gy.atClamped(x + i, y + j);
            sxx += dx * dx;
            syy += dy * dy;
            sxy += dx * dy;
        }
    }
    const float det = sxx * syy - sxy * sxy;
    const float trace = sxx + syy;
    return det - 0.04f * trace * trace;
}

}  // namespace

OrbResult
detectOrb(const Image& img, const OrbParams& params)
{
    OrbResult result;
    auto kps = detectFast(img, params.fast);
    if (kps.empty())
        return result;

    Image gx, gy;
    ops::sobel(img, gx, gy);

    // Harris ranking of the FAST candidates.
    for (auto& kp : kps)
        kp.response = harrisResponse(gx, gy, static_cast<int>(kp.x),
                                     static_cast<int>(kp.y));
    {
        const auto n = static_cast<InstCount>(kps.size());
        ops::PhaseBuilder("harris_ranking")
            .insts(isa::InstClass::MemRead, n * 50)
            .insts(isa::InstClass::FpAlu, n * 85)
            .insts(isa::InstClass::Simd, n * 20)
            .insts(isa::InstClass::IntAlu, n * 12)
            .insts(isa::InstClass::Control, n * 27)
            .insts(isa::InstClass::MemWrite, n)
            .read(n * 50 * sizeof(float))
            .write(n * sizeof(float))
            .foot(img.sizeBytes() * 2)
            .par(0.95)
            .items(n)
            .loc(0.75)
            .div(0.1)
            .record();
    }

    std::sort(kps.begin(), kps.end(),
              [](const Keypoint& a, const Keypoint& b) {
                  return a.response > b.response;
              });
    if (static_cast<int>(kps.size()) > params.maxKeypoints)
        kps.resize(static_cast<std::size_t>(params.maxKeypoints));

    // Orientation by intensity centroid over the patch.
    const int r = params.patchRadius;
    for (auto& kp : kps) {
        float m10 = 0.0f;
        float m01 = 0.0f;
        for (int j = -r; j <= r; ++j) {
            for (int i = -r; i <= r; ++i) {
                const float v = img.atClamped(static_cast<int>(kp.x) + i,
                                              static_cast<int>(kp.y) + j);
                m10 += static_cast<float>(i) * v;
                m01 += static_cast<float>(j) * v;
            }
        }
        kp.angle = std::atan2(m01, m10);
    }
    {
        const auto n = static_cast<InstCount>(kps.size());
        const auto patch = static_cast<InstCount>((2 * r + 1) * (2 * r + 1));
        ops::PhaseBuilder("orientation_centroid")
            .insts(isa::InstClass::MemRead, n * patch)
            .insts(isa::InstClass::FpAlu, n * (patch * 4 + 10))
            .insts(isa::InstClass::IntAlu, n * patch)
            .insts(isa::InstClass::Control, n * patch / 4)
            .insts(isa::InstClass::MemWrite, n)
            .read(n * patch * sizeof(float))
            .foot(img.sizeBytes())
            .par(0.95)
            .items(n)
            .loc(0.9)
            .div(0.05)
            .record();
    }

    // Rotated BRIEF descriptors, packed into bytes.
    static const auto pattern =
        briefPattern(params.briefPairs, params.patchRadius);
    InstCount tests = 0;
    for (const auto& kp : kps) {
        BinaryDescriptor desc(
            static_cast<std::size_t>(params.briefPairs) / 8, 0);
        const float ca = std::cos(kp.angle);
        const float sa = std::sin(kp.angle);
        for (int p = 0; p < params.briefPairs; ++p) {
            const auto& [ax, ay, bx, by] = pattern[static_cast<std::size_t>(p)];
            auto rot = [&](int ox, int oy) {
                const float rx = ca * static_cast<float>(ox) -
                                 sa * static_cast<float>(oy);
                const float ry = sa * static_cast<float>(ox) +
                                 ca * static_cast<float>(oy);
                return img.atClamped(
                    static_cast<int>(kp.x) + static_cast<int>(std::lround(rx)),
                    static_cast<int>(kp.y) + static_cast<int>(std::lround(ry)));
            };
            ++tests;
            if (rot(ax, ay) < rot(bx, by))
                desc[static_cast<std::size_t>(p / 8)] |=
                    static_cast<std::uint8_t>(1u << (p % 8));
        }
        result.descriptors.push_back(std::move(desc));
    }
    {
        const auto n = static_cast<InstCount>(kps.size());
        ops::PhaseBuilder("brief_descriptor")
            .insts(isa::InstClass::MemRead, tests * 2)
            .insts(isa::InstClass::FpAlu, tests * 8)
            .insts(isa::InstClass::IntAlu, tests * 3)
            .insts(isa::InstClass::Shift, tests * 2)     // bit packing
            .insts(isa::InstClass::String, n * 8)        // descriptor stores
            .insts(isa::InstClass::Control, tests)
            .insts(isa::InstClass::MemWrite, n * 4)
            .insts(isa::InstClass::Stack, n * 2)
            .read(tests * 2 * sizeof(float))
            .write(n * static_cast<Bytes>(params.briefPairs) / 8)
            .foot(img.sizeBytes())
            .par(0.95)
            .items(n)
            .loc(0.8)
            .div(0.25)
            .record();
    }

    result.keypoints = std::move(kps);
    return result;
}

std::size_t
runOrbBenchmark(ImageStream& batch, const OrbParams& params)
{
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Image staged = ops::copyImage(batch.next());
        const auto res = detectOrb(staged, params);
        for (const auto& d : res.descriptors)
            bytes += d.size();
    }
    return bytes;
}

}  // namespace mapp::vision
