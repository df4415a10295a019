#include "vision/facedet.h"

#include <algorithm>
#include <cmath>

#include "vision/ops.h"
#include "vision/registry.h"

namespace mapp::vision {

namespace {

/**
 * One Haar-like contrast feature in base-window (20x20) coordinates:
 * mean(boxA) - mean(boxB), compared against a threshold.
 */
struct HaarStump
{
    // Box corners in base-window units.
    int ax0, ay0, ax1, ay1;
    int bx0, by0, bx1, by1;
    float threshold;  ///< vote +1 if (meanA - meanB) > threshold
    float weight;
};

/** One cascade stage: weighted stump votes vs. a stage threshold. */
struct CascadeStage
{
    std::vector<HaarStump> stumps;
    float stageThreshold;
};

/**
 * The built-in cascade, tuned for the synthetic face pattern: a bright
 * face region with dark eye boxes in the upper half and a dark mouth bar
 * below the center. Early stages are cheap and reject most texture.
 */
const std::vector<CascadeStage>&
builtinCascade()
{
    static const std::vector<CascadeStage> cascade = {
        // Stage 0: midface brighter than the eye row (2 stumps).
        {{
             {4, 10, 16, 14, 4, 4, 16, 8, 30.0f, 1.0f},    // midface vs eyes
             {2, 2, 18, 18, 0, 0, 20, 2, 15.0f, 0.6f},     // center vs top strip
         },
         1.0f},
        // Stage 1: eye boxes dark vs the between-eyes bridge (4 stumps).
        {{
             {8, 4, 12, 8, 3, 4, 7, 8, 40.0f, 1.0f},      // bridge vs left eye
             {8, 4, 12, 8, 13, 4, 17, 8, 40.0f, 1.0f},    // bridge vs right eye
             {4, 10, 16, 13, 6, 14, 14, 17, 30.0f, 0.7f},  // cheeks vs mouth
             {6, 8, 14, 13, 0, 0, 20, 3, 15.0f, 0.5f},     // midface vs brow strip
         },
         1.6f},
        // Stage 2: fine structure (6 stumps).
        {{
             {6, 9, 14, 12, 6, 14, 14, 16, 30.0f, 1.0f},   // cheeks vs mouth bar
             {3, 9, 7, 12, 3, 4, 7, 8, 30.0f, 0.8f},       // left cheek vs eye
             {13, 9, 17, 12, 13, 4, 17, 8, 30.0f, 0.8f},   // right cheek vs eye
             {6, 8, 14, 14, 0, 0, 4, 4, 15.0f, 0.5f},      // center vs corner
             {8, 0, 12, 20, 0, 0, 4, 20, 15.0f, 0.4f},     // center vs left border
             {8, 0, 12, 20, 16, 0, 20, 20, 15.0f, 0.4f},   // center vs right border
         },
         2.0f},
    };
    return cascade;
}

/** Mean intensity of a base-window box scaled into the image. */
double
boxMean(const IntegralImage& ii, int wx, int wy, float scale, int x0,
        int y0, int x1, int y1)
{
    const int px0 = wx + static_cast<int>(static_cast<float>(x0) * scale);
    const int py0 = wy + static_cast<int>(static_cast<float>(y0) * scale);
    const int px1 = wx + static_cast<int>(static_cast<float>(x1) * scale) - 1;
    const int py1 = wy + static_cast<int>(static_cast<float>(y1) * scale) - 1;
    const double area =
        std::max(1.0, static_cast<double>((px1 - px0 + 1)) *
                          static_cast<double>((py1 - py0 + 1)));
    return ii.boxSum(px0, py0, px1, py1) / area;
}

}  // namespace

std::vector<FaceBox>
detectFaces(const Image& img, const FaceDetParams& params)
{
    const IntegralImage ii = ops::integral(img);
    const auto& cascade = builtinCascade();

    std::vector<FaceBox> found;
    InstCount windows = 0;
    InstCount stumpEvals = 0;

    float scale = 1.0f;
    for (int s = 0; s < params.maxScales; ++s, scale *= params.scaleStep) {
        const int win =
            static_cast<int>(static_cast<float>(params.baseWindow) * scale);
        if (win >= img.width() || win >= img.height())
            break;
        for (int y = 0; y + win < img.height(); y += params.stride) {
            for (int x = 0; x + win < img.width(); x += params.stride) {
                ++windows;
                bool rejected = false;
                float totalScore = 0.0f;
                for (const auto& stage : cascade) {
                    float stageScore = 0.0f;
                    for (const auto& st : stage.stumps) {
                        ++stumpEvals;
                        const double diff =
                            boxMean(ii, x, y, scale, st.ax0, st.ay0, st.ax1,
                                    st.ay1) -
                            boxMean(ii, x, y, scale, st.bx0, st.by0, st.bx1,
                                    st.by1);
                        if (static_cast<float>(diff) > st.threshold)
                            stageScore += st.weight;
                    }
                    if (stageScore < stage.stageThreshold) {
                        rejected = true;
                        break;
                    }
                    totalScore += stageScore;
                }
                if (!rejected)
                    found.push_back({x, y, win, totalScore});
            }
        }
    }

    // Greedy overlap suppression: keep the best-scoring box per cluster.
    std::sort(found.begin(), found.end(),
              [](const FaceBox& a, const FaceBox& b) {
                  return a.score > b.score;
              });
    std::vector<FaceBox> kept;
    for (const auto& box : found) {
        bool overlaps = false;
        for (const auto& k : kept) {
            const int dx = (box.x + box.size / 2) - (k.x + k.size / 2);
            const int dy = (box.y + box.size / 2) - (k.y + k.size / 2);
            const int limit = (box.size + k.size) / 3;
            if (dx * dx + dy * dy < limit * limit) {
                overlaps = true;
                break;
            }
        }
        if (!overlaps)
            kept.push_back(box);
    }

    // Cascade phase: 8 integral reads + ~14 int ops per stump, a call
    // frame per window, and early exits that diverge hard.
    ops::PhaseBuilder("haar_cascade")
        .insts(isa::InstClass::MemRead, stumpEvals * 8)
        .insts(isa::InstClass::IntAlu, stumpEvals * 10)
        .insts(isa::InstClass::FpAlu, stumpEvals * 6)
        .insts(isa::InstClass::Shift, stumpEvals * 2)
        .insts(isa::InstClass::Control, stumpEvals * 3 + windows * 2)
        .insts(isa::InstClass::Stack, windows * 4)
        .insts(isa::InstClass::MemWrite,
               static_cast<InstCount>(found.size()) * 4)
        .read(stumpEvals * 8 * sizeof(double))
        .write(static_cast<Bytes>(found.size()) * sizeof(FaceBox))
        .foot(ii.sizeBytes() + img.sizeBytes())
        .par(0.96)
        .items(windows)
        .loc(0.85)
        .div(0.75)  // per-window early rejection
        .record();
    return kept;
}

std::size_t
runFaceDetBenchmark(ImageStream& batch, const FaceDetParams& params)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Image staged = ops::copyImage(batch.next());
        total += detectFaces(staged, params).size();
    }
    return total;
}

}  // namespace mapp::vision
