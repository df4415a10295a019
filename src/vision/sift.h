/**
 * @file
 * SIFT: Gaussian scale-space pyramid, difference-of-Gaussians extrema
 * detection, orientation assignment and 128-dimensional gradient
 * histogram descriptors (Lowe 2004, simplified but structurally faithful).
 */

#ifndef MAPP_VISION_SIFT_H
#define MAPP_VISION_SIFT_H

#include <vector>

#include "vision/image.h"

namespace mapp::vision {

class ImageStream;

/** SIFT parameters. */
struct SiftParams
{
    int scalesPerOctave = 3;      ///< intervals s (s+3 blur levels built)
    float sigma0 = 1.6f;          ///< base blur
    float contrastThreshold = 3.0f;  ///< min |DoG| for a keypoint
    int maxOctaves = 4;
};

/** SIFT output for one image. */
struct SiftResult
{
    std::vector<Keypoint> keypoints;
    std::vector<Descriptor> descriptors;  ///< 128-d each
};

/** Detect and describe SIFT features (instrumented). */
SiftResult detectSift(const Image& img, const SiftParams& params = {});

/** Run the SIFT benchmark over a batch; returns total keypoints. */
std::size_t runSiftBenchmark(ImageStream& batch,
                             const SiftParams& params = {});

}  // namespace mapp::vision

#endif  // MAPP_VISION_SIFT_H
