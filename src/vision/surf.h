/**
 * @file
 * SURF: integral-image box-filter approximation of the Hessian
 * determinant across scales, non-max suppression, and Haar-wavelet
 * 64-dimensional descriptors (Bay et al. 2006, simplified).
 */

#ifndef MAPP_VISION_SURF_H
#define MAPP_VISION_SURF_H

#include <vector>

#include "vision/image.h"

namespace mapp::vision {

class ImageStream;

/** SURF parameters. */
struct SurfParams
{
    std::vector<int> filterSizes = {9, 15, 21, 27};  ///< box filter widths
    float hessianThreshold = 500.0f;
    int nmsRadius = 3;
};

/** SURF output for one image. */
struct SurfResult
{
    std::vector<Keypoint> keypoints;
    std::vector<Descriptor> descriptors;  ///< 64-d each
};

/** Detect and describe SURF features (instrumented). */
SurfResult detectSurf(const Image& img, const SurfParams& params = {});

/** Run the SURF benchmark over a batch; returns total keypoints. */
std::size_t runSurfBenchmark(ImageStream& batch,
                             const SurfParams& params = {});

}  // namespace mapp::vision

#endif  // MAPP_VISION_SURF_H
