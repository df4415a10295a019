/**
 * @file
 * FAST-9 corner detection (Rosten & Drummond segment test) with
 * instrumented phases. The segment test's early-exit behaviour is counted
 * from the actual tests performed, so textured images produce the
 * control-heavy, divergent mix the real detector has.
 */

#ifndef MAPP_VISION_FAST_H
#define MAPP_VISION_FAST_H

#include <vector>

#include "vision/image.h"

namespace mapp::vision {

class ImageStream;

/** FAST detector parameters. */
struct FastParams
{
    float threshold = 20.0f;  ///< min |center - ring| contrast
    int arcLength = 9;        ///< contiguous ring pixels required
    int nmsRadius = 3;        ///< non-max suppression radius
};

/**
 * Detect FAST corners in @p img.
 *
 * Emits instrumented phases "fast_segment_test" and "non_max_suppress".
 */
std::vector<Keypoint> detectFast(const Image& img,
                                 const FastParams& params = {});

/**
 * Run the FAST benchmark over a batch: detect corners in every image and
 * return the total number of keypoints (checksum).
 */
std::size_t runFastBenchmark(ImageStream& batch,
                             const FastParams& params = {});

}  // namespace mapp::vision

#endif  // MAPP_VISION_FAST_H
