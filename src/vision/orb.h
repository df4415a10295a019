/**
 * @file
 * ORB: FAST keypoints ranked by Harris response, oriented by the
 * intensity centroid, described with rotated BRIEF (256 binary tests).
 */

#ifndef MAPP_VISION_ORB_H
#define MAPP_VISION_ORB_H

#include <vector>

#include "vision/fast.h"
#include "vision/image.h"

namespace mapp::vision {

class ImageStream;

/** ORB parameters. */
struct OrbParams
{
    FastParams fast;
    int maxKeypoints = 200;   ///< keep the strongest N by Harris score
    int briefPairs = 256;     ///< binary tests per descriptor
    int patchRadius = 8;      ///< descriptor sampling patch
};

/** An ORB detection result for one image. */
struct OrbResult
{
    std::vector<Keypoint> keypoints;
    std::vector<BinaryDescriptor> descriptors;
};

/** Detect and describe ORB features (instrumented). */
OrbResult detectOrb(const Image& img, const OrbParams& params = {});

/**
 * Run the ORB benchmark over a batch; returns total descriptor bytes as a
 * checksum.
 */
std::size_t runOrbBenchmark(ImageStream& batch,
                            const OrbParams& params = {});

}  // namespace mapp::vision

#endif  // MAPP_VISION_ORB_H
