/**
 * @file
 * Histogram of Oriented Gradients (Dalal & Triggs): cell-level gradient
 * orientation histograms with overlapping-block L2 normalization.
 */

#ifndef MAPP_VISION_HOG_H
#define MAPP_VISION_HOG_H

#include <vector>

#include "vision/image.h"

namespace mapp::vision {

class ImageStream;

/** HoG parameters. */
struct HogParams
{
    int cellSize = 8;    ///< pixels per cell side
    int blockSize = 2;   ///< cells per block side
    int bins = 9;        ///< orientation bins over [0, pi)
};

/** Compute the HoG descriptor of a whole image (instrumented). */
Descriptor computeHog(const Image& img, const HogParams& params = {});

/** Run the HoG benchmark over a batch; returns total descriptor floats. */
std::size_t runHogBenchmark(ImageStream& batch,
                            const HogParams& params = {});

}  // namespace mapp::vision

#endif  // MAPP_VISION_HOG_H
