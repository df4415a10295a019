/**
 * @file
 * Viola-Jones style face detection: a Haar cascade of boosted stump
 * stages evaluated over a sliding window across scales, with early
 * rejection. The cascade weights are fixed (built-in model) and match
 * the face pattern synth::stampFace draws, so the detector genuinely
 * fires on faces and rejects texture.
 */

#ifndef MAPP_VISION_FACEDET_H
#define MAPP_VISION_FACEDET_H

#include <vector>

#include "vision/image.h"

namespace mapp::vision {

class ImageStream;

/** Face detector parameters. */
struct FaceDetParams
{
    int baseWindow = 20;        ///< detection window at scale 1
    float scaleStep = 1.4f;     ///< multiplicative scale progression
    int maxScales = 4;
    int stride = 2;             ///< window step in pixels
};

/** A detection: window top-left corner and size. */
struct FaceBox
{
    int x = 0;
    int y = 0;
    int size = 0;
    float score = 0.0f;
};

/** Detect faces in an image (instrumented "haar_cascade" phases). */
std::vector<FaceBox> detectFaces(const Image& img,
                                 const FaceDetParams& params = {});

/** Run the FaceDet benchmark over a batch; returns total detections. */
std::size_t runFaceDetBenchmark(ImageStream& batch,
                                const FaceDetParams& params = {});

}  // namespace mapp::vision

#endif  // MAPP_VISION_FACEDET_H
