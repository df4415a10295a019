/**
 * @file
 * Object recognition: the classic feature-extraction + classification
 * pipeline (HoG descriptors fed to one-vs-rest linear SVMs), as Table II
 * describes ("uses both feature extraction and classification").
 */

#ifndef MAPP_VISION_OBJREC_H
#define MAPP_VISION_OBJREC_H

#include <vector>

#include "vision/hog.h"
#include "vision/image.h"
#include "vision/svm.h"

namespace mapp::vision {

class ImageStream;

/** ObjRec parameters. */
struct ObjRecParams
{
    /** Coarser HoG grid than the standalone benchmark keeps the
     * one-vs-rest SVMs small. */
    HogParams hog{.cellSize = 16, .blockSize = 2, .bins = 9};
    SvmParams svm{.c = 1.0, .epochs = 8, .tol = 1e-3};
    int numClasses = 3;
    int prototypesPerClass = 4;  ///< synthetic training scenes per class
};

/**
 * An object recognizer: trained on synthetic class prototypes (textures,
 * disc scenes, face scenes), then classifies images by HoG + SVM.
 */
class ObjectRecognizer
{
  public:
    /** Train the one-vs-rest models on generated prototypes. */
    void train(int image_size, std::uint64_t seed,
               const ObjRecParams& params = {});

    /** Classify one image; returns the class index. */
    int classify(const Image& img) const;

    bool trained() const { return !models_.empty(); }

  private:
    ObjRecParams params_;
    std::vector<LinearSvm> models_;
};

/**
 * Run the ObjRec benchmark: train on prototypes once, then classify each
 * image as it arrives; returns the sum of predicted class indices
 * (checksum).
 */
std::size_t runObjRecBenchmark(ImageStream& batch,
                               const ObjRecParams& params = {});

/**
 * Profile the ObjRec benchmark by shape: the same phases
 * runObjRecBenchmark records, in the same order. Training and the first
 * image run for real; that image's phases (staging, HoG, classification)
 * are replayed for every further image. Valid because every count
 * follows the image size, not its content.
 */
void profileObjRecByShape(ImageStream& batch,
                          const ObjRecParams& params = {});

}  // namespace mapp::vision

#endif  // MAPP_VISION_OBJREC_H
