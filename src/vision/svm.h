/**
 * @file
 * Linear support vector machine trained by dual coordinate descent
 * (Hsieh et al. 2008) — the role ThunderSVM plays in the paper. The SVM
 * benchmark trains a classifier on descriptors extracted from the batch
 * and then predicts the batch, so its cost is superlinear in batch size
 * like real SVM training.
 */

#ifndef MAPP_VISION_SVM_H
#define MAPP_VISION_SVM_H

#include <vector>

#include "vision/image.h"

namespace mapp::vision {

class ImageStream;

/** Linear SVM hyper-parameters. */
struct SvmParams
{
    double c = 1.0;      ///< regularization
    int epochs = 60;     ///< coordinate-descent sweeps
    double tol = 1e-6;   ///< projected-gradient stop tolerance
};

/** A trained linear SVM model: w . x + b. */
class LinearSvm
{
  public:
    /**
     * Train on rows of @p x with labels in {-1, +1} (instrumented phases
     * "svm_train_epoch" per sweep).
     */
    void train(const std::vector<Descriptor>& x,
               const std::vector<int>& y, const SvmParams& params = {});

    /** Signed decision value for a sample. */
    double decision(const Descriptor& x) const;

    /** Predicted label in {-1, +1}. */
    int predict(const Descriptor& x) const;

    /** Fraction of correctly classified samples. */
    double accuracy(const std::vector<Descriptor>& x,
                    const std::vector<int>& y) const;

    const std::vector<double>& weights() const { return w_; }
    double bias() const { return b_; }
    bool trained() const { return !w_.empty(); }

  private:
    std::vector<double> w_;
    double b_ = 0.0;
};

/**
 * Run the SVM benchmark: extract compact descriptors from the batch,
 * train a linear SVM, predict the batch back; returns correct count.
 */
std::size_t runSvmBenchmark(ImageStream& batch,
                            const SvmParams& params = {});

/**
 * Extract a compact 1024-d descriptor (32x32 bilinear thumbnail,
 * mean-centered) used by the SVM benchmark (instrumented).
 */
Descriptor thumbnailDescriptor(const Image& img);

}  // namespace mapp::vision

#endif  // MAPP_VISION_SVM_H
