/**
 * @file
 * Brute-force k-nearest-neighbor classification (Garcia et al. 2010
 * style: all-pairs distances + per-query top-k selection).
 */

#ifndef MAPP_VISION_KNN_H
#define MAPP_VISION_KNN_H

#include <vector>

#include "vision/image.h"

namespace mapp::vision {

class ImageStream;

/** KNN parameters. */
struct KnnParams
{
    int k = 5;          ///< neighbors consulted per query
    int patchGrid = 5;  ///< patches per image side (5 -> 25 descriptors)
    int patchDim = 12;  ///< descriptor side (12 -> 144-d)
};

/**
 * Extract a grid of patch descriptors from an image: the image is cut
 * into patchGrid x patchGrid tiles, each resized to patchDim x patchDim
 * and mean-centered. KNN then matches descriptors, not whole images,
 * like the high-dimensional feature matching of Garcia et al.
 */
std::vector<Descriptor> gridDescriptors(const Image& img,
                                        const KnnParams& params = {});

/** A brute-force KNN classifier over float descriptors. */
class KnnClassifier
{
  public:
    /** Store the reference set (no training computation). */
    void fit(std::vector<Descriptor> x, std::vector<int> y);

    /**
     * Classify queries by majority vote among the k nearest references
     * (instrumented: "distance_matrix" + "knn_select" phases).
     */
    std::vector<int> predict(const std::vector<Descriptor>& queries,
                             const KnnParams& params = {}) const;

    std::size_t referenceCount() const { return x_.size(); }

  private:
    std::vector<Descriptor> x_;
    std::vector<int> y_;
};

/**
 * Run the KNN benchmark: split the batch into references and queries,
 * classify the queries; returns the number classified into class 1.
 */
std::size_t runKnnBenchmark(ImageStream& batch,
                            const KnnParams& params = {});

/**
 * Profile the KNN benchmark by shape: the same phases runKnnBenchmark
 * records, in the same order. The first image is staged and cut into
 * descriptors for real, and its phases are replayed for every further
 * image; classification is recorded from the query, reference and
 * dimension counts alone, with no distance computed and no query
 * descriptor held. Valid because no KNN count reads image content.
 */
void profileKnnByShape(ImageStream& batch, const KnnParams& params = {});

}  // namespace mapp::vision

#endif  // MAPP_VISION_KNN_H
