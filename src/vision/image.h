/**
 * @file
 * Grayscale images, keypoints and the synthetic scene generators that
 * stand in for the paper's image batches. The generators are seeded and
 * deterministic; they draw textured backgrounds with rectangles, discs
 * and lines (corner/edge content for the feature detectors) and optional
 * face-like patterns (for the Haar cascade).
 */

#ifndef MAPP_VISION_IMAGE_H
#define MAPP_VISION_IMAGE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace mapp::vision {

/** A dense single-channel float image, values nominally in [0, 255]. */
class Image
{
  public:
    Image() = default;

    /** A w x h image filled with @p fill. */
    Image(int w, int h, float fill = 0.0f);

    int width() const { return w_; }
    int height() const { return h_; }
    std::size_t pixels() const { return data_.size(); }

    /** Bytes occupied by the pixel data. */
    Bytes sizeBytes() const { return data_.size() * sizeof(float); }

    /** Unchecked access. */
    float& at(int x, int y) { return data_[idx(x, y)]; }
    float at(int x, int y) const { return data_[idx(x, y)]; }

    /** Access with coordinates clamped to the border. */
    float
    atClamped(int x, int y) const
    {
        return at(std::clamp(x, 0, w_ - 1), std::clamp(y, 0, h_ - 1));
    }

    /** True if (x, y) lies inside the image. */
    bool inside(int x, int y) const
    {
        return x >= 0 && y >= 0 && x < w_ && y < h_;
    }

    const std::vector<float>& data() const { return data_; }
    std::vector<float>& data() { return data_; }

    /** Mean pixel value (checksum aid). */
    double mean() const;

  private:
    std::size_t
    idx(int x, int y) const
    {
        return static_cast<std::size_t>(y) * static_cast<std::size_t>(w_) +
               static_cast<std::size_t>(x);
    }

    int w_ = 0;
    int h_ = 0;
    std::vector<float> data_;
};

/** A detected interest point. */
struct Keypoint
{
    float x = 0.0f;
    float y = 0.0f;
    float scale = 1.0f;     ///< detection scale (pyramid level, sigma)
    float angle = 0.0f;     ///< dominant orientation in radians
    float response = 0.0f;  ///< detector response (corner score etc.)
};

/** A float feature descriptor (SIFT: 128-d, SURF: 64-d, HoG: variable). */
using Descriptor = std::vector<float>;

/** A binary descriptor (ORB/BRIEF: 32 bytes = 256 bits). */
using BinaryDescriptor = std::vector<std::uint8_t>;

/** Summed-area table with (w+1) x (h+1) layout for O(1) box sums. */
class IntegralImage
{
  public:
    IntegralImage() = default;

    /** Build from an image (unrecorded; see ops::integral for the
     * instrumented variant). */
    explicit IntegralImage(const Image& img);

    int width() const { return w_; }
    int height() const { return h_; }

    /**
     * Inclusive box sum over [x0, x1] x [y0, y1]; coordinates are clamped
     * to the image.
     */
    double
    boxSum(int x0, int y0, int x1, int y1) const
    {
        x0 = std::clamp(x0, 0, w_ - 1);
        y0 = std::clamp(y0, 0, h_ - 1);
        x1 = std::clamp(x1, 0, w_ - 1);
        y1 = std::clamp(y1, 0, h_ - 1);
        if (x1 < x0 || y1 < y0)
            return 0.0;
        return sumAt(x1 + 1, y1 + 1) - sumAt(x0, y1 + 1) -
               sumAt(x1 + 1, y0) + sumAt(x0, y0);
    }

    Bytes sizeBytes() const { return sums_.size() * sizeof(double); }

  private:
    /** The (x, y) entry of the (w_+1) x (h_+1) table. */
    double
    sumAt(int x, int y) const
    {
        return sums_[static_cast<std::size_t>(y) *
                         static_cast<std::size_t>(w_ + 1) +
                     static_cast<std::size_t>(x)];
    }

    int w_ = 0;
    int h_ = 0;
    std::vector<double> sums_;  // (w_+1) x (h_+1)
};

namespace synth {

/** Smooth value-noise texture (cellSize-pixel lattice, bilinear). */
Image texture(int w, int h, Rng& rng, int cell_size = 8);

/** Draw an axis-aligned filled rectangle. */
void drawRect(Image& img, int x0, int y0, int x1, int y1, float value);

/** Draw a filled disc. */
void drawDisc(Image& img, int cx, int cy, int radius, float value);

/**
 * A cluttered scene: textured background plus random rectangles, discs
 * and lines — rich in corners and edges for the feature detectors.
 */
Image scene(int w, int h, Rng& rng);

/**
 * Stamp a face-like pattern (bright oval, two dark eye boxes, dark mouth
 * bar) centered at (cx, cy) with the given half-width.
 */
void stampFace(Image& img, int cx, int cy, int half_width);

/** A scene containing @p num_faces face-like patterns. */
Image facesScene(int w, int h, Rng& rng, int num_faces = 3);

}  // namespace synth

}  // namespace mapp::vision

#endif  // MAPP_VISION_IMAGE_H
