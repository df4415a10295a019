#include "vision/image.h"

#include <algorithm>
#include <cmath>

namespace mapp::vision {

Image::Image(int w, int h, float fill)
    : w_(w), h_(h),
      data_(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), fill)
{
}

double
Image::mean() const
{
    if (data_.empty())
        return 0.0;
    double acc = 0.0;
    for (float v : data_)
        acc += v;
    return acc / static_cast<double>(data_.size());
}

IntegralImage::IntegralImage(const Image& img)
    : w_(img.width()), h_(img.height()),
      sums_(static_cast<std::size_t>(w_ + 1) *
                static_cast<std::size_t>(h_ + 1),
            0.0)
{
    const auto stride = static_cast<std::size_t>(w_ + 1);
    for (int y = 0; y < h_; ++y) {
        double rowSum = 0.0;
        for (int x = 0; x < w_; ++x) {
            rowSum += img.at(x, y);
            sums_[(static_cast<std::size_t>(y) + 1) * stride +
                  static_cast<std::size_t>(x) + 1] =
                sums_[static_cast<std::size_t>(y) * stride +
                      static_cast<std::size_t>(x) + 1] +
                rowSum;
        }
    }
}

namespace synth {

Image
texture(int w, int h, Rng& rng, int cell_size)
{
    // Random lattice values, bilinearly interpolated.
    const int gw = w / cell_size + 2;
    const int gh = h / cell_size + 2;
    std::vector<float> grid(static_cast<std::size_t>(gw) *
                            static_cast<std::size_t>(gh));
    for (auto& v : grid)
        v = static_cast<float>(rng.uniform(40.0, 210.0));

    // A pixel blends the lattice values above and below it (top, bot)
    // by its row fraction; top and bot depend only on the column and
    // the lattice row, so they are computed once per lattice row.
    std::vector<float> top(static_cast<std::size_t>(w));
    std::vector<float> bot(static_cast<std::size_t>(w));
    Image img(w, h);
    for (int y = 0; y < h; ++y) {
        const int gy = y / cell_size;
        if (y % cell_size == 0) {
            const float* g0 = &grid[static_cast<std::size_t>(gy) *
                                    static_cast<std::size_t>(gw)];
            const float* g1 = g0 + gw;
            for (int x = 0; x < w; ++x) {
                const auto gx = static_cast<std::size_t>(x / cell_size);
                const float fx = static_cast<float>(x % cell_size) /
                                 static_cast<float>(cell_size);
                const auto c = static_cast<std::size_t>(x);
                top[c] = g0[gx] * (1 - fx) + g0[gx + 1] * fx;
                bot[c] = g1[gx] * (1 - fx) + g1[gx + 1] * fx;
            }
        }
        const float fy =
            static_cast<float>(y % cell_size) / static_cast<float>(cell_size);
        float* out = &img.at(0, y);
        for (int x = 0; x < w; ++x) {
            const auto c = static_cast<std::size_t>(x);
            out[x] = top[c] * (1 - fy) + bot[c] * fy;
        }
    }
    return img;
}

void
drawRect(Image& img, int x0, int y0, int x1, int y1, float value)
{
    x0 = std::max(x0, 0);
    y0 = std::max(y0, 0);
    x1 = std::min(x1, img.width() - 1);
    y1 = std::min(y1, img.height() - 1);
    for (int y = y0; y <= y1; ++y)
        for (int x = x0; x <= x1; ++x)
            img.at(x, y) = value;
}

void
drawDisc(Image& img, int cx, int cy, int radius, float value)
{
    const int r2 = radius * radius;
    for (int y = std::max(cy - radius, 0);
         y <= std::min(cy + radius, img.height() - 1); ++y) {
        for (int x = std::max(cx - radius, 0);
             x <= std::min(cx + radius, img.width() - 1); ++x) {
            const int dx = x - cx;
            const int dy = y - cy;
            if (dx * dx + dy * dy <= r2)
                img.at(x, y) = value;
        }
    }
}

namespace {

/** Draw a thick line: a square brush stamped along the segment. */
void
drawLine(Image& img, int x0, int y0, int x1, int y1, float value,
         int thickness)
{
    const int steps =
        std::max(std::abs(x1 - x0), std::abs(y1 - y0)) + 1;
    for (int i = 0; i < steps; ++i) {
        const float t =
            static_cast<float>(i) / static_cast<float>(std::max(steps - 1, 1));
        const int x =
            x0 + static_cast<int>(std::lround(t * static_cast<float>(x1 - x0)));
        const int y =
            y0 + static_cast<int>(std::lround(t * static_cast<float>(y1 - y0)));
        for (int dy = -thickness / 2; dy <= thickness / 2; ++dy)
            for (int dx = -thickness / 2; dx <= thickness / 2; ++dx)
                if (img.inside(x + dx, y + dy))
                    img.at(x + dx, y + dy) = value;
    }
}

}  // namespace

Image
scene(int w, int h, Rng& rng)
{
    Image img = texture(w, h, rng);

    const int numRects = static_cast<int>(rng.uniformInt(3, 6));
    for (int i = 0; i < numRects; ++i) {
        const int x0 = static_cast<int>(rng.uniformInt(0, w - 12));
        const int y0 = static_cast<int>(rng.uniformInt(0, h - 12));
        const int rw = static_cast<int>(rng.uniformInt(8, w / 3));
        const int rh = static_cast<int>(rng.uniformInt(8, h / 3));
        drawRect(img, x0, y0, x0 + rw, y0 + rh,
                 static_cast<float>(rng.uniform(0.0, 255.0)));
    }
    const int numDiscs = static_cast<int>(rng.uniformInt(2, 4));
    for (int i = 0; i < numDiscs; ++i) {
        drawDisc(img, static_cast<int>(rng.uniformInt(8, w - 8)),
                 static_cast<int>(rng.uniformInt(8, h - 8)),
                 static_cast<int>(rng.uniformInt(4, h / 6)),
                 static_cast<float>(rng.uniform(0.0, 255.0)));
    }
    const int numLines = static_cast<int>(rng.uniformInt(2, 5));
    for (int i = 0; i < numLines; ++i) {
        drawLine(img, static_cast<int>(rng.uniformInt(0, w - 1)),
                 static_cast<int>(rng.uniformInt(0, h - 1)),
                 static_cast<int>(rng.uniformInt(0, w - 1)),
                 static_cast<int>(rng.uniformInt(0, h - 1)),
                 static_cast<float>(rng.uniform(0.0, 255.0)), 2);
    }
    return img;
}

void
stampFace(Image& img, int cx, int cy, int half_width)
{
    const int hw = half_width;
    const int hh = half_width * 5 / 4;
    // Bright face oval (approximated by a disc + forehead rect).
    drawDisc(img, cx, cy, hw, 200.0f);
    drawRect(img, cx - hw / 2, cy - hh, cx + hw / 2, cy, 200.0f);
    // Dark eye boxes in the upper half (floored so small faces keep
    // detectable eye contrast).
    const int eyeW = std::max(hw / 3, 4);
    const int eyeH = std::max(hw / 4, 3);
    const int eyeY = cy - hw / 3;
    drawRect(img, cx - hw / 2 - eyeW / 2, eyeY - eyeH / 2,
             cx - hw / 2 + eyeW / 2, eyeY + eyeH / 2, 60.0f);
    drawRect(img, cx + hw / 2 - eyeW / 2, eyeY - eyeH / 2,
             cx + hw / 2 + eyeW / 2, eyeY + eyeH / 2, 60.0f);
    // Dark mouth bar in the lower half.
    drawRect(img, cx - hw / 3, cy + hw / 2 - 1, cx + hw / 3, cy + hw / 2 + 1,
             70.0f);
}

Image
facesScene(int w, int h, Rng& rng, int num_faces)
{
    Image img = texture(w, h, rng);
    for (int i = 0; i < num_faces; ++i) {
        const int hw = static_cast<int>(rng.uniformInt(10, 15));
        const int cx = static_cast<int>(rng.uniformInt(hw + 2, w - hw - 3));
        const int cy = static_cast<int>(rng.uniformInt(hw + 2, h - hw - 3));
        stampFace(img, cx, cy, hw);
    }
    return img;
}

}  // namespace synth

}  // namespace mapp::vision
