#include "vision/ops.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "profiler/op_profiler.h"

namespace mapp::vision::ops {

PhaseBuilder::PhaseBuilder(std::string name)
{
    phase_.name = std::move(name);
}

PhaseBuilder&
PhaseBuilder::insts(isa::InstClass c, InstCount n)
{
    phase_.mix.add(c, n);
    return *this;
}

PhaseBuilder&
PhaseBuilder::read(Bytes b)
{
    phase_.bytesRead += b;
    return *this;
}

PhaseBuilder&
PhaseBuilder::write(Bytes b)
{
    phase_.bytesWritten += b;
    return *this;
}

PhaseBuilder&
PhaseBuilder::foot(Bytes b)
{
    phase_.footprint = b;
    return *this;
}

PhaseBuilder&
PhaseBuilder::par(double fraction)
{
    phase_.parallelFraction = fraction;
    return *this;
}

PhaseBuilder&
PhaseBuilder::staged(bool host_staged)
{
    phase_.hostStaged = host_staged;
    return *this;
}

PhaseBuilder&
PhaseBuilder::items(std::uint64_t n)
{
    phase_.workItems = std::max<std::uint64_t>(n, 1);
    return *this;
}

PhaseBuilder&
PhaseBuilder::loc(double locality)
{
    phase_.locality = locality;
    return *this;
}

PhaseBuilder&
PhaseBuilder::div(double divergence)
{
    phase_.branchDivergence = divergence;
    return *this;
}

void
PhaseBuilder::record()
{
    profiler::record(std::move(phase_));
}

void
recordRepeated(std::size_t times, const std::function<void()>& step)
{
    const isa::WorkloadTrace* trace = profiler::activeTrace();
    const std::size_t mark = trace != nullptr ? trace->size() : 0;
    step();
    if (trace == nullptr)
        return;
    // Copied out first: recording appends to the vector read from.
    const std::vector<isa::KernelPhase> group(
        trace->phases().begin() + static_cast<std::ptrdiff_t>(mark),
        trace->phases().end());
    for (std::size_t t = 0; t < times; ++t)
        for (const auto& phase : group)
            profiler::record(phase);
}

namespace {

using isa::InstClass;

/** Bytes of a float. */
constexpr Bytes kF = sizeof(float);

/**
 * The rows of an image with @p r clamped border columns on each side,
 * so that a filter's inner loop needs no per-tap clamping:
 * row(y)[x] == img.atClamped(x, y) for any y and for x in [-r, w + r).
 * With r == 0 the rows are the image's own; otherwise a padded copy.
 */
class ClampedRows
{
  public:
    ClampedRows(const Image& img, int r)
        : h_(img.height()), r_(r),
          stride_(static_cast<std::size_t>(img.width() + 2 * r)),
          base_(img.data().data())
    {
        const int w = img.width();
        if (r == 0 || w == 0)
            return;  // nothing to pad, or no column to clamp to
        padded_.resize(stride_ * static_cast<std::size_t>(h_));
        for (int y = 0; y < h_; ++y) {
            const float* in = base_ + static_cast<std::size_t>(y) *
                                          static_cast<std::size_t>(w);
            float* out = &padded_[static_cast<std::size_t>(y) * stride_];
            std::fill(out, out + r, in[0]);
            std::copy(in, in + w, out + r);
            std::fill(out + r + w, out + 2 * r + w, in[w - 1]);
        }
        base_ = padded_.data();
    }

    const float*
    row(int y) const
    {
        return base_ +
               static_cast<std::size_t>(std::clamp(y, 0, h_ - 1)) * stride_ +
               r_;
    }

  private:
    int h_;
    int r_;
    std::size_t stride_;
    const float* base_;
    std::vector<float> padded_;
};

/**
 * acc[x] += src[x] * weight for x in [0, n): one filter tap over a row.
 * Each pixel keeps its own accumulator, so the taps still add up in the
 * order the caller issues them. The four-wide body is straight-line code
 * that the compiler's SLP pass turns into packed multiplies and adds at
 * the default -O2; no sum is reassociated.
 */
inline void
addTap(float* __restrict__ acc, const float* __restrict__ src, float weight,
       int n)
{
    int x = 0;
    for (; x + 4 <= n; x += 4) {
        acc[x] += src[x] * weight;
        acc[x + 1] += src[x + 1] * weight;
        acc[x + 2] += src[x + 2] * weight;
        acc[x + 3] += src[x + 3] * weight;
    }
    for (; x < n; ++x)
        acc[x] += src[x] * weight;
}

/** References per distanceRows panel. */
constexpr std::size_t kPanel = 8;

/**
 * Squared distances from one query to the kPanel references of a panel
 * (dimension-major: panel[d * kPanel + t] is reference t's value d).
 * Every pair sums its terms in d order, exactly like a pair-at-a-time
 * loop, but the eight chains are independent, so they overlap instead
 * of waiting on one add at a time.
 */
void
panelDistances(const double* __restrict__ query,
               const double* __restrict__ panel, std::size_t dim,
               double* __restrict__ out)
{
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    double a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
    for (std::size_t d = 0; d < dim; ++d, panel += kPanel) {
        const double q = query[d];
        const double d0 = q - panel[0], d1 = q - panel[1];
        const double d2 = q - panel[2], d3 = q - panel[3];
        const double d4 = q - panel[4], d5 = q - panel[5];
        const double d6 = q - panel[6], d7 = q - panel[7];
        a0 += d0 * d0;
        a1 += d1 * d1;
        a2 += d2 * d2;
        a3 += d3 * d3;
        a4 += d4 * d4;
        a5 += d5 * d5;
        a6 += d6 * d6;
        a7 += d7 * d7;
    }
    out[0] = a0;
    out[1] = a1;
    out[2] = a2;
    out[3] = a3;
    out[4] = a4;
    out[5] = a5;
    out[6] = a6;
    out[7] = a7;
}

/*
 * Four-lane float arctangent, a transcription of fdlibm's e_atan2f.c
 * and s_atanf.c (the algorithm behind glibc 2.36's atan2f). Each
 * lane performs fdlibm's float operations in fdlibm's order, or ones
 * that round identically (noted where used), so every result is
 * bit-identical to that scalar code; the branches become per-lane
 * selects. Bit identity needs every product rounded on its own: the
 * build passes -ffp-contract=off so no multiply-add is fused.
 */
using F4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));

constexpr float kTiny = 1.0e-30f;
constexpr float kPiO4 = 7.8539818525e-01f;   // 0x3f490fdb
constexpr float kPiO2 = 1.5707963705e+00f;   // 0x3fc90fdb
constexpr float kPi = 3.1415927410e+00f;     // 0x40490fdb
constexpr float kPiLo = -8.7422776573e-08f;  // 0xb3bbbd2e

/** atan(0.5), atan(1), atan(1.5) and atan(inf), each as hi + lo. */
constexpr float kAtanHi[] = {4.6364760399e-01f, 7.8539812565e-01f,
                             9.8279368877e-01f, 1.5707962513e+00f};
constexpr float kAtanLo[] = {5.0121582440e-09f, 3.7748947079e-08f,
                             3.4473217170e-08f, 7.5497894159e-08f};

/** The 11 coefficients of atanf's odd/even polynomial. */
constexpr float kAtanT[] = {
    3.3333334327e-01f,  -2.0000000298e-01f, 1.4285714924e-01f,
    -1.1111110449e-01f, 9.0908870101e-02f,  -7.6918758452e-02f,
    6.6610731184e-02f,  -5.8335702866e-02f, 4.9768779427e-02f,
    -3.6531571299e-02f, 1.6285819933e-02f};

F4
splat(float v)
{
    return F4{v, v, v, v};
}

/** mask ? a : b per lane; mask lanes are all ones or all zeros. */
F4
select(I4 mask, F4 a, F4 b)
{
    return std::bit_cast<F4>((mask & std::bit_cast<I4>(a)) |
                             (~mask & std::bit_cast<I4>(b)));
}

/** fdlibm's atan2f branches for a NaN or infinite y or x. */
float
atan2NonFinite(float y, float x)
{
    const auto hx = std::bit_cast<std::int32_t>(x);
    const auto hy = std::bit_cast<std::int32_t>(y);
    const std::int32_t ix = hx & 0x7fffffff;
    const std::int32_t iy = hy & 0x7fffffff;
    // fdlibm returns x + y; on x86 that yields x's payload when both
    // are NaN, which the two sums spell out whatever the operand order.
    if (ix > 0x7f800000)
        return x + x;
    if (iy > 0x7f800000)
        return y + y;
    const int m = ((hy >> 31) & 1) | ((hx >> 30) & 2);  // 2 sign(x) + sign(y)
    if (iy == 0)  // x = +-inf
        return m < 2 ? y : (m == 2 ? kPi + kTiny : -kPi - kTiny);
    if (ix == 0)  // y = +-inf
        return hy < 0 ? -kPiO2 - kTiny : kPiO2 + kTiny;
    if (ix == 0x7f800000) {
        if (iy == 0x7f800000) {
            switch (m) {
              case 0: return kPiO4 + kTiny;
              case 1: return -kPiO4 - kTiny;
              case 2: return 3.0f * kPiO4 + kTiny;
              default: return -3.0f * kPiO4 - kTiny;
            }
        }
        switch (m) {
          case 0: return 0.0f;
          case 1: return -0.0f;
          case 2: return kPi + kTiny;
          default: return -kPi - kTiny;
        }
    }
    return hy < 0 ? -kPiO2 - kTiny : kPiO2 + kTiny;  // y = +-inf
}

/** Per-lane masks: r below 7/16, 11/16, 19/16 and 39/16. */
struct Intervals
{
    I4 below7;
    I4 below11;
    I4 below19;
    I4 below39;
};

constexpr std::int32_t
bitsOf(float v)
{
    return std::bit_cast<std::int32_t>(v);
}

/**
 * Per lane, the constant of the atanf interval its r falls in: v[0]
 * below 7/16, v[1] below 11/16, v[2] below 19/16, v[3] below 39/16,
 * v[4] beyond. The masks nest, so XOR-ing in each step's difference of
 * bit patterns leaves every lane with exactly its own interval's bits.
 */
F4
pick(const Intervals& in, const float (&v)[5])
{
    I4 bits = I4{} + bitsOf(v[4]);
    bits ^= in.below39 & (bitsOf(v[3]) ^ bitsOf(v[4]));
    bits ^= in.below19 & (bitsOf(v[2]) ^ bitsOf(v[3]));
    bits ^= in.below11 & (bitsOf(v[1]) ^ bitsOf(v[2]));
    bits ^= in.below7 & (bitsOf(v[0]) ^ bitsOf(v[1]));
    return std::bit_cast<F4>(bits);
}

/** Each interval's reduction coefficients and atan(hi + lo) term. */
constexpr float kRedA[] = {1.0f, 2.0f, 1.0f, 1.0f, 0.0f};
constexpr float kRedB[] = {0.0f, -1.0f, -1.0f, -1.5f, -1.0f};
constexpr float kRedC[] = {0.0f, 1.0f, 1.0f, 1.5f, 1.0f};
constexpr float kRedHi[] = {0.0f, kAtanHi[0], kAtanHi[1], kAtanHi[2],
                            kAtanHi[3]};
constexpr float kRedLo[] = {0.0f, kAtanLo[0], kAtanLo[1], kAtanLo[2],
                            kAtanLo[3]};

/** atan2f(y, x) for four lanes of finite y and x. */
F4
atan2Finite(F4 y, F4 x)
{
    const I4 hx = std::bit_cast<I4>(x);
    const I4 hy = std::bit_cast<I4>(y);
    const I4 ix = hx & 0x7fffffff;
    const I4 iy = hy & 0x7fffffff;
    const I4 xNeg = hx < 0;

    // atanf(|y / x|). Its argument reductions are one
    // (a r + b) / (c r + a) with per-lane coefficients:
    //   r < 7/16         r / 1                   (no table term)
    //   r < 11/16        (2r - 1) / (2 + r)      atan(0.5)
    //   r < 19/16        (r - 1) / (r + 1)       atan(1)
    //   r < 39/16        (r - 1.5) / (1 + 1.5r)  atan(1.5)
    //   otherwise        -1 / r                  atan(inf)
    // atanf returns its argument below 2^-29 and atan(inf) from 2^25
    // on; those lanes (NaN quotients too) reduce r = 0 instead, which
    // keeps subnormals, and their slow microcode path, out of the
    // polynomial.
    const F4 q = std::bit_cast<F4>(std::bit_cast<I4>(y / x) & 0x7fffffff);
    const I4 iq = std::bit_cast<I4>(q);
    const I4 tinyQ = iq < 0x31000000;
    const I4 hugeQ = iq >= 0x4c000000;
    const F4 r = select(tinyQ | hugeQ, splat(0.0f), q);
    const I4 ir = std::bit_cast<I4>(r);
    const Intervals in{ir < 0x3ee00000, ir < 0x3f300000, ir < 0x3f980000,
                       ir < 0x401c0000};
    const F4 a = pick(in, kRedA);
    const F4 t = (a * r + pick(in, kRedB)) / (pick(in, kRedC) * r + a);

    const F4 z = t * t;
    const F4 w = z * z;
    const F4 s1 =
        z * (kAtanT[0] +
             w * (kAtanT[2] +
                  w * (kAtanT[4] +
                       w * (kAtanT[6] + w * (kAtanT[8] + w * kAtanT[10])))));
    const F4 s2 =
        w * (kAtanT[1] +
             w * (kAtanT[3] +
                  w * (kAtanT[5] + w * (kAtanT[7] + w * kAtanT[9]))));
    // fdlibm's hi - ((t (s1 + s2) - lo) - t). Below 7/16 it returns
    // t - t (s1 + s2) instead, which is this with hi = lo = 0: the
    // subtractions of zero are exact, and 0 - (p - t) rounds like t - p.
    F4 at = pick(in, kRedHi) - ((t * (s1 + s2) - pick(in, kRedLo)) - t);
    at = select(tinyQ, q, at);
    at = select(hugeQ, splat(kAtanHi[3] + kAtanLo[3]), at);

    // atan2f: fdlibm skips the division when |y / x| is beyond 2^+-60
    // (k is the exponent difference), then places the angle in x's half
    // plane. Its x == 1 shortcut, atanf(y), equals this path. Every
    // branch of atan2f is odd in y, so the sign comes last.
    const I4 k = (iy - ix) >> 23;
    at = select(k > 60, splat(kPiO2 + 0.5f * kPiLo), at);
    at = select(xNeg & (k < -60), splat(0.0f), at);
    F4 angle = select(xNeg, kPi - (at - kPiLo), at);
    // fdlibm tests y = 0 before x = 0, so atan2(0, -0) is pi.
    angle = select(ix == 0, splat(kPiO2 + kTiny), angle);
    angle = select(iy == 0, select(xNeg, splat(kPi + kTiny), splat(0.0f)),
                   angle);
    return std::bit_cast<F4>(std::bit_cast<I4>(angle) ^
                             (hy & std::numeric_limits<std::int32_t>::min()));
}

/** out[i] = atan2f(y[i], x[i]) for i in [0, 4). */
void
atan2Block(const float* y, const float* x, float* out)
{
    F4 vy;
    F4 vx;
    std::memcpy(&vy, y, sizeof(vy));
    std::memcpy(&vx, x, sizeof(vx));
    const F4 result = atan2Finite(vy, vx);
    std::memcpy(out, &result, sizeof(result));
    const I4 nonFinite =
        ((std::bit_cast<I4>(vx) & 0x7fffffff) >= 0x7f800000) |
        ((std::bit_cast<I4>(vy) & 0x7fffffff) >= 0x7f800000);
    const auto halves = std::bit_cast<std::array<std::uint64_t, 2>>(nonFinite);
    if ((halves[0] | halves[1]) == 0)
        return;
    for (int i = 0; i < 4; ++i)
        if (nonFinite[i])
            out[i] = atan2NonFinite(y[i], x[i]);
}

}  // namespace

Image
convolve2d(const Image& img, std::span<const float> kernel, int k)
{
    const int r = k / 2;
    const int w = img.width();
    Image out(w, img.height());
    const ClampedRows src(img, r);
    for (int y = 0; y < img.height(); ++y) {
        float* acc = &out.at(0, y);
        for (int j = 0; j < k; ++j) {
            const float* row = src.row(y + j - r);
            for (int i = 0; i < k; ++i)
                addTap(acc, row + i - r,
                       kernel[static_cast<std::size_t>(j * k + i)], w);
        }
    }

    const auto px = static_cast<InstCount>(img.pixels());
    const auto taps = px * static_cast<InstCount>(k) *
                      static_cast<InstCount>(k);
    PhaseBuilder("convolve2d")
        .insts(InstClass::MemRead, taps)
        .insts(InstClass::FpAlu, taps)          // scalar tail mul-adds
        .insts(InstClass::Simd, taps / 2)       // vectorized portion
        .insts(InstClass::MemWrite, px)
        .insts(InstClass::IntAlu, px * 3)       // index arithmetic
        .insts(InstClass::Control, px + taps / 8)
        .insts(InstClass::Stack,
               static_cast<InstCount>(img.height()) * 2)
        .read(taps * kF)
        .write(px * kF)
        .foot(img.sizeBytes() + out.sizeBytes())
        .par(0.98)
        .items(px)
        .loc(0.8)
        .div(0.05)
        .record();
    return out;
}

Image
gaussianBlur(const Image& img, float sigma)
{
    const int r = std::max(1, static_cast<int>(std::ceil(3.0f * sigma)));
    const int k = 2 * r + 1;
    std::vector<float> kernel(static_cast<std::size_t>(k));
    float sum = 0.0f;
    for (int i = 0; i < k; ++i) {
        const float d = static_cast<float>(i - r);
        kernel[static_cast<std::size_t>(i)] =
            std::exp(-d * d / (2.0f * sigma * sigma));
        sum += kernel[static_cast<std::size_t>(i)];
    }
    for (auto& v : kernel)
        v /= sum;

    // Horizontal then vertical pass; each pixel adds its taps in kernel
    // order, starting from the zero-filled output.
    const int w = img.width();
    Image tmp(w, img.height());
    {
        const ClampedRows src(img, r);
        for (int y = 0; y < img.height(); ++y) {
            const float* row = src.row(y);
            for (int i = 0; i < k; ++i)
                addTap(&tmp.at(0, y), row + i - r,
                       kernel[static_cast<std::size_t>(i)], w);
        }
    }
    Image out(w, img.height());
    {
        const ClampedRows src(tmp, 0);
        for (int y = 0; y < img.height(); ++y)
            for (int i = 0; i < k; ++i)
                addTap(&out.at(0, y), src.row(y + i - r),
                       kernel[static_cast<std::size_t>(i)], w);
    }

    const auto px = static_cast<InstCount>(img.pixels());
    const auto taps = 2 * px * static_cast<InstCount>(k);
    PhaseBuilder("gaussian_blur")
        .insts(InstClass::MemRead, taps)
        .insts(InstClass::FpAlu, taps)
        .insts(InstClass::Simd, taps * 3 / 4)  // separable filters vectorize
        .insts(InstClass::MemWrite, 2 * px)
        .insts(InstClass::IntAlu, 2 * px * 2)
        .insts(InstClass::Control, 2 * px + taps / 8)
        .insts(InstClass::Stack, static_cast<InstCount>(img.height()) * 4)
        .read(taps * kF)
        .write(2 * px * kF)
        .foot(img.sizeBytes() * 3)
        .par(0.98)
        .items(px)
        .loc(0.85)
        .div(0.03)
        .record();
    return out;
}

void
sobel(const Image& img, Image& gx, Image& gy)
{
    gx = Image(img.width(), img.height());
    gy = Image(img.width(), img.height());
    const ClampedRows src(img, 1);
    for (int y = 0; y < img.height(); ++y) {
        const float* above = src.row(y - 1);
        const float* mid = src.row(y);
        const float* below = src.row(y + 1);
        float* __restrict__ ox = &gx.at(0, y);
        float* __restrict__ oy = &gy.at(0, y);
        for (int x = 0; x < img.width(); ++x) {
            const float tl = above[x - 1];
            const float t = above[x];
            const float tr = above[x + 1];
            const float l = mid[x - 1];
            const float r = mid[x + 1];
            const float bl = below[x - 1];
            const float b = below[x];
            const float br = below[x + 1];
            ox[x] = (tr + 2 * r + br) - (tl + 2 * l + bl);
            oy[x] = (bl + 2 * b + br) - (tl + 2 * t + tr);
        }
    }
    const auto px = static_cast<InstCount>(img.pixels());
    PhaseBuilder("sobel")
        .insts(InstClass::MemRead, px * 8)
        .insts(InstClass::FpAlu, px * 10)
        .insts(InstClass::Simd, px * 4)
        .insts(InstClass::MemWrite, px * 2)
        .insts(InstClass::IntAlu, px * 3)
        .insts(InstClass::Control, px)
        .read(px * 8 * kF)
        .write(px * 2 * kF)
        .foot(img.sizeBytes() * 3)
        .par(0.98)
        .items(px)
        .loc(0.9)
        .div(0.03)
        .record();
}

void
gradientPolar(const Image& gx, const Image& gy, Image& mag, Image& orient)
{
    mag = Image(gx.width(), gx.height());
    orient = Image(gx.width(), gx.height());
    for (int y = 0; y < gx.height(); ++y) {
        for (int x = 0; x < gx.width(); ++x) {
            const float dx = gx.at(x, y);
            const float dy = gy.at(x, y);
            mag.at(x, y) = std::sqrt(dx * dx + dy * dy);
        }
    }
    // Orientation, four pixels a step; the last 1-3 go through a block
    // padded with finite lanes.
    const float* dx = gx.data().data();
    const float* dy = gy.data().data();
    float* angle = orient.data().data();
    const std::size_t n = gx.pixels();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        atan2Block(dy + i, dx + i, angle + i);
    if (i < n) {
        float ys[4] = {1.0f, 1.0f, 1.0f, 1.0f};
        float xs[4] = {1.0f, 1.0f, 1.0f, 1.0f};
        float out[4];
        std::copy(dy + i, dy + n, ys);
        std::copy(dx + i, dx + n, xs);
        atan2Block(ys, xs, out);
        std::copy(out, out + (n - i), angle + i);
    }
    const auto px = static_cast<InstCount>(gx.pixels());
    PhaseBuilder("gradient_polar")
        .insts(InstClass::MemRead, px * 2)
        .insts(InstClass::FpAlu, px * 14)  // sqrt + atan2 expansions
        .insts(InstClass::MemWrite, px * 2)
        .insts(InstClass::IntAlu, px * 2)
        .insts(InstClass::Control, px)
        .read(px * 2 * kF)
        .write(px * 2 * kF)
        .foot(gx.sizeBytes() * 4)
        .par(0.98)
        .items(px)
        .loc(0.9)
        .div(0.02)
        .record();
}

Image
downsample2x(const Image& img)
{
    const int w = std::max(img.width() / 2, 1);
    const int h = std::max(img.height() / 2, 1);
    Image out(w, h);
    const ClampedRows src(img, 1);
    for (int y = 0; y < h; ++y) {
        const float* top = src.row(2 * y);
        const float* bot = src.row(2 * y + 1);
        for (int x = 0; x < w; ++x)
            out.at(x, y) = (top[2 * x] + top[2 * x + 1] + bot[2 * x] +
                            bot[2 * x + 1]) * 0.25f;
    }

    const auto px = static_cast<InstCount>(out.pixels());
    PhaseBuilder("downsample2x")
        .insts(InstClass::MemRead, px * 4)
        .insts(InstClass::FpAlu, px * 4)
        .insts(InstClass::Simd, px)
        .insts(InstClass::MemWrite, px)
        .insts(InstClass::IntAlu, px * 4)
        .insts(InstClass::Shift, px * 2)  // index doubling
        .insts(InstClass::Control, px)
        .read(px * 4 * kF)
        .write(px * kF)
        .foot(img.sizeBytes() + out.sizeBytes())
        .par(0.98)
        .items(px)
        .loc(0.7)
        .div(0.02)
        .record();
    return out;
}

Image
resizeBilinear(const Image& img, int w, int h)
{
    Image out(w, h);
    const float sx =
        static_cast<float>(img.width()) / static_cast<float>(w);
    const float sy =
        static_cast<float>(img.height()) / static_cast<float>(h);
    // The source columns and weight of an output column do not depend
    // on the row (nor a row's on the column): compute each once.
    const auto xs = static_cast<std::size_t>(std::max(w, 0));
    std::vector<int> col0(xs), col1(xs);
    std::vector<float> wx(xs);
    const float* src = img.data().data();
    for (int x = 0; x < w; ++x) {
        const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
        const int x0 = static_cast<int>(std::floor(fx));
        const auto c = static_cast<std::size_t>(x);
        col0[c] = std::clamp(x0, 0, img.width() - 1);
        col1[c] = std::clamp(x0 + 1, 0, img.width() - 1);
        wx[c] = fx - static_cast<float>(x0);
    }
    for (int y = 0; y < h; ++y) {
        const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
        const int y0 = static_cast<int>(std::floor(fy));
        const float ay = fy - static_cast<float>(y0);
        const float* r0 =
            src + std::clamp(y0, 0, img.height() - 1) * img.width();
        const float* r1 =
            src + std::clamp(y0 + 1, 0, img.height() - 1) * img.width();
        for (int x = 0; x < w; ++x) {
            const auto c = static_cast<std::size_t>(x);
            const float ax = wx[c];
            const float top = r0[col0[c]] * (1 - ax) + r0[col1[c]] * ax;
            const float bot = r1[col0[c]] * (1 - ax) + r1[col1[c]] * ax;
            out.at(x, y) = top * (1 - ay) + bot * ay;
        }
    }
    const auto px = static_cast<InstCount>(out.pixels());
    PhaseBuilder("resize_bilinear")
        .insts(InstClass::MemRead, px * 4)
        .insts(InstClass::FpAlu, px * 10)
        .insts(InstClass::MemWrite, px)
        .insts(InstClass::IntAlu, px * 6)
        .insts(InstClass::Control, px)
        .read(px * 4 * kF)
        .write(px * kF)
        .foot(img.sizeBytes() + out.sizeBytes())
        .par(0.98)
        .items(px)
        .loc(0.6)
        .div(0.05)
        .record();
    return out;
}

IntegralImage
integral(const Image& img)
{
    IntegralImage ii(img);
    const auto px = static_cast<InstCount>(img.pixels());
    PhaseBuilder("integral_image")
        .insts(InstClass::MemRead, px * 2)
        .insts(InstClass::MemWrite, px)
        .insts(InstClass::IntAlu, px * 3)
        .insts(InstClass::FpAlu, px)
        .insts(InstClass::Control, px)
        .insts(InstClass::Stack, static_cast<InstCount>(img.height()))
        .read(px * 2 * kF)
        .write(px * static_cast<Bytes>(sizeof(double)))
        .foot(img.sizeBytes() + ii.sizeBytes())
        .par(0.6)  // prefix sums parallelize imperfectly
        .items(px)
        .loc(0.9)
        .div(0.02)
        .record();
    return ii;
}

std::vector<double>
histogram(std::span<const float> values, int bins, float lo, float hi)
{
    std::vector<double> out(static_cast<std::size_t>(bins), 0.0);
    const float width = (hi - lo) / static_cast<float>(bins);
    for (float v : values) {
        int b = static_cast<int>((v - lo) / width);
        b = std::clamp(b, 0, bins - 1);
        out[static_cast<std::size_t>(b)] += 1.0;
    }
    const auto n = static_cast<InstCount>(values.size());
    PhaseBuilder("histogram")
        .insts(InstClass::MemRead, n * 2)
        .insts(InstClass::MemWrite, n)
        .insts(InstClass::IntAlu, n * 3)
        .insts(InstClass::FpAlu, n * 2)
        .insts(InstClass::Control, n * 2)
        .read(n * kF)
        .write(n * static_cast<Bytes>(sizeof(double)) / 4)
        .foot(static_cast<Bytes>(values.size()) * kF)
        .par(0.7)  // bin updates contend
        .items(n)
        .loc(0.95)
        .div(0.3)
        .record();
    return out;
}

std::vector<std::pair<int, int>>
nonMaxSuppress(const Image& response, float threshold, int radius)
{
    std::vector<std::pair<int, int>> maxima;
    InstCount comparisons = 0;
    for (int y = 0; y < response.height(); ++y) {
        for (int x = 0; x < response.width(); ++x) {
            const float v = response.at(x, y);
            ++comparisons;
            if (v <= threshold)
                continue;
            bool isMax = true;
            for (int j = -radius; j <= radius && isMax; ++j) {
                for (int i = -radius; i <= radius; ++i) {
                    if (i == 0 && j == 0)
                        continue;
                    ++comparisons;
                    if (response.atClamped(x + i, y + j) > v) {
                        isMax = false;
                        break;
                    }
                }
            }
            if (isMax)
                maxima.emplace_back(x, y);
        }
    }
    const auto px = static_cast<InstCount>(response.pixels());
    PhaseBuilder("non_max_suppress")
        .insts(InstClass::MemRead, comparisons)
        .insts(InstClass::FpAlu, comparisons)
        .insts(InstClass::Control, comparisons + px)
        .insts(InstClass::IntAlu, px * 2)
        .insts(InstClass::MemWrite,
               static_cast<InstCount>(maxima.size()) * 2)
        .read(comparisons * kF)
        .write(static_cast<Bytes>(maxima.size()) * 2 *
               static_cast<Bytes>(sizeof(int)))
        .foot(response.sizeBytes())
        .par(0.95)
        .items(px)
        .loc(0.85)
        .div(0.6)  // data-dependent rejection
        .record();
    return maxima;
}

double
dot(std::span<const float> a, std::span<const float> b)
{
    const std::size_t n = std::min(a.size(), b.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);

    const auto in = static_cast<InstCount>(n);
    PhaseBuilder("dot")
        .insts(InstClass::MemRead, in * 2)
        .insts(InstClass::Simd, in * 3 / 2)  // fused multiply-add lanes
        .insts(InstClass::FpAlu, in / 4)
        .insts(InstClass::IntAlu, in / 4)
        .insts(InstClass::Control, in / 8 + 1)
        .read(in * 2 * kF)
        .foot(static_cast<Bytes>(n) * 2 * kF)
        .par(0.9)
        .items(in)
        .loc(0.5)
        .div(0.02)
        .record();
    return acc;
}

void
distanceRows(
    const std::vector<Descriptor>& a, const std::vector<Descriptor>& b,
    const std::function<void(std::size_t, std::span<const double>)>& fn)
{
    const std::size_t dim = a.empty() ? 0 : a.front().size();

    // The references are packed in panels of kPanel, dimension-major and
    // widened to double (a padded lane stays zero and is never copied
    // out); each query is widened once.
    const std::size_t panels = (b.size() + kPanel - 1) / kPanel;
    std::vector<double> packed(panels * dim * kPanel, 0.0);
    for (std::size_t j = 0; j < b.size(); ++j) {
        double* lane =
            packed.data() + (j / kPanel) * dim * kPanel + j % kPanel;
        for (std::size_t d = 0; d < dim; ++d)
            lane[d * kPanel] = static_cast<double>(b[j][d]);
    }
    std::vector<double> query(dim);
    std::vector<double> row(b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t d = 0; d < dim; ++d)
            query[d] = static_cast<double>(a[i][d]);
        for (std::size_t p = 0; p < panels; ++p) {
            double dist[kPanel];
            panelDistances(query.data(), packed.data() + p * dim * kPanel,
                           dim, dist);
            const std::size_t j0 = p * kPanel;
            std::copy(dist, dist + std::min(kPanel, b.size() - j0),
                      row.begin() + static_cast<std::ptrdiff_t>(j0));
        }
        fn(i, row);
    }
    recordDistanceRows(a.size(), b.size(), dim);
}

void
recordDistanceRows(std::size_t rows, std::size_t cols, std::size_t dim)
{
    // The phase models a GPU kernel that writes the whole matrix.
    const auto ops = static_cast<InstCount>(rows) *
                     static_cast<InstCount>(cols) *
                     static_cast<InstCount>(std::max<std::size_t>(dim, 1));
    const auto pairs =
        static_cast<InstCount>(rows) * static_cast<InstCount>(cols);
    PhaseBuilder("distance_matrix")
        .insts(InstClass::MemRead, ops * 2)
        .insts(InstClass::Simd, ops * 2)
        .insts(InstClass::FpAlu, ops / 2)
        .insts(InstClass::MemWrite, pairs)
        .insts(InstClass::IntAlu, pairs * 2)
        .insts(InstClass::Control, pairs + ops / 8)
        .read(ops * 2 * kF)
        .write(pairs * static_cast<Bytes>(sizeof(double)))
        .foot((static_cast<Bytes>(rows) + static_cast<Bytes>(cols)) *
                  static_cast<Bytes>(dim) * kF +
              static_cast<Bytes>(pairs) *
                  static_cast<Bytes>(sizeof(double)))
        .par(0.97)
        .items(pairs)
        .loc(0.3)  // streaming through both sets
        .div(0.02)
        .record();
}

std::vector<int>
topKSmallest(std::span<const double> values, int k)
{
    std::vector<int> idx;
    std::vector<bool> used(values.size(), false);
    InstCount scans = 0;
    for (int sel = 0; sel < k && sel < static_cast<int>(values.size());
         ++sel) {
        double best = std::numeric_limits<double>::infinity();
        int bestIdx = -1;
        for (std::size_t i = 0; i < values.size(); ++i) {
            ++scans;
            if (!used[i] && values[i] < best) {
                best = values[i];
                bestIdx = static_cast<int>(i);
            }
        }
        if (bestIdx < 0)
            break;
        used[static_cast<std::size_t>(bestIdx)] = true;
        idx.push_back(bestIdx);
    }
    PhaseBuilder("top_k_select")
        .insts(InstClass::MemRead, scans)
        .insts(InstClass::FpAlu, scans)
        .insts(InstClass::Control, scans * 2)
        .insts(InstClass::IntAlu, scans)
        .insts(InstClass::MemWrite, static_cast<InstCount>(idx.size()))
        .read(scans * static_cast<Bytes>(sizeof(double)))
        .foot(static_cast<Bytes>(values.size()) *
              static_cast<Bytes>(sizeof(double)))
        .par(0.8)
        .items(static_cast<std::uint64_t>(values.size()))
        .loc(0.7)
        .div(0.5)
        .record();
    return idx;
}

int
hammingDistance(const BinaryDescriptor& a, const BinaryDescriptor& b)
{
    const std::size_t n = std::min(a.size(), b.size());
    int dist = 0;
    for (std::size_t i = 0; i < n; ++i)
        dist += std::popcount(
            static_cast<unsigned>(a[i] ^ b[i]));

    const auto in = static_cast<InstCount>(n);
    PhaseBuilder("hamming")
        .insts(InstClass::MemRead, in * 2)
        .insts(InstClass::IntAlu, in * 2)
        .insts(InstClass::Shift, in)
        .insts(InstClass::Control, in / 4 + 1)
        .read(in * 2)
        .foot(static_cast<Bytes>(n) * 2)
        .par(0.9)
        .items(in)
        .loc(0.6)
        .div(0.05)
        .record();
    return dist;
}

Image
copyImage(const Image& img)
{
    Image out = img;
    const auto px = static_cast<InstCount>(img.pixels());
    PhaseBuilder("image_copy")
        .insts(InstClass::String, px / 4)  // rep-movs style copy
        .insts(InstClass::MemRead, px / 8)
        .insts(InstClass::MemWrite, px / 8)
        .insts(InstClass::Stack, 8)
        .insts(InstClass::IntAlu, px / 16 + 1)
        .insts(InstClass::Control, px / 64 + 1)
        .read(img.sizeBytes())
        .write(img.sizeBytes())
        .foot(img.sizeBytes() * 2)
        .par(0.5)
        .items(px)
        .loc(0.2)
        .div(0.01)
        .staged()
        .record();
    return out;
}

}  // namespace mapp::vision::ops
