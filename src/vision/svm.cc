#include "vision/svm.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "vision/ops.h"
#include "vision/registry.h"

namespace mapp::vision {

Descriptor
thumbnailDescriptor(const Image& img)
{
    const Image thumb = ops::resizeBilinear(img, 32, 32);
    Descriptor d(thumb.data().begin(), thumb.data().end());
    double mean = 0.0;
    for (float v : d)
        mean += v;
    mean /= static_cast<double>(d.size());
    for (auto& v : d)
        v = static_cast<float>(v - mean);
    return d;
}

void
LinearSvm::train(const std::vector<Descriptor>& x, const std::vector<int>& y,
                 const SvmParams& params)
{
    if (x.empty() || x.size() != y.size())
        fatal("LinearSvm::train: empty or mismatched training data");
    const std::size_t n = x.size();
    const std::size_t dim = x.front().size();

    w_.assign(dim, 0.0);
    b_ = 0.0;
    std::vector<double> alpha(n, 0.0);

    // Precompute squared norms (the Q_ii diagonal).
    std::vector<double> qii(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 1.0;  // +1 models the bias as an extra feature
        for (float v : x[i])
            acc += static_cast<double>(v) * static_cast<double>(v);
        qii[i] = acc;
    }

    for (int epoch = 0; epoch < params.epochs; ++epoch) {
        double maxViolation = 0.0;
        InstCount flops = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto yi = static_cast<double>(y[i]);
            // G = y_i * (w.x_i + b) - 1
            double wx = b_;
            for (std::size_t d = 0; d < dim; ++d)
                wx += w_[d] * static_cast<double>(x[i][d]);
            flops += dim * 2;
            const double g = yi * wx - 1.0;

            // Projected gradient for the box constraint 0 <= a <= C.
            double pg = g;
            if (alpha[i] <= 0.0)
                pg = std::min(g, 0.0);
            else if (alpha[i] >= params.c)
                pg = std::max(g, 0.0);
            maxViolation = std::max(maxViolation, std::abs(pg));

            if (std::abs(pg) > 1e-12) {
                const double old = alpha[i];
                alpha[i] = std::clamp(old - g / qii[i], 0.0, params.c);
                const double delta = (alpha[i] - old) * yi;
                for (std::size_t d = 0; d < dim; ++d)
                    w_[d] += delta * static_cast<double>(x[i][d]);
                b_ += delta;
                flops += dim * 2;
            }
        }

        const auto samples = static_cast<InstCount>(n);
        ops::PhaseBuilder("svm_train_epoch")
            .insts(isa::InstClass::MemRead, flops)
            .insts(isa::InstClass::Simd, flops * 3 / 2)
            .insts(isa::InstClass::FpAlu, flops / 3 + samples * 8)
            .insts(isa::InstClass::IntAlu, samples * 6)
            .insts(isa::InstClass::Control, samples * 5)
            .insts(isa::InstClass::MemWrite, flops / 4)
            .insts(isa::InstClass::Stack, samples)
            .read(flops * sizeof(float))
            .write(flops / 4 * sizeof(double))
            .foot(static_cast<Bytes>(n) * static_cast<Bytes>(dim) *
                      sizeof(float) +
                  static_cast<Bytes>(dim) * sizeof(double))
            .par(0.45)  // coordinate updates serialize on w
            .items(samples)
            .loc(0.65)
            .div(0.15)
            .record();

        if (maxViolation < params.tol)
            break;
    }
}

double
LinearSvm::decision(const Descriptor& x) const
{
    double acc = b_;
    const std::size_t dim = std::min(w_.size(), x.size());
    for (std::size_t d = 0; d < dim; ++d)
        acc += w_[d] * static_cast<double>(x[d]);
    return acc;
}

int
LinearSvm::predict(const Descriptor& x) const
{
    return decision(x) >= 0.0 ? 1 : -1;
}

double
LinearSvm::accuracy(const std::vector<Descriptor>& x,
                    const std::vector<int>& y) const
{
    if (x.empty())
        return 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
        if (predict(x[i]) == y[i])
            ++correct;
    return static_cast<double>(correct) / static_cast<double>(x.size());
}

std::size_t
runSvmBenchmark(ImageStream& batch, const SvmParams& params)
{
    if (batch.size() == 0)
        return 0;

    // Extract descriptors; label images by whether their mean intensity
    // exceeds the batch median (a deterministic, learnable split). Only
    // the thumbnail and the mean of each image are kept.
    std::vector<Descriptor> xs;
    std::vector<double> means;
    xs.reserve(batch.size());
    means.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Image staged = ops::copyImage(batch.next());
        xs.push_back(thumbnailDescriptor(staged));
        means.push_back(staged.mean());
    }
    std::vector<double> sorted = means;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const double median = sorted[sorted.size() / 2];
    std::vector<int> ys;
    ys.reserve(batch.size());
    for (double m : means)
        ys.push_back(m > median ? 1 : -1);

    LinearSvm svm;
    svm.train(xs, ys, params);

    // Prediction pass over the batch.
    std::size_t correct = 0;
    const auto dim = static_cast<InstCount>(xs.front().size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        if (svm.predict(xs[i]) == ys[i])
            ++correct;
    const auto n = static_cast<InstCount>(xs.size());
    ops::PhaseBuilder("svm_predict")
        .insts(isa::InstClass::MemRead, n * dim)
        .insts(isa::InstClass::Simd, n * dim * 3 / 2)
        .insts(isa::InstClass::FpAlu, n * dim / 4)
        .insts(isa::InstClass::IntAlu, n * 4)
        .insts(isa::InstClass::Control, n * 3)
        .read(n * dim * sizeof(float))
        .foot(static_cast<Bytes>(n) * static_cast<Bytes>(dim) *
              sizeof(float))
        .par(0.95)
        .items(n)
        .loc(0.6)
        .div(0.05)
        .record();
    return correct;
}

}  // namespace mapp::vision
