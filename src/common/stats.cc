#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace mapp::stats {

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    return sum(xs) / static_cast<double>(xs.size());
}

double
variance(std::span<const double> xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs) {
        const double d = x - m;
        acc += d * d;
    }
    return acc / static_cast<double>(xs.size());
}

double
stddev(std::span<const double> xs)
{
    return std::sqrt(variance(xs));
}

double
geomean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            return 0.0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(xs.size()));
}

double
minimum(std::span<const double> xs)
{
    double best = std::numeric_limits<double>::infinity();
    for (double x : xs)
        best = std::min(best, x);
    return best;
}

double
maximum(std::span<const double> xs)
{
    double best = -std::numeric_limits<double>::infinity();
    for (double x : xs)
        best = std::max(best, x);
    return best;
}

double
sum(std::span<const double> xs)
{
    return std::accumulate(xs.begin(), xs.end(), 0.0);
}

double
median(std::span<const double> xs)
{
    return percentile(xs, 50.0);
}

double
percentile(std::span<const double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    // Clamp before the size_t cast below: p > 100 would index
    // sorted[size] and a negative p would wrap to a huge index.
    if (!(p >= 0.0))
        p = 0.0;
    else if (p > 100.0)
        p = 100.0;
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1)
        return sorted.front();
    const double pos =
        (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - std::floor(pos);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
pearson(std::span<const double> xs, std::span<const double> ys)
{
    const std::size_t n = std::min(xs.size(), ys.size());
    if (n < 2)
        return 0.0;
    const double mx = mean(xs.subspan(0, n));
    const double my = mean(ys.subspan(0, n));
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

std::vector<double>
ranks(std::span<const double> xs)
{
    const std::size_t n = xs.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });

    std::vector<double> out(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j + 1 < n && xs[order[j + 1]] == xs[order[i]])
            ++j;
        // Average rank for the tie group [i, j].
        const double avg = (static_cast<double>(i) +
                            static_cast<double>(j)) / 2.0 + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            out[order[k]] = avg;
        i = j + 1;
    }
    return out;
}

double
spearman(std::span<const double> xs, std::span<const double> ys)
{
    const std::size_t n = std::min(xs.size(), ys.size());
    if (n < 2)
        return 0.0;
    const auto rx = ranks(xs.subspan(0, n));
    const auto ry = ranks(ys.subspan(0, n));
    return pearson(rx, ry);
}

void
Accumulator::add(double x)
{
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
Accumulator::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

}  // namespace mapp::stats
