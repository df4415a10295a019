#include "obs/metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "common/error.h"
#include "common/file_io.h"
#include "common/log.h"
#include "obs/json_util.h"

namespace mapp::obs {

namespace {

/** Lock-free add for pre-C++20-hardware atomic doubles. */
void
atomicAdd(std::atomic<double>& target, double v)
{
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
}

/** Raise an InvalidArgument located at the offending instrument. */
[[noreturn]] void
rejectBounds(std::string_view name, const std::string& why)
{
    SourceContext context;
    context.column = std::string(name);
    raise(Error(ErrorCode::InvalidArgument, "Histogram: " + why,
                std::move(context)));
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds,
                     std::string_view name)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1)
{
    if (bounds_.empty())
        rejectBounds(name, "at least one bucket bound required");
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (!std::isfinite(bounds_[i])) {
            rejectBounds(name, "bucket bound " + std::to_string(i) +
                                   " is not finite");
        }
        if (i > 0 && !(bounds_[i - 1] < bounds_[i])) {
            rejectBounds(
                name, "bucket bounds must be strictly ascending "
                      "(bound " +
                          std::to_string(i) + " = " +
                          std::to_string(bounds_[i]) +
                          " does not exceed its predecessor " +
                          std::to_string(bounds_[i - 1]) + ")");
        }
    }
}

void
Histogram::observe(double v)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const auto idx =
        static_cast<std::size_t>(it - bounds_.begin());
    counts_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, v);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out;
    out.reserve(counts_.size());
    for (const auto& c : counts_)
        out.push_back(c.load(std::memory_order_relaxed));
    return out;
}

void
Histogram::reset()
{
    for (auto& c : counts_)
        c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0 || counts.empty() || bounds.empty())
        return std::numeric_limits<double>::quiet_NaN();
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count);
    double cum = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const auto c = static_cast<double>(counts[i]);
        if (c == 0.0)
            continue;  // cum is unchanged; skip degenerate brackets
        const double next = cum + c;
        if (next >= target) {
            if (i >= bounds.size())
                return bounds.back();  // overflow: no upper edge
            const double upper = bounds[i];
            const double lower =
                i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
            const double frac =
                std::clamp((target - cum) / c, 0.0, 1.0);
            return lower + frac * (upper - lower);
        }
        cum = next;
    }
    return bounds.back();  // floating-point slack on the last rank
}

const HistogramSnapshot*
RegistrySnapshot::findHistogram(std::string_view name) const
{
    for (const auto& h : histograms)
        if (h.name == name)
            return &h;
    return nullptr;
}

const double*
RegistrySnapshot::findGauge(std::string_view name) const
{
    for (const auto& [key, value] : gauges)
        if (key == name)
            return &value;
    return nullptr;
}

const std::uint64_t*
RegistrySnapshot::findCounter(std::string_view name) const
{
    for (const auto& [key, value] : counters)
        if (key == name)
            return &value;
    return nullptr;
}

std::vector<double>
defaultTimeBucketBounds()
{
    // Powers of four from 1 µs to ~67 s: wide enough for both
    // microsecond kernel phases and minute-long campaigns.
    std::vector<double> bounds;
    double b = 1e-6;
    for (int i = 0; i < 13; ++i) {
        bounds.push_back(b);
        b *= 4.0;
    }
    return bounds;
}

Counter&
Registry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_
                 .emplace(std::string(name), std::make_unique<Counter>())
                 .first;
    }
    return *it->second;
}

Gauge&
Registry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        it = gauges_
                 .emplace(std::string(name), std::make_unique<Gauge>())
                 .first;
    }
    return *it->second;
}

Histogram&
Registry::histogram(std::string_view name,
                    std::vector<double> upper_bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        if (upper_bounds.empty())
            upper_bounds = defaultTimeBucketBounds();
        it = histograms_
                 .emplace(std::string(name),
                          std::make_unique<Histogram>(
                              std::move(upper_bounds), name))
                 .first;
    }
    return *it->second;
}

RegistrySnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    RegistrySnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_)
        snap.counters.emplace_back(name, c->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_)
        snap.gauges.emplace_back(name, g->value());
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
        HistogramSnapshot hs;
        hs.name = name;
        hs.bounds = h->bucketBounds();
        hs.counts = h->bucketCounts();
        hs.count = h->count();
        hs.sum = h->sum();
        snap.histograms.push_back(std::move(hs));
    }
    return snap;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, c] : counters_)
        c->reset();
    for (auto& [name, g] : gauges_)
        g->reset();
    for (auto& [name, h] : histograms_)
        h->reset();
}

std::string
RegistrySnapshot::toJson() const
{
    std::string out;
    out += "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": ";
        out += std::to_string(value);
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, value] : gauges) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": ";
        appendJsonNumber(out, value);
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto& h : histograms) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, h.name);
        out += ": {\"count\": " + std::to_string(h.count) + ", \"sum\": ";
        appendJsonNumber(out, h.sum);
        out += ", \"mean\": ";
        appendJsonNumber(out, h.mean());
        out += ", \"bounds\": [";
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
            if (i > 0)
                out += ", ";
            appendJsonNumber(out, h.bounds[i]);
        }
        out += "], \"buckets\": [";
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += std::to_string(h.counts[i]);
        }
        out += "]}";
    }
    out += first ? "}\n}\n" : "\n  }\n}\n";
    return out;
}

std::string
Registry::toJson() const
{
    return snapshot().toJson();
}

bool
Registry::writeJson(const std::string& path) const
{
    return writeFileAtomic(path, toJson());
}

Registry&
defaultRegistry()
{
    static Registry instance;
    return instance;
}

void
recordPeakRss(Registry& registry)
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0)  // ru_maxrss is in kB
        registry.gauge(kPeakRssGauge)
            .set(static_cast<double>(usage.ru_maxrss) / 1024.0);
}

}  // namespace mapp::obs
