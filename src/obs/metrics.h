/**
 * @file
 * The MAPP metrics registry: named counters, gauges and fixed-bucket
 * histograms with cheap thread-safe updates.
 *
 * Instruments register metrics by name in a Registry (usually the
 * process-wide defaultRegistry()) and hold the returned reference;
 * lookups take a mutex but updates are lock-free atomics, so hot paths
 * should resolve their instrument once and increment the reference.
 * snapshot()/reset() give tests and exporters a consistent view without
 * stopping writers.
 *
 * Thread-safety contract (relied on by the parallel execution layer):
 * every operation on Registry, Counter, Gauge and Histogram is safe to
 * call concurrently from any thread. Instrument references returned by
 * counter()/gauge()/histogram() are stable for the registry's lifetime
 * and may be updated from pool workers without external locking —
 * collectors and simulators increment them freely from parallelFor
 * bodies. Updates use relaxed atomics: totals are exact once threads
 * join (parallelFor joins before returning), but a snapshot taken
 * mid-flight may interleave with concurrent updates.
 */

#ifndef MAPP_OBS_METRICS_H
#define MAPP_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mapp::obs {

/** A monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** A last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * A fixed-bucket histogram: bucket i counts observations v with
 * v <= bounds[i] (and greater than the previous bound); one implicit
 * overflow bucket catches everything above the last bound. Bounds are
 * fixed at construction so observe() is a branch-light atomic
 * increment.
 */
class Histogram
{
  public:
    /**
     * @param upper_bounds strictly ascending, finite bucket bounds
     * @param name instrument name used to locate validation errors
     * @throws mapp::InputError (a FatalError) when bounds are empty,
     *         unsorted, duplicated or non-finite — a malformed bound
     *         list would silently miscount every observation.
     */
    explicit Histogram(std::vector<double> upper_bounds,
                       std::string_view name = "");

    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    void observe(double v);

    /** Upper bounds, ascending (the overflow bucket is implicit). */
    const std::vector<double>& bucketBounds() const { return bounds_; }

    /** Per-bucket counts; size is bucketBounds().size() + 1. */
    std::vector<std::uint64_t> bucketCounts() const;

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const { return sum_.load(std::memory_order_relaxed); }

    double mean() const
    {
        const auto n = count();
        return n > 0 ? sum() / static_cast<double>(n) : 0.0;
    }

    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/** Point-in-time copy of one histogram (bounds + counts + moments). */
struct HistogramSnapshot
{
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 buckets
    std::uint64_t count = 0;
    double sum = 0.0;

    double mean() const
    {
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }

    /**
     * Estimate the @p q quantile (q in [0,1], clamped) from the bucket
     * counts, interpolating linearly inside the bucket holding rank
     * q*count. The first bucket's lower edge is min(0, bounds[0]) —
     * time histograms start at 0, signed-error histograms extend below
     * it — and mass in the overflow bucket clamps to the last bound
     * (the snapshot carries no upper edge for it). NaN when empty.
     */
    double quantile(double q) const;
};

/** Point-in-time copy of a whole registry. */
struct RegistrySnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;

    /** The named histogram, or nullptr. */
    const HistogramSnapshot* findHistogram(std::string_view name) const;

    /** Pointer to the named gauge's value, or nullptr. */
    const double* findGauge(std::string_view name) const;

    /** Pointer to the named counter's value, or nullptr. */
    const std::uint64_t* findCounter(std::string_view name) const;

    /** The snapshot as a stable JSON document. */
    std::string toJson() const;
};

/**
 * Default histogram bucket bounds for durations in seconds: powers of
 * four from 1 µs to ~67 s (13 buckets + overflow).
 */
std::vector<double> defaultTimeBucketBounds();

/** A named collection of metrics instruments. */
class Registry
{
  public:
    /** Find or create the named counter (reference stays valid). */
    Counter& counter(std::string_view name);

    /** Find or create the named gauge. */
    Gauge& gauge(std::string_view name);

    /**
     * Find or create the named histogram. @p upper_bounds is only used
     * on first creation (empty = defaultTimeBucketBounds()); it must be
     * strictly ascending and finite. @throws mapp::InputError (a
     * FatalError) naming the instrument on malformed bounds.
     */
    Histogram& histogram(std::string_view name,
                         std::vector<double> upper_bounds = {});

    /** Consistent point-in-time copy of every instrument. */
    RegistrySnapshot snapshot() const;

    /** Zero every instrument (instruments stay registered). */
    void reset();

    /** snapshot().toJson(). */
    std::string toJson() const;

    /** Write toJson() to @p path. @return false on I/O failure. */
    bool writeJson(const std::string& path) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms_;
};

/** The process-wide registry used by the built-in instrumentation. */
Registry& defaultRegistry();

/** Gauge holding the process's peak resident set size, in MB. */
inline constexpr std::string_view kPeakRssGauge = "process.peak_rss_mb";

/** Set kPeakRssGauge in @p registry to the peak RSS so far (getrusage). */
void recordPeakRss(Registry& registry);

}  // namespace mapp::obs

#endif  // MAPP_OBS_METRICS_H
