/**
 * @file
 * Wall-clock timing instruments built on the metrics registry.
 *
 * ScopedTimer is an RAII stopwatch feeding a Histogram; ScopedPhase
 * additionally pushes a named phase onto a hierarchical PhaseProfiler,
 * so nested scopes reconstruct the pipeline's phase tree (feature
 * extraction → fairness measurement → tree training → LOOCV) with
 * per-phase call counts and accumulated time. When the global tracer
 * is enabled, ScopedPhase also records its span on the pipeline track,
 * with optional args (e.g. which campaign member a span worked on).
 */

#ifndef MAPP_OBS_TIMER_H
#define MAPP_OBS_TIMER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mapp::obs {

/** RAII stopwatch: observes its lifetime (seconds) into a histogram. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram& histogram) : histogram_(&histogram) {}

    /** Convenience: find-or-create the histogram in @p registry. */
    ScopedTimer(Registry& registry, std::string_view name)
        : histogram_(&registry.histogram(name))
    {
    }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    ~ScopedTimer()
    {
        if (histogram_ != nullptr)
            histogram_->observe(elapsedSeconds());
    }

    /** Seconds since construction. */
    double elapsedSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    /** Detach: the destructor will not record. */
    void cancel() { histogram_ = nullptr; }

  private:
    Histogram* histogram_;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/**
 * A hierarchical wall-time profile: a tree of named phases where each
 * node accumulates total seconds and entry count. enter()/exit() keep
 * a *per-thread* cursor into the shared tree; identical phase names
 * under the same parent merge. Thread-safe via one mutex — phases are
 * coarse (pipeline stages, not per-event), so contention is
 * negligible. A worker thread's first enter() roots its phase stack at
 * the top level, so phases recorded from pool workers (parallel
 * campaign collection, LOOCV folds) appear as their own top-level
 * subtrees rather than corrupting the calling thread's stack.
 */
class PhaseProfiler
{
  public:
    /** Immutable copy of one profile subtree. */
    struct PhaseReport
    {
        std::string name;
        double seconds = 0.0;
        std::uint64_t count = 0;
        std::vector<PhaseReport> children;
    };

    /** Push @p name as the current phase (created if new). */
    void enter(std::string_view name);

    /** Pop the current phase, crediting it @p seconds. */
    void exit(double seconds);

    /** Copy of the whole tree (root is the unnamed top level). */
    PhaseReport report() const;

    /** Indented text rendering of report() with times and counts. */
    std::string toText() const;

    /** Drop all phases and reset the cursor. */
    void reset();

  private:
    struct Node
    {
        std::string name;
        double seconds = 0.0;
        std::uint64_t count = 0;
        Node* parent = nullptr;
        std::map<std::string, std::unique_ptr<Node>, std::less<>>
            children;
    };

    static void copyTree(const Node& from, PhaseReport& to);

    /** This thread's cursor (created at root on first use); locked. */
    Node*& cursorLocked();

    mutable std::mutex mutex_;
    Node root_;
    std::map<std::thread::id, Node*> cursors_;
};

/** The process-wide profiler of the predictor pipeline. */
PhaseProfiler& pipelineProfiler();

/**
 * RAII phase scope: enters @p name on @p profiler, exits with the
 * measured wall time, and mirrors the span onto the tracer's pipeline
 * track, carrying @p args, when tracing is enabled.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(std::string_view name,
                         std::vector<TraceArg> args = {})
        : ScopedPhase(pipelineProfiler(), name, std::move(args))
    {
    }

    ScopedPhase(PhaseProfiler& profiler, std::string_view name,
                std::vector<TraceArg> args = {});

    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

    ~ScopedPhase();

  private:
    PhaseProfiler& profiler_;
    std::string name_;
    std::vector<TraceArg> args_;
    double startUs_ = 0.0;  ///< tracer wall clock at entry
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

}  // namespace mapp::obs

#endif  // MAPP_OBS_TIMER_H
