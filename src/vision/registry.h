/**
 * @file
 * The benchmark registry: the paper's nine vision workloads (Table II)
 * behind one enum, plus the profiling batch runner that produces
 * WorkloadTraces (the analogue of running PIN+MICA over a benchmark on
 * one input batch) and a process-wide memoized trace cache.
 */

#ifndef MAPP_VISION_REGISTRY_H
#define MAPP_VISION_REGISTRY_H

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "isa/trace.h"
#include "vision/image.h"

namespace mapp::vision {

/** The nine benchmarks of Table II. */
enum class BenchmarkId : int {
    Fast = 0,
    Hog,
    Knn,
    ObjRec,
    Orb,
    Sift,
    Surf,
    Svm,
    FaceDet,
    NumBenchmarks
};

/** Number of benchmarks. */
inline constexpr int kNumBenchmarks =
    static_cast<int>(BenchmarkId::NumBenchmarks);

/** All benchmarks in the paper's x-axis order. */
inline constexpr std::array<BenchmarkId, 9> kAllBenchmarks = {
    BenchmarkId::Fast, BenchmarkId::Hog,  BenchmarkId::Knn,
    BenchmarkId::ObjRec, BenchmarkId::Orb, BenchmarkId::Sift,
    BenchmarkId::Surf, BenchmarkId::Svm,  BenchmarkId::FaceDet,
};

/** The paper's batch sizes (Section V-B). */
inline constexpr std::array<int, 5> kBatchSizes = {20, 40, 80, 160, 320};

/** Display name matching the paper's figures (e.g. "OBJREC"). */
std::string benchmarkName(BenchmarkId id);

/** Parse a display name back to the id. @throws FatalError if unknown. */
BenchmarkId benchmarkFromName(const std::string& name);

/** One-line description from Table II. */
std::string benchmarkDescription(BenchmarkId id);

/** Side length of the synthetic input images. */
inline constexpr int kImageSize = 192;

/**
 * Smallest batch a benchmark can run on: KNN splits its batch into a
 * reference dictionary and queries, so it needs 4 images; every other
 * benchmark runs on one.
 */
int minBatch(BenchmarkId id);

/**
 * The input batch a benchmark is fed, generated one image at a time:
 * face-bearing scenes for FACEDET, cluttered scenes otherwise.
 * Deterministic in (id, n, seed). A benchmark holds only what it keeps
 * of each image, so running a batch costs the memory of one image, not
 * of the whole batch. Generation records no profiler phases.
 */
class ImageStream
{
  public:
    ImageStream(BenchmarkId id, int n, std::uint64_t seed);

    /** Images in the batch, taken or not. */
    std::size_t size() const { return static_cast<std::size_t>(n_); }

    /** The next image of the batch. Panics past the last one. */
    Image next();

  private:
    BenchmarkId id_;
    int n_;
    int taken_ = 0;
    Rng rng_;
};

/**
 * Execute one benchmark on a batch (no profiling), consuming the
 * stream; returns the benchmark's checksum. Useful for functional tests.
 */
std::size_t runBenchmark(BenchmarkId id, ImageStream& batch);

/**
 * Profile one benchmark at the given batch size: run it under a profiler
 * session and return the trace.
 *
 * Per-image benchmarks are sampled on a few distinct images and the
 * trace is scaled to the full batch (their work is linear per image).
 * KNN and OBJREC count only from shapes, so they run their setup and
 * first image and replay that image's phases for the rest: the trace is
 * the one running every image records, byte for byte. SVM runs the full
 * batch. Either way the images are streamed, so memory does not grow
 * with the batch.
 * @throws FatalError below minBatch(id).
 */
isa::WorkloadTrace profileWorkload(BenchmarkId id, int batch_size,
                                   std::uint64_t seed = 0);

/**
 * Memoized profileWorkload: one profile per (benchmark, batch size) per
 * process, backed by the persistent artifact cache so later processes
 * load the binary trace instead of re-profiling (corrupt entries fall
 * back to re-profiling transparently). In-memory hits and misses are
 * counted under `registry.trace_cache_{hits,misses}`; the disk layer
 * reports under `cache.*`. The returned reference stays valid for the
 * process lifetime.
 */
const isa::WorkloadTrace& cachedTrace(BenchmarkId id, int batch_size);

/** Scale a trace's counts/traffic/work items by an integer factor. */
isa::WorkloadTrace scaleTrace(const isa::WorkloadTrace& trace,
                              std::uint64_t factor);

}  // namespace mapp::vision

#endif  // MAPP_VISION_REGISTRY_H
