#include "vision/registry.h"

#include "cache/artifact_cache.h"
#include "cache/memo.h"
#include "common/log.h"
#include "common/rng.h"
#include "isa/trace_binary.h"
#include "profiler/op_profiler.h"
#include "vision/facedet.h"
#include "vision/fast.h"
#include "vision/hog.h"
#include "vision/knn.h"
#include "vision/objrec.h"
#include "vision/orb.h"
#include "vision/sift.h"
#include "vision/surf.h"
#include "vision/svm.h"

namespace mapp::vision {

std::string
benchmarkName(BenchmarkId id)
{
    switch (id) {
      case BenchmarkId::Fast: return "FAST";
      case BenchmarkId::Hog: return "HoG";
      case BenchmarkId::Knn: return "KNN";
      case BenchmarkId::ObjRec: return "OBJREC";
      case BenchmarkId::Orb: return "ORB";
      case BenchmarkId::Sift: return "SIFT";
      case BenchmarkId::Surf: return "SURF";
      case BenchmarkId::Svm: return "SVM";
      case BenchmarkId::FaceDet: return "FACEDET";
      default: break;
    }
    panic("benchmarkName: invalid benchmark id");
}

BenchmarkId
benchmarkFromName(const std::string& name)
{
    for (BenchmarkId id : kAllBenchmarks)
        if (benchmarkName(id) == name)
            return id;
    fatal("benchmarkFromName: unknown benchmark " + name);
}

std::string
benchmarkDescription(BenchmarkId id)
{
    switch (id) {
      case BenchmarkId::Fast:
        return "Extracts corners from an image (FAST-9 segment test).";
      case BenchmarkId::Hog:
        return "Histograms of oriented gradients with block "
               "normalization.";
      case BenchmarkId::Knn:
        return "Classifies features with brute-force nearest neighbors.";
      case BenchmarkId::ObjRec:
        return "Object recognition: HoG feature extraction + SVM "
               "classification.";
      case BenchmarkId::Orb:
        return "FAST detector + rotated BRIEF binary descriptors.";
      case BenchmarkId::Sift:
        return "Scale/rotation/illumination-invariant features via a "
               "DoG pyramid.";
      case BenchmarkId::Surf:
        return "Speeded-up robust features via integral-image box "
               "filters.";
      case BenchmarkId::Svm:
        return "Trains a support vector machine and predicts feature "
               "classes.";
      case BenchmarkId::FaceDet:
        return "Face detection with a Haar cascade classifier.";
      default: break;
    }
    panic("benchmarkDescription: invalid benchmark id");
}

std::vector<Image>
generateBatch(BenchmarkId id, int n, std::uint64_t seed)
{
    // Mix the benchmark id and seed so each (benchmark, batch) pair sees
    // distinct deterministic content.
    Rng rng(seed * 0x9E3779B97F4A7C15ull +
            static_cast<std::uint64_t>(id) * 0x100000001B3ull + 17);
    std::vector<Image> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        if (id == BenchmarkId::FaceDet) {
            out.push_back(synth::facesScene(kImageSize, kImageSize, rng,
                                            2 + i % 3));
        } else {
            out.push_back(synth::scene(kImageSize, kImageSize, rng));
        }
    }
    return out;
}

std::size_t
runBenchmark(BenchmarkId id, const std::vector<Image>& batch)
{
    switch (id) {
      case BenchmarkId::Fast: return runFastBenchmark(batch);
      case BenchmarkId::Hog: return runHogBenchmark(batch);
      case BenchmarkId::Knn: return runKnnBenchmark(batch);
      case BenchmarkId::ObjRec: return runObjRecBenchmark(batch);
      case BenchmarkId::Orb: return runOrbBenchmark(batch);
      case BenchmarkId::Sift: return runSiftBenchmark(batch);
      case BenchmarkId::Surf: return runSurfBenchmark(batch);
      case BenchmarkId::Svm: return runSvmBenchmark(batch);
      case BenchmarkId::FaceDet: return runFaceDetBenchmark(batch);
      default: break;
    }
    panic("runBenchmark: invalid benchmark id");
}

namespace {

/** True for benchmarks whose cost is linear per image. */
bool
isPerImage(BenchmarkId id)
{
    switch (id) {
      case BenchmarkId::Svm:
      case BenchmarkId::Knn:
      case BenchmarkId::ObjRec:
        return false;
      default:
        return true;
    }
}

/** Distinct images actually executed for per-image benchmarks. */
constexpr int kSampleImages = 4;

}  // namespace

isa::WorkloadTrace
scaleTrace(const isa::WorkloadTrace& trace, std::uint64_t factor)
{
    isa::WorkloadTrace out(trace.app(), trace.batchSize());
    for (const auto& phase : trace.phases()) {
        isa::KernelPhase p = phase;
        p.mix = phase.mix.scaled(factor);
        p.bytesRead = phase.bytesRead * factor;
        p.bytesWritten = phase.bytesWritten * factor;
        p.workItems = phase.workItems * factor;
        p.launches = phase.launches * factor;
        out.append(std::move(p));
    }
    return out;
}

isa::WorkloadTrace
profileWorkload(BenchmarkId id, int batch_size, std::uint64_t seed)
{
    if (batch_size <= 0)
        fatal("profileWorkload: batch size must be positive");

    const bool sampled =
        isPerImage(id) && batch_size > kSampleImages &&
        batch_size % kSampleImages == 0;
    const int executed = sampled ? kSampleImages : batch_size;

    // The seed folds in the batch size so every batch size sees its own
    // image content (a new data point in the paper's sense).
    const auto batch = generateBatch(
        id, executed, seed ^ static_cast<std::uint64_t>(batch_size) * 31ull);

    profiler::ProfilerSession session(benchmarkName(id), batch_size);
    runBenchmark(id, batch);
    isa::WorkloadTrace trace = session.take();

    if (sampled) {
        trace = scaleTrace(
            trace, static_cast<std::uint64_t>(batch_size / executed));
    }
    return trace;
}

namespace {

/**
 * Artifact-cache key for one profiled trace: identity (benchmark,
 * batch) plus every knob the profile depends on — the synthetic image
 * size, the per-image sampling width, and the profiling seed — so a
 * change to any of them lands on a fresh key.
 */
std::uint64_t
traceCacheKey(BenchmarkId id, int batch_size)
{
    cache::Hasher h = cache::keyHasher("trace");
    h.add(benchmarkName(id));
    h.add(batch_size);
    h.add(kImageSize);
    h.add(kSampleImages);
    h.add(std::uint64_t{0});  // profileWorkload's default seed
    return h.digest();
}

}  // namespace

const isa::WorkloadTrace&
cachedTrace(BenchmarkId id, int batch_size)
{
    static cache::Memo<std::pair<BenchmarkId, int>, isa::WorkloadTrace>
        traces("registry.trace_cache");
    return traces.get({id, batch_size}, [&] {
        return cache::defaultArtifactCache().loadOrCompute(
            "trace", traceCacheKey(id, batch_size), isa::traceFromBinary,
            [&] { return profileWorkload(id, batch_size); },
            isa::traceToBinary);
    });
}

}  // namespace mapp::vision
