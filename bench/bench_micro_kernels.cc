/**
 * @file
 * google-benchmark microbenchmarks of the vision substrate: per-kernel
 * wall-clock throughput of the real algorithm implementations (these
 * time the host execution of the kernels themselves, not the simulated
 * GPU/CPU — useful for keeping the data-collection pipeline fast).
 *
 * The *Reference cases time the pre-rewrite loops of the same
 * primitives (tests/vision_reference.h) in the same process, so a
 * before/after ratio is measured under one machine state. The campaign-
 * shaped cases use the sizes a cold profiling run sees: KNN's distance
 * matrix (a tenth of KNN@320's 7,600 queries), SIFT's widest blur,
 * the gradient polar pass and ObjRec's HoG grid over a campaign ObjRec
 * image, and the synthetic scene generator.
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "tests/vision_reference.h"
#include "vision/facedet.h"
#include "vision/fast.h"
#include "vision/hog.h"
#include "vision/image.h"
#include "vision/knn.h"
#include "vision/objrec.h"
#include "vision/ops.h"
#include "vision/orb.h"
#include "vision/registry.h"
#include "vision/sift.h"
#include "vision/surf.h"
#include "vision/svm.h"

namespace {

using namespace mapp;
using namespace mapp::vision;

Image
benchScene(int size)
{
    Rng rng(42);
    return synth::scene(size, size, rng);
}

void
BM_GaussianBlur(benchmark::State& state)
{
    const Image img = benchScene(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(ops::gaussianBlur(img, 1.6f));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(img.pixels()));
}
BENCHMARK(BM_GaussianBlur)->Arg(96)->Arg(192);

void
BM_IntegralImage(benchmark::State& state)
{
    const Image img = benchScene(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(ops::integral(img));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(img.pixels()));
}
BENCHMARK(BM_IntegralImage)->Arg(96)->Arg(192);

void
BM_Sobel(benchmark::State& state)
{
    const Image img = benchScene(static_cast<int>(state.range(0)));
    Image gx, gy;
    for (auto _ : state) {
        ops::sobel(img, gx, gy);
        benchmark::DoNotOptimize(gx);
    }
}
BENCHMARK(BM_Sobel)->Arg(192);

void
BM_FastDetect(benchmark::State& state)
{
    const Image img = benchScene(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(detectFast(img));
}
BENCHMARK(BM_FastDetect)->Arg(96)->Arg(192);

void
BM_OrbDetect(benchmark::State& state)
{
    const Image img = benchScene(192);
    for (auto _ : state)
        benchmark::DoNotOptimize(detectOrb(img));
}
BENCHMARK(BM_OrbDetect);

void
BM_SiftDetect(benchmark::State& state)
{
    const Image img = benchScene(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(detectSift(img));
}
BENCHMARK(BM_SiftDetect)->Arg(96)->Arg(192);

void
BM_SurfDetect(benchmark::State& state)
{
    const Image img = benchScene(192);
    for (auto _ : state)
        benchmark::DoNotOptimize(detectSurf(img));
}
BENCHMARK(BM_SurfDetect);

void
BM_Hog(benchmark::State& state)
{
    const Image img = benchScene(192);
    for (auto _ : state)
        benchmark::DoNotOptimize(computeHog(img));
}
BENCHMARK(BM_Hog);

void
BM_FaceDetect(benchmark::State& state)
{
    Rng rng(7);
    const Image img = synth::facesScene(192, 192, rng, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(detectFaces(img));
}
BENCHMARK(BM_FaceDetect);

void
BM_SvmTrain(benchmark::State& state)
{
    Rng rng(11);
    std::vector<Descriptor> xs;
    std::vector<int> ys;
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
        Descriptor d(64);
        for (auto& v : d)
            v = static_cast<float>(rng.normal());
        xs.push_back(std::move(d));
        ys.push_back(i % 2 == 0 ? 1 : -1);
    }
    for (auto _ : state) {
        LinearSvm svm;
        svm.train(xs, ys);
        benchmark::DoNotOptimize(svm);
    }
}
BENCHMARK(BM_SvmTrain)->Arg(64)->Arg(256);

void
BM_KnnPredict(benchmark::State& state)
{
    Rng rng(13);
    const auto n = static_cast<int>(state.range(0));
    std::vector<Descriptor> refs;
    std::vector<int> labels;
    for (int i = 0; i < n; ++i) {
        Descriptor d(64);
        for (auto& v : d)
            v = static_cast<float>(rng.normal());
        refs.push_back(std::move(d));
        labels.push_back(i % 2 == 0 ? 1 : -1);
    }
    std::vector<Descriptor> queries(refs.begin(),
                                    refs.begin() + n / 4);
    KnnClassifier knn;
    knn.fit(refs, labels);
    for (auto _ : state)
        benchmark::DoNotOptimize(knn.predict(queries));
}
BENCHMARK(BM_KnnPredict)->Arg(128)->Arg(512);

// ---------------------------------------------------------------------------
// Campaign-shaped cases, each with its pre-rewrite reference.

std::vector<Descriptor>
randomDescriptors(std::size_t n, std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Descriptor> out(n, Descriptor(dim));
    for (auto& d : out)
        for (auto& v : d)
            v = static_cast<float>(rng.normal());
    return out;
}

template <bool kReference>
void
BM_DistanceMatrixKnn(benchmark::State& state)
{
    // KnnParams: 5x5 patches of 12x12 = 144-d; 16 dictionary images.
    const auto queries = randomDescriptors(760, 144, 17);
    const auto refs = randomDescriptors(400, 144, 19);
    for (auto _ : state) {
        if constexpr (kReference)
            benchmark::DoNotOptimize(
                reference::distanceMatrix(queries, refs));
        else
            ops::distanceRows(queries, refs,
                              [](std::size_t, std::span<const double> row) {
                                  benchmark::DoNotOptimize(row.data());
                                  benchmark::ClobberMemory();
                              });
    }
    state.SetItemsProcessed(state.iterations() * 760 * 400 * 144);
}
BENCHMARK_TEMPLATE(BM_DistanceMatrixKnn, false)->Name("BM_DistanceMatrixKnn");
BENCHMARK_TEMPLATE(BM_DistanceMatrixKnn, true)
    ->Name("BM_DistanceMatrixKnnReference");

/** SIFT's widest level: sigma0 * 2^(5/3) = 5.08, a 33-tap kernel. */
constexpr float kSiftTopSigma = 5.08f;

template <bool kReference>
void
BM_GaussianBlurSiftTop(benchmark::State& state)
{
    const Image img = benchScene(192);
    for (auto _ : state) {
        if constexpr (kReference)
            benchmark::DoNotOptimize(
                reference::gaussianBlur(img, kSiftTopSigma));
        else
            benchmark::DoNotOptimize(ops::gaussianBlur(img, kSiftTopSigma));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(img.pixels()));
}
BENCHMARK_TEMPLATE(BM_GaussianBlurSiftTop, false)
    ->Name("BM_GaussianBlurSiftTop");
BENCHMARK_TEMPLATE(BM_GaussianBlurSiftTop, true)
    ->Name("BM_GaussianBlurSiftTopReference");

template <bool kReference>
void
BM_GradientPolar(benchmark::State& state)
{
    // Sobel output of OBJREC@320's first image (profileWorkload's seed).
    const Image img = ImageStream(BenchmarkId::ObjRec, 1, 320 * 31).next();
    Image gx, gy, mag, orient;
    ops::sobel(img, gx, gy);
    for (auto _ : state) {
        if constexpr (kReference)
            reference::gradientPolar(gx, gy, mag, orient);
        else
            ops::gradientPolar(gx, gy, mag, orient);
        benchmark::DoNotOptimize(orient.data().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(img.pixels()));
}
BENCHMARK_TEMPLATE(BM_GradientPolar, false)->Name("BM_GradientPolar");
BENCHMARK_TEMPLATE(BM_GradientPolar, true)
    ->Name("BM_GradientPolarReference");

template <bool kReference>
void
BM_HogObjRec(benchmark::State& state)
{
    const Image img = benchScene(192);
    const HogParams params = ObjRecParams{}.hog;  // 16-pixel cells
    for (auto _ : state) {
        if constexpr (kReference)
            benchmark::DoNotOptimize(reference::computeHog(img, params));
        else
            benchmark::DoNotOptimize(computeHog(img, params));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(img.pixels()));
}
BENCHMARK_TEMPLATE(BM_HogObjRec, false)->Name("BM_HogObjRec");
BENCHMARK_TEMPLATE(BM_HogObjRec, true)->Name("BM_HogObjRecReference");

template <bool kReference>
void
BM_Texture(benchmark::State& state)
{
    Rng rng(23);
    for (auto _ : state) {
        if constexpr (kReference)
            benchmark::DoNotOptimize(reference::texture(192, 192, rng, 8));
        else
            benchmark::DoNotOptimize(synth::texture(192, 192, rng, 8));
    }
    state.SetItemsProcessed(state.iterations() * 192 * 192);
}
BENCHMARK_TEMPLATE(BM_Texture, false)->Name("BM_Texture");
BENCHMARK_TEMPLATE(BM_Texture, true)->Name("BM_TextureReference");

void
BM_SceneGeneration(benchmark::State& state)
{
    Rng rng(29);
    for (auto _ : state)
        benchmark::DoNotOptimize(synth::scene(192, 192, rng));
    state.SetItemsProcessed(state.iterations() * 192 * 192);
}
BENCHMARK(BM_SceneGeneration);

}  // namespace

BENCHMARK_MAIN();
