/** @file Tests for the benchmark registry and profiling batch runner. */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/log.h"
#include "vision/registry.h"

namespace {

using namespace mapp;
using namespace mapp::vision;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
constexpr bool kSanitized = __has_feature(address_sanitizer) ||
                            __has_feature(thread_sanitizer) ||
                            __has_feature(memory_sanitizer);
#else
constexpr bool kSanitized = false;
#endif

/** A /proc/self/status field in kB, or -1 when it is missing. */
long
statusKb(const std::string& field)
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind(field + ":", 0) == 0)
            return std::stol(line.substr(field.size() + 1));
    return -1;
}

/**
 * Resident memory, in MB, that profiling one member adds at its peak.
 * The profile runs in a forked child whose high-water mark is reset
 * first (clear_refs 5), so earlier tests and the parent's heap do not
 * count. @return a negative value when the kernel cannot reset it.
 */
double
profilePeakGrowthMb(BenchmarkId id, int batch)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        double growth = -1.0;
        if (std::ofstream("/proc/self/clear_refs") << "5") {
            const long base = statusKb("VmHWM");
            (void)profileWorkload(id, batch);
            growth = static_cast<double>(statusKb("VmHWM") - base) / 1024.0;
        }
        char buf[64];
        const int n = std::snprintf(buf, sizeof(buf), "%.3f", growth);
        const bool sent = write(fds[1], buf, static_cast<std::size_t>(n)) == n;
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    char buf[64] = {};
    const ssize_t n = read(fds[0], buf, sizeof(buf) - 1);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (n <= 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1.0;
    return std::stod(buf);
}

TEST(Registry, NamesRoundTrip)
{
    for (BenchmarkId id : kAllBenchmarks)
        EXPECT_EQ(benchmarkFromName(benchmarkName(id)), id);
}

TEST(Registry, UnknownNameIsFatal)
{
    EXPECT_THROW(benchmarkFromName("NOPE"), FatalError);
}

TEST(Registry, NineBenchmarksMatchTable2)
{
    EXPECT_EQ(kNumBenchmarks, 9);
    EXPECT_EQ(benchmarkName(BenchmarkId::ObjRec), "OBJREC");
    EXPECT_EQ(benchmarkName(BenchmarkId::FaceDet), "FACEDET");
    for (BenchmarkId id : kAllBenchmarks)
        EXPECT_FALSE(benchmarkDescription(id).empty());
}

TEST(Registry, PaperBatchSizes)
{
    ASSERT_EQ(kBatchSizes.size(), 5u);
    EXPECT_EQ(kBatchSizes[0], 20);
    EXPECT_EQ(kBatchSizes[4], 320);
}

TEST(Registry, ImageStreamDeterministic)
{
    ImageStream a(BenchmarkId::Sift, 3, 7);
    ImageStream b(BenchmarkId::Sift, 3, 7);
    ASSERT_EQ(a.size(), 3u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.next().data(), b.next().data());
}

TEST(Registry, ImageStreamVariesWithSeed)
{
    ImageStream a(BenchmarkId::Sift, 1, 7);
    ImageStream b(BenchmarkId::Sift, 1, 8);
    EXPECT_NE(a.next().data(), b.next().data());
}

TEST(Registry, ImageStreamImageDoesNotDependOnBatchSize)
{
    // The i-th image is the same whatever the batch size: a stream of
    // n images is the head of any longer one with the same seed.
    ImageStream shortBatch(BenchmarkId::FaceDet, 2, 5);
    ImageStream longBatch(BenchmarkId::FaceDet, 6, 5);
    for (std::size_t i = 0; i < shortBatch.size(); ++i)
        EXPECT_EQ(shortBatch.next().data(), longBatch.next().data());
}

TEST(Registry, EveryBenchmarkRunsOnASmallBatch)
{
    for (BenchmarkId id : kAllBenchmarks) {
        ImageStream batch(id, 4, 1);
        EXPECT_NO_THROW(runBenchmark(id, batch))
            << benchmarkName(id);
    }
}

TEST(Registry, ProfileWorkloadRejectsBatchesBelowMinBatch)
{
    // KNN needs references plus queries (minBatch 4): below that it must
    // fail before profiling, naming the minimum, not yield an empty trace.
    try {
        (void)profileWorkload(BenchmarkId::Knn, 3);
        FAIL() << "KNN@3 profiled";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("at least 4"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(profileWorkload(BenchmarkId::Knn, 4).empty());
}

TEST(Registry, ProfileWorkloadProducesNonEmptyTrace)
{
    const auto trace = profileWorkload(BenchmarkId::Hog, 20);
    EXPECT_EQ(trace.app(), "HoG");
    EXPECT_EQ(trace.batchSize(), 20);
    EXPECT_FALSE(trace.empty());
    EXPECT_GT(trace.totalInstructions(), 0u);
}

TEST(Registry, ProfileWorkloadRejectsBadBatch)
{
    EXPECT_THROW(profileWorkload(BenchmarkId::Hog, 0), FatalError);
}

TEST(Registry, SampledScalingGrowsWithBatch)
{
    // Per-image benchmarks are sampled + scaled: instructions should be
    // roughly proportional to the batch size.
    const auto t20 = profileWorkload(BenchmarkId::Fast, 20);
    const auto t80 = profileWorkload(BenchmarkId::Fast, 80);
    const double ratio =
        static_cast<double>(t80.totalInstructions()) /
        static_cast<double>(t20.totalInstructions());
    EXPECT_GT(ratio, 2.5);
    EXPECT_LT(ratio, 6.0);
}

TEST(Registry, ScaleTraceMultipliesCountsNotFootprint)
{
    const auto base = profileWorkload(BenchmarkId::Fast, 4);
    const auto scaled = scaleTrace(base, 3);
    EXPECT_EQ(scaled.totalInstructions(), base.totalInstructions() * 3);
    EXPECT_EQ(scaled.totalBytesRead(), base.totalBytesRead() * 3);
    EXPECT_EQ(scaled.peakFootprint(), base.peakFootprint());
    ASSERT_EQ(scaled.size(), base.size());
    EXPECT_EQ(scaled.phases()[0].launches,
              base.phases()[0].launches * 3);
}

TEST(Registry, CachedTraceIsStable)
{
    const auto& a = cachedTrace(BenchmarkId::Svm, 20);
    const auto& b = cachedTrace(BenchmarkId::Svm, 20);
    EXPECT_EQ(&a, &b);  // same object, memoized
    EXPECT_EQ(a.app(), "SVM");
}

TEST(Registry, DistinctBenchmarksHaveDistinctMixes)
{
    // The predictor depends on benchmarks being distinguishable by mix:
    // compare FAST (integer/control heavy) vs SVM (SIMD heavy).
    const auto fast = profileWorkload(BenchmarkId::Fast, 20).totalMix();
    const auto svm = profileWorkload(BenchmarkId::Svm, 20).totalMix();
    EXPECT_GT(fast.fraction(isa::InstClass::Control),
              svm.fraction(isa::InstClass::Control));
    EXPECT_GT(svm.fraction(isa::InstClass::Simd),
              fast.fraction(isa::InstClass::Simd));
}

TEST(Registry, ProfilingMemoryDoesNotGrowWithTheBatch)
{
    if (kSanitized)
        GTEST_SKIP() << "the sanitizer's quarantine keeps freed images "
                        "resident, so the peak measures the quarantine";
    // Streamed, a training-style member holds what it keeps of each
    // image (SVM: a thumbnail), never the 320 images. KNN and OBJREC are
    // profiled by shape: they hold their first image and its phases, not
    // KNN's 7,600 query descriptors (KNN measured 0.7-0.8 MB).
    const struct
    {
        BenchmarkId id;
        double maxMb;
    } members[] = {
        {BenchmarkId::Knn, 1.6},
        {BenchmarkId::ObjRec, 8.0},
        {BenchmarkId::Svm, 8.0},
    };
    for (const auto& m : members) {
        const double growth = profilePeakGrowthMb(m.id, 320);
        if (growth < 0.0)
            GTEST_SKIP() << "cannot reset the resident high-water mark";
        EXPECT_LT(growth, m.maxMb) << benchmarkName(m.id) << "@320";
        std::printf("%s@320 peak growth: %.1f MB\n",
                    benchmarkName(m.id).c_str(), growth);
    }
}

TEST(Registry, FaceDetBatchesContainFaces)
{
    // FaceDet inputs come from the faces generator, so the detector
    // actually finds work to do.
    ImageStream batch(BenchmarkId::FaceDet, 2, 3);
    EXPECT_GT(runBenchmark(BenchmarkId::FaceDet, batch), 0u);
}

}  // namespace
