/** @file Profiling by shape against full execution. profileWorkload
 * runs KNN and OBJREC on their first image and replays the rest; the
 * trace must be the one running every image records, byte for byte on
 * traceToBinary, at every grid batch, at odd batches and at several
 * seeds. A count that comes to depend on image content makes the two
 * differ. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "isa/trace_binary.h"
#include "profiler/op_profiler.h"
#include "vision/registry.h"

namespace {

using namespace mapp;
using namespace mapp::vision;

/** The trace of running every image of profileWorkload's batch. */
isa::WorkloadTrace
fullTrace(BenchmarkId id, int batch_size, std::uint64_t seed)
{
    // profileWorkload's stream: its seed folds in the batch size.
    ImageStream batch(
        id, batch_size, seed ^ static_cast<std::uint64_t>(batch_size) * 31ull);
    profiler::ProfilerSession session(benchmarkName(id), batch_size);
    runBenchmark(id, batch);
    return session.take();
}

void
expectReplayMatchesFull(BenchmarkId id, const std::vector<int>& batches)
{
    for (std::uint64_t seed : {0ull, 1ull, 2ull}) {
        for (int n : batches) {
            const auto full = fullTrace(id, n, seed);
            const auto replayed = profileWorkload(id, n, seed);
            const std::string where = benchmarkName(id) + "@" +
                                      std::to_string(n) + " seed " +
                                      std::to_string(seed);
            ASSERT_FALSE(full.empty()) << where;
            EXPECT_EQ(replayed.size(), full.size()) << where;
            EXPECT_TRUE(isa::traceToBinary(replayed) ==
                        isa::traceToBinary(full))
                << where << ": replayed trace differs from full execution";
        }
    }
}

std::vector<int>
gridAnd(std::vector<int> odd)
{
    odd.insert(odd.begin(), kBatchSizes.begin(), kBatchSizes.end());
    return odd;
}

TEST(ShapeReplay, KnnMatchesFullExecution)
{
    expectReplayMatchesFull(BenchmarkId::Knn, gridAnd({4, 5, 7, 33}));
}

TEST(ShapeReplay, ObjRecMatchesFullExecution)
{
    expectReplayMatchesFull(BenchmarkId::ObjRec, gridAnd({1, 2, 3, 33}));
}

}  // namespace
