/**
 * @file
 * Extending MAPP with a custom workload: implement a new instrumented
 * kernel (a 2-D box-blur photo filter), profile it, run it through both
 * performance simulators and predict its behaviour in a bag with SIFT —
 * the end-to-end recipe a downstream user follows to cover their own
 * application.
 */

#include <cstdio>

#include "cpusim/multicore_sim.h"
#include "gpusim/mps_sim.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"
#include "profiler/mica.h"
#include "profiler/op_profiler.h"
#include "vision/ops.h"
#include "vision/registry.h"

using namespace mapp;

namespace {

/** The custom kernel: box blur + contrast stretch over a batch, one
 * image at a time. */
std::size_t
runPhotoFilter(vision::ImageStream& batch)
{
    std::size_t checksum = 0;
    const std::vector<float> box(25, 1.0f / 25.0f);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const vision::Image staged = vision::ops::copyImage(batch.next());
        const vision::Image blurred =
            vision::ops::convolve2d(staged, box, 5);

        // Contrast stretch (instrumented as one phase).
        float lo = 1e30f;
        float hi = -1e30f;
        for (float v : blurred.data()) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        const float span = std::max(hi - lo, 1e-6f);
        double sum = 0.0;
        for (float v : blurred.data())
            sum += static_cast<double>((v - lo) / span);
        checksum += static_cast<std::size_t>(sum);

        const auto px = static_cast<InstCount>(blurred.pixels());
        vision::ops::PhaseBuilder("contrast_stretch")
            .insts(isa::InstClass::MemRead, px * 2)
            .insts(isa::InstClass::FpAlu, px * 3)
            .insts(isa::InstClass::Simd, px)
            .insts(isa::InstClass::Control, px)
            .insts(isa::InstClass::MemWrite, px / 2)
            .read(px * 2 * sizeof(float))
            .write(px / 2 * sizeof(float))
            .foot(blurred.sizeBytes())
            .par(0.97)
            .items(px)
            .loc(0.7)
            .div(0.05)
            .record();
    }
    return checksum;
}

}  // namespace

int
main()
{
    // 1. Profile the custom workload (PIN/MICA stand-in).
    vision::ImageStream batch(
        vision::BenchmarkId::Hog, 20, /*seed=*/7);  // any image source
    profiler::ProfilerSession session("PHOTOFILTER", 20);
    runPhotoFilter(batch);
    const auto trace = session.take();
    std::printf("%s\n", profiler::characterize(trace).toString().c_str());

    // 2. Single-instance times on both simulated machines.
    cpusim::MulticoreSim cpu;
    gpusim::MpsSim gpu;
    const int threads = cpu.bestThreadCount(trace);
    const auto cpuAlone = cpu.runAlone(trace, threads);
    const auto gpuAlone = gpu.runAlone(trace);
    std::printf("CPU alone: %.3f ms (best threads %d), GPU alone: %.3f "
                "ms\n",
                cpuAlone.time * 1e3, threads, gpuAlone.time * 1e3);

    // 3. Measure the bag with SIFT and compare with the prediction of a
    //    model trained only on the standard campaign.
    predictor::DataCollector collector;
    predictor::MultiAppPredictor model;
    model.train(collector.collectAll(
        predictor::DataCollector::campaign91()));

    const auto& sift = vision::cachedTrace(vision::BenchmarkId::Sift, 20);
    const auto bag = gpu.runShared({&trace, &sift});

    // Assemble the custom app's features by hand.
    predictor::AppFeatures custom;
    custom.app = "PHOTOFILTER";
    custom.batchSize = 20;
    custom.cpuTime = cpuAlone.time;
    custom.gpuTime = gpuAlone.time;
    custom.mixPercent = profiler::characterize(trace).mixPercent;

    const auto siftMember =
        predictor::BagMember{vision::BenchmarkId::Sift, 20};
    const auto cpuBag = cpu.runShared(
        {&trace, &sift},
        {threads, cpu.bestThreadCount(sift)});
    const std::vector<double> ipcShared{cpuBag.apps[0].ipc,
                                        cpuBag.apps[1].ipc};
    const std::vector<double> ipcAlone{
        cpuAlone.ipc, collector.ipcAlone(siftMember)};
    const double fairness = predictor::fairness(ipcShared, ipcAlone);

    const double predicted = model.predict(
        custom, collector.appFeatures(siftMember), fairness);
    std::printf("bag PHOTOFILTER+SIFT: measured %.3f ms, predicted %.3f "
                "ms (fairness %.3f)\n",
                bag.makespan * 1e3, predicted * 1e3, fairness);
    return 0;
}
