/**
 * @file
 * The co-run simulation-engine microbench: raw event throughput of the
 * single-bag discrete-event engines (GPU MPS and CPU multicore) against
 * the in-process seed-loop transcription (tests/sim_reference.h — an A/B
 * under one machine state, immune to run-to-run machine drift), bag
 * throughput of the batch sweep path (serial loop vs. one parallelFor
 * sweep at the default thread count), and the cold end-to-end campaign
 * wall time (the number `mapp_cli collect` pays on a cold cache).
 * Every number lands in the metrics sidecar (bench.sim.* gauges) and,
 * with --json-out, in a standalone JSON snapshot so the engine's perf
 * trajectory is measured, not asserted.
 *
 * Flags:
 *   --iters=<n>     scale all repetition counts (default 200; the
 *                   bench_micro_sim_smoke ctest entry passes a tiny
 *                   value so the path is compile- and run-checked in
 *                   tier 1).
 *   --json-out=<f>  also write the gauge snapshot to <f> (default: no
 *                   file).
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/harness.h"
#include "cache/artifact_cache.h"
#include "common/parallel.h"
#include "common/parse.h"
#include "common/table.h"
#include "tests/sim_reference.h"
#include "vision/registry.h"

using namespace mapp;

namespace {

/** One-shot wall time of @p body in seconds. */
double
onceSeconds(const std::function<void()>& body)
{
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Time @p reps calls of @p body, splitting them into slices and
 * scaling the fastest slice to the full rep count (the same
 * noise-rejecting minimum estimator as the other microbenches).
 */
double
secondsFor(const std::function<void()>& body, long reps)
{
    constexpr long kSlices = 10;
    const long perSlice = std::max(1L, reps / kSlices);
    double best = 0.0;
    for (long done = 0; done < reps; done += perSlice) {
        const long n = std::min(perSlice, reps - done);
        const auto t0 = std::chrono::steady_clock::now();
        for (long r = 0; r < n; ++r)
            body();
        const auto t1 = std::chrono::steady_clock::now();
        const double perRep =
            std::chrono::duration<double>(t1 - t0).count() /
            static_cast<double>(n);
        if (best == 0.0 || perRep < best)
            best = perRep;
    }
    return best * static_cast<double>(reps);
}

void
setGauge(const std::string& key, double value)
{
    obs::defaultRegistry().gauge(key).set(value);
}

std::uint64_t
counterValue(const char* name)
{
    return obs::defaultRegistry().counter(name).value();
}

}  // namespace

int
main(int argc, char** argv)
{
    long iters = 200;
    std::string jsonOut;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--iters=", 0) == 0) {
            const auto v = parseBoundedInt(
                arg.substr(std::string("--iters=").size()), 1, 1 << 24);
            if (!v) {
                std::fprintf(stderr, "error: bad --iters: %s\n",
                             v.error().message().c_str());
                return 1;
            }
            iters = v.value();
        } else if (arg.rfind("--json-out=", 0) == 0) {
            jsonOut = arg.substr(std::string("--json-out=").size());
        } else {
            std::fprintf(stderr, "error: unknown flag '%s'\n",
                         arg.c_str());
            return 1;
        }
    }

    bench::printSystemHeader(
        "Simulation-engine microbench - events/sec, bags/sec, cold "
        "campaign");

    // Point the process-wide artifact cache at a throwaway directory so
    // the cold-campaign measurement is genuinely cold and this bench
    // never pollutes a real ~/.cache/mapp.
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() /
        ("mapp_bench_sim_" + std::to_string(::getpid()));
    fs::remove_all(root);
    auto& cache = cache::defaultArtifactCache();
    cache.setDirectory(root.string());

    const auto& sift = vision::cachedTrace(vision::BenchmarkId::Sift, 40);
    const auto& orb = vision::cachedTrace(vision::BenchmarkId::Orb, 40);
    const auto& hog = vision::cachedTrace(vision::BenchmarkId::Hog, 20);
    const auto& fast = vision::cachedTrace(vision::BenchmarkId::Fast, 80);
    const gpusim::MpsSim gpu;
    const cpusim::MulticoreSim cpu;

    // --- single-bag engines: simulator events per second -------------
    const double gpuBagSec = secondsFor(
        [&] { (void)gpu.runShared({&sift, &orb}); }, iters);
    const double cpuBagSec = secondsFor(
        [&] { (void)cpu.runShared({&sift, &orb}, {8, 8}); }, iters);

    // Seed-loop baseline, timed in the same process and machine state:
    // the speedup ratio below is the honest before/after number (two
    // separate runs of this bench can drift ~20% on a shared host).
    const std::vector<const isa::WorkloadTrace*> abBag{&sift, &orb};
    const double gpuSeedSec = secondsFor(
        [&] {
            (void)sim::reference::runGpuSeedLoop(abBag, gpu.config());
        },
        iters);
    const double cpuSeedSec = secondsFor(
        [&] {
            (void)sim::reference::runCpuSeedLoop(abBag, {8, 8},
                                                 cpu.config());
        },
        iters);

    // Exact per-bag event counts from one counted run (the engines are
    // deterministic, so one run's count is every run's count).
    const std::uint64_t g0 = counterValue("gpusim.sim_events");
    (void)gpu.runShared({&sift, &orb});
    const double gpuPerBag =
        static_cast<double>(counterValue("gpusim.sim_events") - g0);
    const std::uint64_t c0 = counterValue("cpusim.sim_events");
    (void)cpu.runShared({&sift, &orb}, {8, 8});
    const double cpuPerBag =
        static_cast<double>(counterValue("cpusim.sim_events") - c0);

    const double gpuBagUs =
        1e6 * gpuBagSec / static_cast<double>(iters);
    const double cpuBagUs =
        1e6 * cpuBagSec / static_cast<double>(iters);
    const double gpuEventsPerSec = gpuPerBag / (gpuBagUs * 1e-6);
    const double cpuEventsPerSec = cpuPerBag / (cpuBagUs * 1e-6);

    const double gpuSeedUs =
        1e6 * gpuSeedSec / static_cast<double>(iters);
    const double cpuSeedUs =
        1e6 * cpuSeedSec / static_cast<double>(iters);
    const double gpuSeedEventsPerSec = gpuPerBag / (gpuSeedUs * 1e-6);
    const double cpuSeedEventsPerSec = cpuPerBag / (cpuSeedUs * 1e-6);
    const double gpuSpeedup = gpuSeedSec / gpuBagSec;
    const double cpuSpeedup = cpuSeedSec / cpuBagSec;

    // --- batch sweep: bags/sec, serial loop vs one parallel sweep ----
    std::vector<std::pair<const isa::WorkloadTrace*,
                          const isa::WorkloadTrace*>>
        bagList;
    const isa::WorkloadTrace* ring[] = {&sift, &orb, &hog, &fast};
    constexpr std::size_t kBatchBags = 64;
    for (std::size_t i = 0; i < kBatchBags; ++i)
        bagList.emplace_back(ring[i % 4], ring[(i + 1 + i / 4) % 4]);

    const long laps = std::max(1L, iters / 50);
    const double serialSec = secondsFor(
        [&] {
            for (const auto& [a, b] : bagList)
                (void)gpu.runShared({a, b});
        },
        laps);
    const double parallelSec = secondsFor(
        [&] {
            parallel::parallelFor(bagList.size(), [&](std::size_t i) {
                (void)gpu.runShared({bagList[i].first,
                                     bagList[i].second});
            });
        },
        laps);
    const double totalBags =
        static_cast<double>(kBatchBags) * static_cast<double>(laps);
    const double serialBagsPerSec = totalBags / serialSec;
    const double parallelBagsPerSec = totalBags / parallelSec;

    // --- cold campaign: the end-to-end `collect` cost ----------------
    std::vector<predictor::DataPoint> points;
    const double campaignCold = onceSeconds([&] {
        predictor::DataCollector cold;
        points = cold.collectAll(
            predictor::DataCollector::campaign91());
    });

    TextTable table("co-run simulation engine");
    table.setHeader({"path", "metric", "value"});
    table.addRow({"gpusim 2-app bag (seed loop)", "us/bag",
                  formatDouble(gpuSeedUs, 1)});
    table.addRow({"gpusim 2-app bag (seed loop)", "events/sec",
                  formatDouble(gpuSeedEventsPerSec / 1e6, 3) + "M"});
    table.addRow({"gpusim 2-app bag (engine)", "us/bag",
                  formatDouble(gpuBagUs, 1)});
    table.addRow({"gpusim 2-app bag (engine)", "events/sec",
                  formatDouble(gpuEventsPerSec / 1e6, 3) + "M"});
    table.addRow({"gpusim engine vs seed", "speedup",
                  formatDouble(gpuSpeedup, 2) + "x"});
    table.addRow({"cpusim 2-app bag (seed loop)", "us/bag",
                  formatDouble(cpuSeedUs, 1)});
    table.addRow({"cpusim 2-app bag (seed loop)", "events/sec",
                  formatDouble(cpuSeedEventsPerSec / 1e6, 3) + "M"});
    table.addRow({"cpusim 2-app bag (engine)", "us/bag",
                  formatDouble(cpuBagUs, 1)});
    table.addRow({"cpusim 2-app bag (engine)", "events/sec",
                  formatDouble(cpuEventsPerSec / 1e6, 3) + "M"});
    table.addRow({"cpusim engine vs seed", "speedup",
                  formatDouble(cpuSpeedup, 2) + "x"});
    table.addRow({"batch 64-bag sweep (serial)", "bags/sec",
                  formatDouble(serialBagsPerSec, 1)});
    table.addRow({"batch 64-bag sweep (parallel)", "bags/sec",
                  formatDouble(parallelBagsPerSec, 1)});
    table.addRow({"campaign(91) cold collect", "seconds",
                  formatDouble(campaignCold, 3)});
    std::printf("%s", table.render().c_str());
    std::printf("\nper-bag events: gpusim %.0f, cpusim %.0f | "
                "parallel lanes: %d\n",
                gpuPerBag, cpuPerBag, parallel::maxThreads());

    setGauge("bench.sim.gpu.bag_us", gpuBagUs);
    setGauge("bench.sim.gpu.events_per_sec", gpuEventsPerSec);
    setGauge("bench.sim.gpu.events_per_bag", gpuPerBag);
    setGauge("bench.sim.gpu.seed_bag_us", gpuSeedUs);
    setGauge("bench.sim.gpu.seed_events_per_sec", gpuSeedEventsPerSec);
    setGauge("bench.sim.gpu.speedup_vs_seed", gpuSpeedup);
    setGauge("bench.sim.cpu.bag_us", cpuBagUs);
    setGauge("bench.sim.cpu.events_per_sec", cpuEventsPerSec);
    setGauge("bench.sim.cpu.events_per_bag", cpuPerBag);
    setGauge("bench.sim.cpu.seed_bag_us", cpuSeedUs);
    setGauge("bench.sim.cpu.seed_events_per_sec", cpuSeedEventsPerSec);
    setGauge("bench.sim.cpu.speedup_vs_seed", cpuSpeedup);
    setGauge("bench.sim.batch.bags_per_sec_serial", serialBagsPerSec);
    setGauge("bench.sim.batch.bags_per_sec_parallel",
             parallelBagsPerSec);
    setGauge("bench.sim.batch.parallel_speedup",
             serialSec / parallelSec);
    setGauge("bench.sim.campaign_cold_s", campaignCold);

    if (!jsonOut.empty()) {
        if (!obs::defaultRegistry().writeJson(jsonOut))
            std::fprintf(stderr, "error: cannot write %s\n",
                         jsonOut.c_str());
        else
            std::printf("wrote %s\n", jsonOut.c_str());
    }

    cache.setDirectory("");
    fs::remove_all(root);
    return 0;
}
