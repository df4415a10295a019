/**
 * @file
 * Golden bit-identity suite for the shared co-run engine.
 *
 * The engine (sim/corun_engine.h) promises bit-identical completion
 * times to the original per-simulator event loops, which live on as
 * literal transcriptions in tests/sim_reference.h. The fuzz tests here
 * compare the two with EXPECT_EQ on raw doubles — not NEAR — across
 * randomized 1..8-member bags that include the degenerate corners
 * (single-instruction phases, host-staged copies, zero thread counts).
 *
 * Also covered: the sim.* metrics family, the located event-limit
 * error, tracing parity, and the collector's simulateBags() /
 * measureFairnessBatch() batch API (equal to the serial path at every
 * pool size).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "cpusim/multicore_sim.h"
#include "gpusim/mps_sim.h"
#include "isa/trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "predictor/data_collection.h"
#include "sim/corun_engine.h"
#include "sim_reference.h"

namespace {

using namespace mapp;

/**
 * One random phase spanning the model's behavior space, including the
 * degenerate corners the engine must not mishandle.
 */
isa::KernelPhase
randomPhase(std::mt19937& rng)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<InstCount> instDist(1, 40'000'000);
    isa::KernelPhase p;
    const double pick = unit(rng);

    if (pick < 0.15) {
        // Degenerate: a single instruction on a single work item.
        p.name = "tiny";
        p.mix.add(isa::InstClass::IntAlu, 1);
        p.workItems = 1;
        p.footprint = 64;
        p.locality = unit(rng);
        p.parallelFraction = unit(rng);
        return p;
    }
    if (pick < 0.30) {
        // Host-staged input copy (PCIe on the GPU path).
        p.name = "stage";
        p.hostStaged = true;
        p.mix.add(isa::InstClass::MemRead, instDist(rng) / 1000 + 1);
        p.bytesRead =
            1 + static_cast<Bytes>(unit(rng) * double(64ull << 20));
        p.workItems = 1 + p.bytesRead / 4096;
        p.launches = 1 + static_cast<std::uint64_t>(unit(rng) * 4.0);
        return p;
    }

    const InstCount insts = instDist(rng);
    p.name = unit(rng) < 0.5 ? "compute" : "memory";
    p.mix.add(isa::InstClass::IntAlu, insts / 4 + 1);
    p.mix.add(isa::InstClass::FpAlu, insts / 4);
    p.mix.add(isa::InstClass::Simd, insts / 8);
    p.mix.add(isa::InstClass::MemRead, insts / 4);
    p.mix.add(isa::InstClass::MemWrite, insts / 8);
    p.mix.add(isa::InstClass::Control, insts / 16);
    p.bytesRead = (insts / 4) * 8;
    p.bytesWritten = (insts / 8) * 4;
    p.footprint = static_cast<Bytes>(
        1024.0 * std::pow(2.0, unit(rng) * 16.0));  // 1 KiB..64 MiB
    p.locality = unit(rng);
    p.parallelFraction = unit(rng);
    p.branchDivergence = unit(rng) * 0.5;
    p.workItems = 1 + static_cast<std::uint64_t>(unit(rng) * 1e6);
    p.launches = 1 + static_cast<std::uint64_t>(unit(rng) * 8.0);
    return p;
}

isa::WorkloadTrace
randomTrace(std::mt19937& rng, const std::string& app)
{
    std::uniform_int_distribution<int> phases(1, 12);
    isa::WorkloadTrace trace(app, 20);
    const int n = phases(rng);
    for (int i = 0; i < n; ++i)
        trace.append(randomPhase(rng));
    return trace;
}

std::vector<isa::WorkloadTrace>
randomBag(std::mt19937& rng, int members)
{
    std::vector<isa::WorkloadTrace> bag;
    bag.reserve(static_cast<std::size_t>(members));
    for (int i = 0; i < members; ++i)
        bag.push_back(randomTrace(rng, "FUZZ" + std::to_string(i)));
    return bag;
}

std::vector<const isa::WorkloadTrace*>
pointers(const std::vector<isa::WorkloadTrace>& bag)
{
    std::vector<const isa::WorkloadTrace*> out;
    out.reserve(bag.size());
    for (const auto& t : bag)
        out.push_back(&t);
    return out;
}

// -------------------------------------------------------------------
// Golden fuzz: engine vs the seed-loop transcription, exact equality.
// -------------------------------------------------------------------

TEST(SimEngineGolden, GpuFuzzBitIdentity)
{
    std::mt19937 rng(0x5eed0001u);
    const gpusim::MpsSim sim;
    std::uniform_int_distribution<int> members(1, 8);
    for (int iter = 0; iter < 40; ++iter) {
        const auto bag = randomBag(rng, members(rng));
        const auto ptrs = pointers(bag);
        const auto expect =
            sim::reference::runGpuSeedLoop(ptrs, sim.config());
        const auto got = sim.runShared(ptrs);
        ASSERT_EQ(got.apps.size(), expect.size());
        Seconds makespan = 0.0;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got.apps[i].time, expect[i])
                << "iter " << iter << " client " << i;
            makespan = std::max(makespan, expect[i]);
        }
        EXPECT_EQ(got.makespan, makespan) << "iter " << iter;
    }
}

TEST(SimEngineGolden, CpuFuzzBitIdentity)
{
    std::mt19937 rng(0x5eed0002u);
    const cpusim::MulticoreSim sim;
    std::uniform_int_distribution<int> members(1, 8);
    // Includes 0 (the clamp-to-1 corner) and counts beyond the core
    // budget (oversubscription).
    const int threadChoices[] = {0, 1, 2, 5, 8, 16, 48};
    std::uniform_int_distribution<int> threadPick(0, 6);
    for (int iter = 0; iter < 40; ++iter) {
        const auto bag = randomBag(rng, members(rng));
        const auto ptrs = pointers(bag);
        std::vector<int> threads;
        threads.reserve(bag.size());
        for (std::size_t i = 0; i < bag.size(); ++i)
            threads.push_back(threadChoices[threadPick(rng)]);
        const auto expect = sim::reference::runCpuSeedLoop(
            ptrs, threads, sim.config());
        const auto got = sim.runShared(ptrs, threads);
        ASSERT_EQ(got.apps.size(), expect.size());
        Seconds makespan = 0.0;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got.apps[i].time, expect[i])
                << "iter " << iter << " app " << i;
            makespan = std::max(makespan, expect[i]);
        }
        EXPECT_EQ(got.makespan, makespan) << "iter " << iter;
    }
}

TEST(SimEngineGolden, TracingDoesNotChangeResults)
{
    std::mt19937 rng(0x5eed0003u);
    const gpusim::MpsSim sim;
    const auto bag = randomBag(rng, 3);
    const auto ptrs = pointers(bag);
    const auto quiet = sim.runShared(ptrs);

    obs::Tracer& tracer = obs::tracer();
    tracer.clear();
    tracer.setEnabled(true);
    const auto traced = sim.runShared(ptrs);
    const std::size_t events = tracer.size();
    tracer.setEnabled(false);
    tracer.clear();

    ASSERT_EQ(traced.apps.size(), quiet.apps.size());
    for (std::size_t i = 0; i < quiet.apps.size(); ++i)
        EXPECT_EQ(traced.apps[i].time, quiet.apps[i].time);
    EXPECT_EQ(traced.makespan, quiet.makespan);
    // Phase spans plus at least one repartition marker were recorded.
    EXPECT_GT(events, 0u);
}

// -------------------------------------------------------------------
// Metrics and the event limit.
// -------------------------------------------------------------------

TEST(SimEngineMetrics, CountersAdvancePerBag)
{
    std::mt19937 rng(0x5eed0004u);
    const auto bag = randomBag(rng, 2);
    const auto ptrs = pointers(bag);
    const std::size_t totalPhases =
        bag[0].size() + bag[1].size();

    auto& reg = obs::defaultRegistry();
    const auto bags0 = reg.counter("sim.bags").value();
    const auto events0 = reg.counter("sim.events").value();
    const auto reparts0 = reg.counter("sim.repartitions").value();
    const auto obs0 = reg.histogram("sim.bag_seconds").count();

    const gpusim::MpsSim sim;
    (void)sim.runShared(ptrs);

    EXPECT_EQ(reg.counter("sim.bags").value(), bags0 + 1);
    const auto events = reg.counter("sim.events").value() - events0;
    // Every event completes at least one phase, and the last client
    // standing needs one event per remaining phase.
    EXPECT_GE(events, std::max(bag[0].size(), bag[1].size()));
    EXPECT_LE(events, totalPhases);
    // The first event always establishes a partition; a 2-client bag
    // repartitions again when the first client finishes.
    EXPECT_GE(reg.counter("sim.repartitions").value() - reparts0, 2u);
    EXPECT_EQ(reg.histogram("sim.bag_seconds").count(), obs0 + 1);
}

TEST(SimEngineLimit, ExceedingEventLimitRaisesLocatedError)
{
    isa::WorkloadTrace alpha("ALPHA", 20);
    isa::WorkloadTrace beta("BETA", 20);
    std::mt19937 rng(0x5eed0005u);
    for (int i = 0; i < 6; ++i) {
        alpha.append(randomPhase(rng));
        beta.append(randomPhase(rng));
    }

    sim::setEventLimit(3);
    auto& reg = obs::defaultRegistry();
    const auto hits0 = reg.counter("sim.event_limit_hits").value();
    const gpusim::MpsSim gpu;
    try {
        (void)gpu.runShared({&alpha, &beta});
        FAIL() << "expected the event-limit error";
    } catch (const InputError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("event limit"), std::string::npos) << msg;
        EXPECT_NE(msg.find("ALPHA"), std::string::npos) << msg;
        EXPECT_NE(msg.find("BETA"), std::string::npos) << msg;
    }
    EXPECT_EQ(reg.counter("sim.event_limit_hits").value(), hits0 + 1);

    // The CPU engine shares the limit and the error path.
    const cpusim::MulticoreSim cpu;
    EXPECT_THROW((void)cpu.runShared({&alpha, &beta}, {4, 4}),
                 InputError);

    // 0 restores the default, and the same bag then completes.
    sim::setEventLimit(0);
    EXPECT_EQ(sim::eventLimit(), std::size_t{16} * 1024 * 1024);
    EXPECT_NO_THROW((void)gpu.runShared({&alpha, &beta}));
}

// -------------------------------------------------------------------
// The collector's batch simulation API.
// -------------------------------------------------------------------

std::vector<predictor::BagSpec>
batchSpecs()
{
    using vision::BenchmarkId;
    return {
        {{BenchmarkId::Fast, 20}, {BenchmarkId::Sift, 20}},
        {{BenchmarkId::Orb, 20}, {BenchmarkId::Fast, 20}},
        {{BenchmarkId::Fast, 40}, {BenchmarkId::Fast, 20}},
        // Duplicate (non-canonical order) of the first bag: the batch
        // must dedupe it, and the results must still line up.
        {{BenchmarkId::Sift, 20}, {BenchmarkId::Fast, 20}},
    };
}

void
expectPointsEqual(const predictor::DataPoint& x,
                  const predictor::DataPoint& y)
{
    EXPECT_EQ(x.spec, y.spec);
    EXPECT_EQ(x.fairness, y.fairness);
    EXPECT_EQ(x.cpuSharedMakespan, y.cpuSharedMakespan);
    EXPECT_EQ(x.gpuBagTime, y.gpuBagTime);
}

TEST(SimBatch, SimulateBagsMatchesSerialPath)
{
    const auto specs = batchSpecs();

    predictor::DataCollector serial;
    std::vector<predictor::DataPoint> want;
    for (const auto& spec : specs)
        want.push_back(serial.collect(spec));

    predictor::DataCollector batched;
    batched.simulateBags(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto point = batched.collect(specs[i]);
        expectPointsEqual(point, want[i]);
    }

    // measureFairnessBatch == measureFairness, in order.
    predictor::DataCollector fresh;
    const auto fair = fresh.measureFairnessBatch(specs);
    ASSERT_EQ(fair.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(fair[i], serial.measureFairness(specs[i]));
}

TEST(SimBatch, DeterministicAcrossPoolSizes)
{
    const auto specs = batchSpecs();

    parallel::setMaxThreads(1);
    predictor::DataCollector base;
    base.simulateBags(specs);
    std::vector<predictor::DataPoint> want;
    for (const auto& spec : specs)
        want.push_back(base.collect(spec));

    for (int threads : {2, 8}) {
        parallel::setMaxThreads(threads);
        predictor::DataCollector collector;
        collector.simulateBags(specs);
        for (std::size_t i = 0; i < specs.size(); ++i)
            expectPointsEqual(collector.collect(specs[i]), want[i]);
    }
    parallel::setMaxThreads(0);
}

}  // namespace
