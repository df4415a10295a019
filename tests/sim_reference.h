/**
 * @file
 * Literal transcriptions of the original (pre-engine) simulator event
 * loops, kept as the bit-identity oracle for the shared co-run engine.
 *
 * runCorun() in corun_engine.h must produce bit-identical completion
 * times to these loops — same event ordering, same floating-point
 * sequence. The golden fuzz suite (tests/test_sim_engine.cc) compares
 * the two on randomized bags with EXPECT_EQ on raw doubles, and
 * bench_micro_sim uses these loops as the in-process "before" baseline
 * so the reported speedup is measured under one machine state.
 *
 * Do not optimize or "clean up" these functions: every allocation and
 * every expression is the seed implementation verbatim (minus tracing
 * and metrics, which do not feed back into the simulated times).
 *
 * A test oracle, not library code: only tests and benches that already
 * link both simulator libraries include this file.
 */

#ifndef MAPP_TESTS_SIM_REFERENCE_H
#define MAPP_TESTS_SIM_REFERENCE_H

#include <algorithm>
#include <limits>
#include <vector>

#include "common/sharing.h"
#include "common/types.h"
#include "cpusim/core_model.h"
#include "cpusim/cpu_config.h"
#include "cpusim/memory_model.h"
#include "gpusim/gpu_config.h"
#include "gpusim/sm_model.h"
#include "isa/trace.h"

namespace mapp::sim::reference {

/** The seed gpusim event loop; returns per-client completion times. */
inline std::vector<Seconds>
runGpuSeedLoop(const std::vector<const isa::WorkloadTrace*>& traces,
               const gpusim::GpuConfig& config,
               const gpusim::L2ModelParams& l2_params = {})
{
    struct ClientState
    {
        const isa::WorkloadTrace* trace = nullptr;
        std::size_t phase = 0;
        double phaseFraction = 0.0;
        Seconds finishTime = -1.0;

        bool done() const { return phase >= trace->phases().size(); }
        const isa::KernelPhase& currentPhase() const
        {
            return trace->phases()[phase];
        }
    };

    std::vector<ClientState> clients(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i)
        clients[i].trace = traces[i];

    Seconds clock = 0.0;

    while (true) {
        std::vector<std::size_t> active;
        for (std::size_t i = 0; i < clients.size(); ++i)
            if (!clients[i].done())
                active.push_back(i);
        if (active.empty())
            break;

        const auto n = static_cast<int>(active.size());

        const int smsEach = std::max(config.numSms / n, 1);
        const Bytes l2Each = config.l2Size / static_cast<Bytes>(n);
        const double peakBw =
            config.memBandwidth *
            std::max(1.0 - config.dramInterferenceLoss *
                               static_cast<double>(n - 1),
                     0.3);

        std::vector<gpusim::GpuAllocation> allocs(active.size());
        std::vector<double> demands(active.size());
        for (std::size_t k = 0; k < active.size(); ++k) {
            auto& a = allocs[k];
            a.sms = smsEach;
            a.l2Share = l2Each;
            a.residentApps = n;
            demands[k] = gpusim::gpuPhaseBandwidthDemand(
                clients[active[k]].currentPhase(), a, config, l2_params);
        }
        const auto granted = maxMinShare(demands, peakBw);
        double totalDemand = 0.0;
        for (double d : demands)
            totalDemand += d;
        const double queue =
            queueingDelayFactor(std::min(totalDemand / peakBw, 1.0));

        std::vector<Seconds> remaining(active.size());
        std::vector<Seconds> durations(active.size());
        Seconds dt = std::numeric_limits<Seconds>::infinity();
        for (std::size_t k = 0; k < active.size(); ++k) {
            allocs[k].bandwidthShare = std::max(granted[k], 1.0);
            allocs[k].memQueueFactor = queue;
            const gpusim::GpuPhaseTiming t = gpusim::timeGpuPhase(
                clients[active[k]].currentPhase(), allocs[k], config,
                l2_params);
            durations[k] = std::max(t.time, 1e-15);
            remaining[k] =
                durations[k] * (1.0 - clients[active[k]].phaseFraction);
            dt = std::min(dt, remaining[k]);
        }

        clock += dt;
        for (std::size_t k = 0; k < active.size(); ++k) {
            ClientState& client = clients[active[k]];
            if (remaining[k] - dt <= durations[k] * 1e-12) {
                client.phase += 1;
                client.phaseFraction = 0.0;
                if (client.done())
                    client.finishTime = clock;
            } else {
                client.phaseFraction += dt / durations[k];
            }
        }
    }

    std::vector<Seconds> finish(clients.size());
    for (std::size_t i = 0; i < clients.size(); ++i)
        finish[i] = clients[i].finishTime;
    return finish;
}

/** The seed cpusim event loop; returns per-app completion times. */
inline std::vector<Seconds>
runCpuSeedLoop(const std::vector<const isa::WorkloadTrace*>& traces,
               const std::vector<int>& threads,
               const cpusim::CpuConfig& config,
               const cpusim::CacheModelParams& cache_params = {})
{
    struct AppState
    {
        const isa::WorkloadTrace* trace = nullptr;
        int threads = 1;
        std::size_t phase = 0;
        double phaseFraction = 0.0;
        Seconds finishTime = -1.0;

        bool done() const { return phase >= trace->phases().size(); }
        const isa::KernelPhase& currentPhase() const
        {
            return trace->phases()[phase];
        }
    };

    std::vector<AppState> apps(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        apps[i].trace = traces[i];
        apps[i].threads = std::max(threads[i], 1);
    }

    Seconds clock = 0.0;

    while (true) {
        std::vector<std::size_t> active;
        for (std::size_t i = 0; i < apps.size(); ++i)
            if (!apps[i].done())
                active.push_back(i);
        if (active.empty())
            break;

        const auto n = static_cast<int>(active.size());
        const int coresEach = std::max(config.logicalCores() / n, 1);
        const Bytes llcEach = config.llcSize / static_cast<Bytes>(n);

        std::vector<cpusim::CpuAllocation> allocs(active.size());
        std::vector<BytesPerSecond> demands(active.size());
        for (std::size_t k = 0; k < active.size(); ++k) {
            auto& a = allocs[k];
            a.threads = apps[active[k]].threads;
            a.logicalCores = coresEach;
            a.llcShare = llcEach;
            demands[k] = cpusim::phaseBandwidthDemand(
                apps[active[k]].currentPhase(), a, config, cache_params);
        }
        const auto granted =
            cpusim::shareBandwidth(demands, config.memBandwidth);
        double totalDemand = 0.0;
        for (double d : demands)
            totalDemand += d;
        const double utilization =
            std::min(totalDemand / config.memBandwidth, 1.0);
        const double queue = cpusim::queueingFactor(utilization);

        std::vector<Seconds> remaining(active.size());
        std::vector<Seconds> durations(active.size());
        Seconds dt = std::numeric_limits<Seconds>::infinity();
        for (std::size_t k = 0; k < active.size(); ++k) {
            allocs[k].bandwidthShare = std::max(granted[k], 1.0);
            allocs[k].memQueueFactor = queue;
            const cpusim::PhaseTiming t = cpusim::timePhase(
                apps[active[k]].currentPhase(), allocs[k], config,
                cache_params);
            durations[k] = std::max(t.time, 1e-15);
            remaining[k] =
                durations[k] * (1.0 - apps[active[k]].phaseFraction);
            dt = std::min(dt, remaining[k]);
        }

        clock += dt;
        for (std::size_t k = 0; k < active.size(); ++k) {
            AppState& app = apps[active[k]];
            if (remaining[k] - dt <= durations[k] * 1e-12) {
                app.phase += 1;
                app.phaseFraction = 0.0;
                if (app.done())
                    app.finishTime = clock;
            } else {
                app.phaseFraction += dt / durations[k];
            }
        }
    }

    std::vector<Seconds> finish(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i)
        finish[i] = apps[i].finishTime;
    return finish;
}

}  // namespace mapp::sim::reference

#endif  // MAPP_TESTS_SIM_REFERENCE_H
