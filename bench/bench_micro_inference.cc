/**
 * @file
 * The inference-engine microbench: single-sample latency and batch
 * throughput of tree/forest prediction on the fig4 campaign dataset,
 * seed-style per-row node walk vs. the compiled SoA engines. Every
 * number lands in the metrics sidecar (bench.inference.* gauges) so
 * the perf trajectory of the serving path is measured, not asserted.
 *
 * Flags:
 *   --iters=<n>     scale all repetition counts (default 2000; the
 *                   bench_smoke ctest entry passes a tiny value so the
 *                   whole path is compile- and run-checked in tier 1).
 *   --json-out=<f>  where to write the gauge snapshot (default
 *                   BENCH_inference.json; empty disables). This is the
 *                   tracked perf-trajectory artifact — the sidecar
 *                   <binary>.metrics.json still appears independently.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/parallel.h"
#include "common/parse.h"
#include "ml/compiled_tree.h"
#include "ml/random_forest.h"
#include "obs/audit.h"
#include "predictor/predictor.h"

using namespace mapp;

namespace {

/** Trees in the benchmark forest (the acceptance target's size). */
constexpr int kForestSize = 50;

/** Rows in the replicated "serving-scale" batch. */
constexpr std::size_t kServingRows = 8192;

/**
 * Time @p reps calls of @p body, splitting them into slices and
 * scaling the fastest slice to the full rep count. The minimum is the
 * standard noise-rejecting estimator on a shared machine: scheduler
 * preemption and frequency wobble only ever ADD time, so the fastest
 * slice is the closest observation of the true cost.
 */
double
secondsFor(const std::function<void()>& body, long reps)
{
    constexpr long kSlices = 15;
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

}  // namespace

int
main(int argc, char** argv)
{
    long iters = 2000;
    std::string jsonOut = "BENCH_inference.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json-out=", 0) == 0) {
            jsonOut = arg.substr(std::string("--json-out=").size());
        } else if (arg.rfind("--iters=", 0) == 0) {
            const auto v = parseBoundedInt(
                arg.substr(std::string("--iters=").size()), 1,
                1 << 24);
            if (!v) {
                std::fprintf(stderr, "error: bad --iters: %s\n",
                             v.error().message().c_str());
                return 1;
            }
            iters = v.value();
        } else {
            std::fprintf(stderr, "error: unknown flag '%s'\n",
                         arg.c_str());
            return 1;
        }
    }

    bench::printSystemHeader(
        "Inference microbench - node walk vs. compiled SoA engine");

    const auto& raw = bench::campaignDataset();
    const std::size_t nRows = raw.size();
    const std::size_t nFeatures = raw.numFeatures();

    ml::DecisionTreeRegressor tree;
    tree.fit(raw);
    const ml::CompiledTree compiledTree(tree);

    ml::RandomForestParams fp;
    fp.numTrees = kForestSize;
    ml::RandomForestRegressor forest(fp);
    forest.fit(raw);
    const ml::CompiledForest compiledForest(forest);

    // Flat row-major buffers: the campaign batch and a replicated
    // serving-scale batch (the campaign tiled to kServingRows rows).
    const auto flat = raw.toRowMajor();
    std::vector<double> servingFlat;
    servingFlat.reserve(kServingRows * nFeatures);
    while (servingFlat.size() < kServingRows * nFeatures) {
        const std::size_t want =
            kServingRows * nFeatures - servingFlat.size();
        servingFlat.insert(
            servingFlat.end(), flat.begin(),
            want >= flat.size() ? flat.end()
                                : flat.begin() + static_cast<long>(want));
    }

    // Correctness gate first: the compiled engines must agree with
    // the node-walk oracle on every campaign row before any timing
    // is worth reporting.
    {
        const auto treeOracle = tree.predict(raw);
        const auto forestOracle = forest.predict(raw);
        if (compiledTree.predict(raw) != treeOracle ||
            compiledForest.predict(raw) != forestOracle) {
            std::fprintf(stderr,
                         "FATAL: compiled predictions diverge from the "
                         "node-walk oracle\n");
            return 1;
        }
    }

    std::vector<double> out(nRows);
    std::vector<double> servingOut(kServingRows);
    const long singleReps = iters;
    const long batchReps = iters;
    const long servingReps = std::max(1L, iters / 16);

    // --- single-sample latency (one prediction per call) ---
    const double treeSingleRef = secondsFor(
        [&] {
            for (std::size_t i = 0; i < nRows; ++i)
                out[i] = tree.predict(raw.row(i));
        },
        singleReps);
    const double treeSingleCompiled = secondsFor(
        [&] {
            for (std::size_t i = 0; i < nRows; ++i)
                out[i] = compiledTree.predict(raw.row(i));
        },
        singleReps);
    const double forestSingleRef = secondsFor(
        [&] {
            for (std::size_t i = 0; i < nRows; ++i)
                out[i] = forest.predict(raw.row(i));
        },
        singleReps);
    const double forestSingleCompiled = secondsFor(
        [&] {
            for (std::size_t i = 0; i < nRows; ++i)
                out[i] = compiledForest.predict(raw.row(i));
        },
        singleReps);

    // --- batch throughput on the campaign dataset ---
    // The reference is the seed shape: every row re-walks the whole
    // ensemble through the pointer-heavy nodes.
    const double forestBatchRef = secondsFor(
        [&] {
            for (std::size_t i = 0; i < nRows; ++i)
                out[i] = forest.predict(raw.row(i));
        },
        batchReps);
    const double forestBatchCompiled = secondsFor(
        [&] { compiledForest.predictBatch(flat, nFeatures, out); },
        batchReps);
    const double treeBatchRef = secondsFor(
        [&] {
            for (std::size_t i = 0; i < nRows; ++i)
                out[i] = tree.predict(raw.row(i));
        },
        batchReps);
    const double treeBatchCompiled = secondsFor(
        [&] { compiledTree.predictBatch(flat, nFeatures, out); },
        batchReps);

    // --- serving-scale batch (campaign tiled to kServingRows) ---
    const double servingRef = secondsFor(
        [&] {
            for (std::size_t i = 0; i < kServingRows; ++i)
                servingOut[i] = forest.predict(std::span<const double>(
                    servingFlat.data() + i * nFeatures, nFeatures));
        },
        servingReps);
    const double servingCompiled = secondsFor(
        [&] {
            compiledForest.predictBatch(servingFlat, nFeatures,
                                        servingOut);
        },
        servingReps);

    const auto perPredNs = [](double seconds, long reps,
                              std::size_t rows) {
        return 1e9 * seconds /
               (static_cast<double>(reps) * static_cast<double>(rows));
    };
    struct Line
    {
        const char* name;
        double refNs;
        double engineNs;
        const char* gauge;
    };
    const Line lines[] = {
        {"tree single-sample", perPredNs(treeSingleRef, singleReps, nRows),
         perPredNs(treeSingleCompiled, singleReps, nRows),
         "tree.single"},
        {"forest(50) single-sample",
         perPredNs(forestSingleRef, singleReps, nRows),
         perPredNs(forestSingleCompiled, singleReps, nRows),
         "forest.single"},
        {"tree batch(91)", perPredNs(treeBatchRef, batchReps, nRows),
         perPredNs(treeBatchCompiled, batchReps, nRows), "tree.batch"},
        {"forest(50) batch(91)",
         perPredNs(forestBatchRef, batchReps, nRows),
         perPredNs(forestBatchCompiled, batchReps, nRows),
         "forest.batch"},
        {"forest(50) batch(8192)",
         perPredNs(servingRef, servingReps, kServingRows),
         perPredNs(servingCompiled, servingReps, kServingRows),
         "forest.serving"},
    };

    TextTable table("inference latency / throughput (" +
                    std::to_string(parallel::maxThreads()) +
                    " thread lanes)");
    table.setHeader({"path", "node walk ns/pred", "compiled ns/pred",
                     "speedup", "compiled preds/sec"});
    for (const auto& line : lines) {
        const double speedup =
            line.engineNs > 0.0 ? line.refNs / line.engineNs : 0.0;
        const double pps = 1e9 / line.engineNs;
        table.addRow({line.name, formatDouble(line.refNs, 1),
                      formatDouble(line.engineNs, 1),
                      formatDouble(speedup, 2) + "x",
                      formatDouble(pps, 0)});
        const std::string prefix =
            std::string("bench.inference.") + line.gauge;
        setGauge(prefix + ".ref_ns_per_pred", line.refNs);
        setGauge(prefix + ".compiled_ns_per_pred", line.engineNs);
        setGauge(prefix + ".speedup", speedup);
        setGauge(prefix + ".compiled_preds_per_sec", pps);
    }
    std::printf("%s\n", table.render().c_str());

    const double target = perPredNs(forestBatchRef, batchReps, nRows) /
                          perPredNs(forestBatchCompiled, batchReps,
                                    nRows);
    std::printf("forest(%d) campaign batch speedup: %.2fx "
                "(acceptance target: >= 5x)\n",
                kForestSize, target);

    // --- audit overhead: the full predictDataset serving path with
    // the provenance log off vs. on at 1% sampling (the production
    // configuration). The acceptance bar is <= 2% throughput loss.
    {
        predictor::MultiAppPredictor model;
        model.train(raw);
        // Serving-scale evaluation set: the campaign tiled to
        // kServingRows rows. A 91-row batch finishes in ~10us, far
        // too small to resolve a sub-percent overhead; at 8192 rows
        // per call the ring wraps and per-batch noise amortizes.
        ml::Dataset servingSet(raw.featureNames());
        for (std::size_t i = 0; i < kServingRows; ++i) {
            const auto row = raw.row(i % nRows);
            servingSet.addRow(
                std::vector<double>(row.begin(), row.end()),
                raw.targets()[i % nRows]);
        }
        std::vector<double> preds;
        obs::PredictionLog& log = obs::predictionLog();
        // Single lane + interleaved A/B slices: pool scheduling and
        // frequency drift each add noise an order of magnitude larger
        // than the effect under test. One lane removes the scheduler;
        // alternating off/on slices exposes both variants to the same
        // drift, and the per-variant minimum rejects what remains.
        const int lanes = parallel::maxThreads();
        parallel::setMaxThreads(1);
        log.clear();
        log.setSamplePeriod(100);
        const long auditSlices = std::max(4L, iters / 8);
        std::vector<double> offTimes;
        std::vector<double> deltas;
        const auto timeOne = [&] {
            const auto t0 = std::chrono::steady_clock::now();
            preds = model.predictDataset(servingSet);
            const auto t1 = std::chrono::steady_clock::now();
            return std::chrono::duration<double>(t1 - t0).count();
        };
        for (long s = 0; s < auditSlices; ++s) {
            log.setEnabled(false);
            const double off = timeOne();
            log.setEnabled(true);
            const double on = timeOne();
            offTimes.push_back(off);
            // Adjacent off/on pair: both see the same drift, so their
            // difference isolates the audit cost; the median over
            // pairs rejects slices a neighbor perturbed.
            deltas.push_back(on - off);
        }
        log.setEnabled(false);
        log.setSamplePeriod(1);
        log.clear();
        parallel::setMaxThreads(lanes);
        std::sort(offTimes.begin(), offTimes.end());
        std::sort(deltas.begin(), deltas.end());
        const double offBest = offTimes.front();
        const double deltaMedian = deltas[deltas.size() / 2];
        const double offNs = perPredNs(offBest, 1, kServingRows);
        const double onNs =
            perPredNs(offBest + deltaMedian, 1, kServingRows);
        const double overheadPct =
            offNs > 0.0 ? (onNs - offNs) / offNs * 100.0 : 0.0;
        setGauge("bench.audit.off_ns_per_pred", offNs);
        setGauge("bench.audit.on_ns_per_pred", onNs);
        setGauge("bench.audit.overhead", overheadPct);
        std::printf("audit overhead (1%% sampling): %.1f -> %.1f "
                    "ns/pred, %+.2f%%\n",
                    offNs, onNs, overheadPct);
    }

    if (!jsonOut.empty()) {
        if (!obs::defaultRegistry().writeJson(jsonOut))
            std::fprintf(stderr, "warning: could not write %s\n",
                         jsonOut.c_str());
    }
    return 0;
}
