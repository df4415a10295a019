/**
 * @file
 * The inference microbench: single-sample latency and batch(91)
 * throughput of the tree walk on the fig4 campaign dataset, plus the
 * provenance-audit overhead of the predictDataset path. Every number
 * lands in the metrics sidecar (bench.inference.* and bench.audit.*
 * gauges) so the cost of the serving path is measured, not asserted.
 *
 * Flags:
 *   --iters=<n>     scale all repetition counts (default 2000; the
 *                   bench_smoke ctest entry passes a tiny value so the
 *                   whole path is compile- and run-checked in tier 1).
 *   --json-out=<f>  also write the gauge snapshot to <f> (default: no
 *                   file, so a run never overwrites the tracked
 *                   BENCH_inference.json). The sidecar
 *                   <binary>.metrics.json still appears independently.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/parse.h"
#include "obs/audit.h"
#include "predictor/predictor.h"

using namespace mapp;

namespace {

/** Rows in the replicated evaluation set of the audit section. */
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
    std::string jsonOut;
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

    bench::printSystemHeader("Inference microbench - the tree walk");

    const auto& raw = bench::campaignDataset();
    const std::size_t nRows = raw.size();
    const std::size_t nFeatures = raw.numFeatures();

    ml::DecisionTreeRegressor tree;
    tree.fit(raw);
    const auto flat = raw.toRowMajor();
    std::vector<double> out(nRows);

    // --- single-sample latency (one predict() per row) and batch
    // throughput (one predictBatch() over the campaign rows) ---
    const double single = secondsFor(
        [&] {
            for (std::size_t i = 0; i < nRows; ++i)
                out[i] = tree.predict(raw.row(i));
        },
        iters);
    const double batch = secondsFor(
        [&] { tree.predictBatch(flat, nFeatures, out); }, iters);

    const auto perPredNs = [](double seconds, long reps,
                              std::size_t rows) {
        return 1e9 * seconds /
               (static_cast<double>(reps) * static_cast<double>(rows));
    };
    struct Line
    {
        const char* name;
        double ns;
        const char* gauge;
    };
    const Line lines[] = {
        {"tree single-sample", perPredNs(single, iters, nRows),
         "tree.single"},
        {"tree batch(91)", perPredNs(batch, iters, nRows), "tree.batch"},
    };

    TextTable table("inference latency / throughput");
    table.setHeader({"path", "ns/pred", "preds/sec"});
    for (const auto& line : lines) {
        const double pps = 1e9 / line.ns;
        table.addRow({line.name, formatDouble(line.ns, 1),
                      formatDouble(pps, 0)});
        const std::string prefix =
            std::string("bench.inference.") + line.gauge;
        setGauge(prefix + ".ns_per_pred", line.ns);
        setGauge(prefix + ".preds_per_sec", pps);
    }
    std::printf("%s\n", table.render().c_str());

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
        // Interleaved A/B slices: frequency drift adds noise an order
        // of magnitude larger than the effect under test. Alternating
        // off/on slices exposes both variants to the same drift, and
        // the per-variant minimum rejects what remains.
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
