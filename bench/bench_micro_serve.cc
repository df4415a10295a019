/**
 * @file
 * The prediction-service microbench: closed-loop clients against an
 * in-process PredictionService, sweeping the number of concurrent
 * clients. Reports sustained rows/sec, mean end-to-end latency and the
 * realized batch size per client count, next to the raw single-thread
 * predict() floor. Every number lands in the metrics sidecar
 * (bench.serve.* gauges) so the serving path's perf trajectory is
 * measured, not asserted.
 *
 * The wire path is timed too: serve::parseRequest on a raw predict, a
 * 16-query predict_batch and a member-form predict (next to the DOM
 * walk it replaced, tests/serve_reference.h, in the same process),
 * predictResponse, and submit-to-callback on an idle service
 * (bench.serve.parse_ns_*, format_ns, idle_latency_us).
 *
 * Flags:
 *   --iters=<n>  per-configuration row budget (default 400; the
 *                bench_smoke ctest entry passes a tiny value so the
 *                whole path is compile- and run-checked in tier 1).
 *                The direct floor always times at least kFloorCalls
 *                calls, so it is never noise; each wire-path case
 *                runs for at least kWireSeconds.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/table.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "predictor/predictor.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "tests/serve_reference.h"

using namespace mapp;

namespace {

/** Synthetic app with a normalized instruction mix. */
predictor::AppFeatures
syntheticApp(Rng& rng, int index)
{
    predictor::AppFeatures app;
    app.app = "app" + std::to_string(index % 7);
    app.batchSize = static_cast<int>(rng.uniformInt(1, 100));
    app.cpuTime = rng.uniform(0.01, 2.0);
    app.gpuTime = rng.uniform(0.01, 1.0);
    double total = 0.0;
    for (auto& m : app.mixPercent) {
        m = rng.uniform(0.0, 1.0);
        total += m;
    }
    for (auto& m : app.mixPercent)
        m = 100.0 * m / total;
    return app;
}

/**
 * A small synthetic campaign and model: the bench measures the service
 * machinery (queue, wakeups, batching, callbacks), not simulator or
 * training cost, so a fast deterministic model keeps every run cheap
 * and the per-prediction compute realistic (a trained tree walk).
 */
std::shared_ptr<const predictor::MultiAppPredictor>
syntheticModel()
{
    Rng rng(41);
    std::vector<predictor::DataPoint> points;
    points.reserve(64);
    for (int i = 0; i < 64; ++i) {
        predictor::DataPoint p;
        p.a = syntheticApp(rng, i);
        p.b = syntheticApp(rng, i + 3);
        p.fairness = rng.uniform(0.2, 1.0);
        p.gpuBagTime = p.a.gpuTime + p.b.gpuTime +
                       0.25 * p.fairness * p.a.gpuTime;
        points.push_back(std::move(p));
    }
    auto model = std::make_shared<predictor::MultiAppPredictor>();
    model->train(points);
    return model;
}

std::vector<predictor::BagQuery>
syntheticQueries(int n)
{
    Rng rng(42);
    std::vector<predictor::BagQuery> queries;
    queries.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        predictor::BagQuery q;
        q.a = syntheticApp(rng, i);
        q.b = syntheticApp(rng, i + 5);
        q.fairness = rng.uniform(0.2, 1.0);
        queries.push_back(std::move(q));
    }
    return queries;
}

struct ConfigResult
{
    double rowsPerSec = 0.0;
    double meanLatencyUs = 0.0;
    double meanBatchRows = 0.0;
};

/** Fewest predict() calls the direct floor times. */
constexpr long kFloorCalls = 100000;

/**
 * Closed-loop load: @p clients threads each submit one single-row job
 * at a time and wait for its answer before the next — the shape a
 * resident service actually sees. Batches form only from jobs that
 * arrive while a batch is in flight, so the mean batch size shows how
 * much the clients overlap.
 */
ConfigResult
runConfig(const std::shared_ptr<const predictor::MultiAppPredictor>&
              model,
          const std::vector<predictor::BagQuery>& queries, int clients,
          long rowBudget)
{
    serve::ServiceOptions options;
    options.batchRows = 32;
    options.queueCapacityRows = 4096;
    serve::PredictionService service(model, nullptr, options);

    const double batchesBefore =
        obs::defaultRegistry().counter("serve.batches").value();
    const long perClient =
        std::max(1L, rowBudget / std::max(clients, 1));
    const long totalRows = perClient * clients;

    std::mutex latencyMutex;
    double latencySum = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            double mySum = 0.0;
            for (long j = 0; j < perClient; ++j) {
                const auto& query = queries[static_cast<std::size_t>(
                    (c * perClient + j) % static_cast<long>(
                                               queries.size()))];
                std::mutex m;
                std::condition_variable cv;
                bool answered = false;
                const auto sent = std::chrono::steady_clock::now();
                service.submit(
                    {query}, 0.0, [&](serve::JobResult result) {
                        if (!result.ok)
                            std::fprintf(stderr,
                                         "FATAL: serve bench job "
                                         "failed: %s\n",
                                         result.error.c_str());
                        std::lock_guard<std::mutex> lock(m);
                        answered = true;
                        cv.notify_one();
                    });
                {
                    std::unique_lock<std::mutex> lock(m);
                    cv.wait(lock, [&] { return answered; });
                }
                mySum += std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - sent)
                             .count();
            }
            std::lock_guard<std::mutex> lock(latencyMutex);
            latencySum += mySum;
        });
    for (auto& t : threads)
        t.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    service.drain();
    const double batches =
        obs::defaultRegistry().counter("serve.batches").value() -
        batchesBefore;

    ConfigResult result;
    result.rowsPerSec =
        elapsed > 0.0 ? static_cast<double>(totalRows) / elapsed : 0.0;
    result.meanLatencyUs = latencySum / static_cast<double>(totalRows);
    result.meanBatchRows =
        batches > 0.0 ? static_cast<double>(totalRows) / batches : 0.0;
    return result;
}

void
setGauge(const std::string& key, double value)
{
    obs::defaultRegistry().gauge(key).set(value);
}

/** Shortest time each wire-path case runs. */
constexpr double kWireSeconds = 0.05;

/** Mean ns per @p call over at least kWireSeconds and @p minCalls. */
template <typename Call>
double
nsPerCall(long minCalls, const Call& call)
{
    long calls = 0;
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    while (calls < minCalls || elapsed < kWireSeconds) {
        for (int i = 0; i < 16; ++i)
            call();
        calls += 16;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    }
    return 1e9 * elapsed / static_cast<double>(calls);
}

/** A raw feature object as a client would send it. */
std::string
rawAppJson(const predictor::AppFeatures& app)
{
    std::string out = "{\"cpu_time\":";
    obs::appendJsonNumber(out, app.cpuTime);
    out += ",\"gpu_time\":";
    obs::appendJsonNumber(out, app.gpuTime);
    out += ",\"mix\":[";
    for (std::size_t i = 0; i < app.mixPercent.size(); ++i) {
        if (i > 0)
            out += ',';
        obs::appendJsonNumber(out, app.mixPercent[i]);
    }
    return out + "]}";
}

std::string
rawQueryJson(const predictor::BagQuery& query)
{
    std::string out = "\"a\":" + rawAppJson(query.a) +
                      ",\"b\":" + rawAppJson(query.b) + ",\"fairness\":";
    obs::appendJsonNumber(out, query.fairness);
    return out;
}

/**
 * The wire path around the model: request parsing (new reader and the
 * DOM walk it replaced), response formatting and an idle service's
 * submit-to-callback latency.
 */
void
runWirePath(const std::shared_ptr<const predictor::MultiAppPredictor>&
                model,
            const std::vector<predictor::BagQuery>& queries, long iters)
{
    const std::string raw = R"({"op":"predict","id":"r1",)" +
                            rawQueryJson(queries[0]) + "}";
    std::string batch16 = R"({"op":"predict_batch","id":"b1","queries":[)";
    for (std::size_t i = 0; i < 16; ++i)
        batch16 += (i > 0 ? ",{" : "{") + rawQueryJson(queries[i]) + "}";
    batch16 += "]}";
    const std::string member =
        R"({"op":"predict","id":"m1","a":"SIFT@40","b":"FAST@20"})";

    TextTable table("serve wire path (ns per call)");
    table.setHeader({"case", "bytes", "reader ns", "DOM walk ns"});
    const std::pair<const char*, const std::string*> cases[] = {
        {"raw", &raw}, {"batch16", &batch16}, {"member", &member}};
    for (const auto& [name, line] : cases) {
        if (const auto r = serve::parseRequest(*line); !r) {
            std::fprintf(stderr, "FATAL: bench line rejected: %s\n",
                         r.error().toString().c_str());
            std::abort();
        }
        const double readerNs = nsPerCall(iters, [&] {
            const auto r = serve::parseRequest(*line);
            if (!r)
                std::abort();
        });
        const double domNs = nsPerCall(iters, [&] {
            const auto r = serve::reference::parseRequest(*line);
            if (!r)
                std::abort();
        });
        setGauge(std::string("bench.serve.parse_ns_") + name, readerNs);
        setGauge(std::string("bench.serve.parse_ns_") + name +
                     "_reference",
                 domNs);
        table.addRow({name, std::to_string(line->size()),
                      formatDouble(readerNs, 0), formatDouble(domNs, 0)});
    }

    const std::vector<double> one = {0.054494465457786863};
    const auto format = [&one] {
        return serve::predictResponse("r1", serve::RequestOp::Predict, one,
                                      1, 103.05);
    };
    const double formatNs = nsPerCall(iters, [&] {
        if (format().empty())
            std::abort();
    });
    setGauge("bench.serve.format_ns", formatNs);
    table.addRow({"format", std::to_string(format().size()),
                  formatDouble(formatNs, 0), "-"});
    std::printf("%s\n", table.render().c_str());

    // Submit to callback on an idle service, one job at a time: the
    // answer runs on this thread, so nothing else is timed.
    serve::PredictionService service(model);
    const long calls = std::max(iters, 2000L);
    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(calls));
    for (long i = 0; i < calls; ++i) {
        const auto& query =
            queries[static_cast<std::size_t>(i) % queries.size()];
        std::chrono::steady_clock::time_point answered;
        const auto sent = std::chrono::steady_clock::now();
        service.submit({query}, 0.0, [&](serve::JobResult result) {
            if (!result.ok)
                std::fprintf(stderr, "FATAL: idle job failed: %s\n",
                             result.error.c_str());
            answered = std::chrono::steady_clock::now();
        });
        latencies.push_back(
            std::chrono::duration<double, std::micro>(answered - sent)
                .count());
    }
    std::nth_element(latencies.begin(),
                     latencies.begin() +
                         static_cast<std::ptrdiff_t>(latencies.size() / 2),
                     latencies.end());
    const double idleUs = latencies[latencies.size() / 2];
    setGauge("bench.serve.idle_latency_us", idleUs);
    std::printf("idle service, submit to callback: %.2f us median over "
                "%ld jobs\n\n",
                idleUs, calls);
}

}  // namespace

int
main(int argc, char** argv)
{
    long iters = 400;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--iters=", 0) == 0) {
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

    std::printf("== Prediction-service microbench - closed-loop "
                "clients ==\n\n");

    const auto model = syntheticModel();
    const auto queries = syntheticQueries(256);

    // The floor every configuration is measured against: one thread
    // calling the model directly, no queue, no batching, no wakeups.
    double directNs = 0.0;
    {
        const long reps = std::max(kFloorCalls, iters);
        double sink = 0.0;
        const auto t0 = std::chrono::steady_clock::now();
        for (long r = 0; r < reps; ++r) {
            const auto& q =
                queries[static_cast<std::size_t>(r) % queries.size()];
            sink += model->predict(q.a, q.b, q.fairness);
        }
        const auto t1 = std::chrono::steady_clock::now();
        directNs = 1e9 *
                   std::chrono::duration<double>(t1 - t0).count() /
                   static_cast<double>(reps);
        if (sink == -1.0)  // keep the loop observable
            std::printf("%f\n", sink);
    }
    setGauge("bench.serve.direct_ns_per_pred", directNs);
    std::printf("direct predict() floor: %.0f ns/pred "
                "(single thread, no service)\n\n",
                directNs);

    runWirePath(model, queries, iters);

    const int clientCounts[] = {1, 4, 8, 16};

    TextTable table("closed-loop service throughput / latency "
                    "(batch cap 32 rows)");
    table.setHeader({"clients", "rows/sec", "mean latency us",
                     "mean batch rows"});
    for (const int clients : clientCounts) {
        const auto r = runConfig(model, queries, clients, iters);
        table.addRow({std::to_string(clients),
                      formatDouble(r.rowsPerSec, 0),
                      formatDouble(r.meanLatencyUs, 1),
                      formatDouble(r.meanBatchRows, 2)});
        const std::string prefix =
            "bench.serve.clients" + std::to_string(clients);
        setGauge(prefix + ".rows_per_sec", r.rowsPerSec);
        setGauge(prefix + ".mean_latency_us", r.meanLatencyUs);
        setGauge(prefix + ".mean_batch_rows", r.meanBatchRows);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "an idle service answers a lone request on the client's own "
        "thread; jobs that arrive while a batch is in flight queue and "
        "share the worker's next predictBatch call, so batches grow "
        "with the number of clients that overlap.\n");
    return 0;
}
