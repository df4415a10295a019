/**
 * @file
 * mapp_cli — command-line front end to the whole pipeline.
 *
 *   mapp_cli collect <out.csv>        measure the 91-run campaign and
 *                                     write it as a dataset CSV
 *   mapp_cli loocv [insmix|full]      run the paper's LOOCV and print
 *                                     the per-benchmark fold errors
 *   mapp_cli predict A@20 B@80        train on the campaign, predict
 *                                     the bag's GPU time and explain it
 *   mapp_cli trace SIFT 40 <out.csv>  profile one workload and dump its
 *                                     phase trace
 *   mapp_cli tree                     print the trained decision tree
 *   mapp_cli report <metrics.json> [predictions.jsonl|-] [trace.json|-]
 *                                     render a markdown run report
 *                                     from a previous run's sidecars
 *   mapp_cli cache stats|clear|warm   inspect, empty, or pre-populate
 *                                     the persistent artifact cache
 *   mapp_cli serve [--socket=PATH]    resident prediction service:
 *                                     JSONL requests over a Unix socket
 *                                     (or stdin/stdout), micro-batched
 *                                     through the tree walk
 *
 * Serve flags (serve only):
 *   --socket=<path>           listen on a Unix-domain socket; without
 *                             it the service speaks stdin/stdout
 *   --stdin                   explicit stdin/stdout transport
 *   --queue-rows=<n>          admission bound in queued rows (1024)
 *   --batch-rows=<n>          rows at which a batch stops growing (32)
 *   --default-deadline-ms=<ms> deadline for requests without one (off)
 *
 * Cache flags (valid before or after the command):
 *   --cache-dir=<dir>         artifact cache root (default
 *                             $MAPP_CACHE_DIR, else ~/.cache/mapp)
 *   --no-cache                disable the persistent artifact cache
 *                             for this run
 *
 * Observability flags (valid before or after the command):
 *   --trace-out=<file>        record a Chrome-trace JSON of the run
 *                             (open in chrome://tracing or Perfetto)
 *   --timeline-out=<file>     plain-text timeline dump of the events
 *   --metrics-out=<file>      write the metrics registry JSON at exit
 *   --metrics-prom-out=<file> same registry, Prometheus text format
 *   --predictions-out=<file>  per-prediction provenance JSONL (enables
 *                             the prediction audit log)
 *   --audit-sample=<n>        record every n-th prediction (default 1)
 *   --log-level=<level>       quiet | normal | verbose | debug
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/artifact_cache.h"
#include "common/error.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/parse.h"
#include "common/shutdown.h"
#include "isa/trace_io.h"
#include "ml/dataset_io.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/report.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"
#include "predictor/schemes.h"
#include "serve/server.h"
#include "serve/service.h"

using namespace mapp;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  mapp_cli collect <out.csv>\n"
                 "  mapp_cli loocv [insmix|full]\n"
                 "  mapp_cli predict <BENCH@BATCH> <BENCH@BATCH>\n"
                 "  mapp_cli trace <BENCH> <BATCH> <out.csv>\n"
                 "  mapp_cli tree\n"
                 "  mapp_cli report <metrics.json> "
                 "[predictions.jsonl|-] [trace.json|-]\n"
                 "  mapp_cli cache stats|clear|warm\n"
                 "  mapp_cli serve [--socket=<path> | --stdin] "
                 "[--queue-rows=<n>] [--batch-rows=<n>] "
                 "[--default-deadline-ms=<ms>]\n"
                 "flags:\n"
                 "  --cache-dir=<dir>      artifact cache root "
                 "(default $MAPP_CACHE_DIR, else ~/.cache/mapp)\n"
                 "  --no-cache             disable the persistent "
                 "artifact cache for this run\n"
                 "  --trace-out=<file>     Chrome-trace JSON "
                 "(chrome://tracing, Perfetto)\n"
                 "  --timeline-out=<file>  plain-text event timeline\n"
                 "  --metrics-out=<file>   metrics registry JSON\n"
                 "  --metrics-prom-out=<file>  Prometheus text "
                 "exposition of the registry\n"
                 "  --predictions-out=<file>   prediction provenance "
                 "JSONL (enables the audit log)\n"
                 "  --audit-sample=<n>     record every n-th "
                 "prediction (default 1)\n"
                 "  --log-level=<level>    quiet|normal|verbose|debug\n"
                 "  --threads=<n>          parallel lanes (default: "
                 "MAPP_THREADS env, else all cores)\n");
    return 2;
}

/** Flags of the serve subcommand (rejected for every other command). */
struct ServeFlags
{
    bool any = false;  ///< a serve flag appeared on the command line
    bool stdinMode = false;
    std::string socketPath;
    serve::ServiceOptions service;
};

/** Observability flags shared by every subcommand. */
struct ObsOptions
{
    std::string traceOut;
    std::string timelineOut;
    std::string metricsOut;
    std::string metricsPromOut;
    std::string predictionsOut;
    int auditSample = 1;
    ServeFlags serve;
};

/**
 * Strip --trace-out/--timeline-out/--metrics-out/--log-level from the
 * argument list and apply them. @return std::nullopt on a bad flag.
 */
std::optional<ObsOptions>
extractObsOptions(std::vector<std::string>& args)
{
    ObsOptions opts;
    std::vector<std::string> rest;
    for (const auto& arg : args) {
        const auto flagValue =
            [&](const char* prefix) -> std::optional<std::string> {
            const std::size_t n = std::strlen(prefix);
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(n);
            return std::nullopt;
        };
        if (auto v = flagValue("--trace-out=")) {
            opts.traceOut = *v;
        } else if (auto v = flagValue("--timeline-out=")) {
            opts.timelineOut = *v;
        } else if (auto v = flagValue("--metrics-out=")) {
            opts.metricsOut = *v;
        } else if (auto v = flagValue("--metrics-prom-out=")) {
            opts.metricsPromOut = *v;
        } else if (auto v = flagValue("--predictions-out=")) {
            opts.predictionsOut = *v;
        } else if (auto v = flagValue("--audit-sample=")) {
            const auto period = parseBoundedInt(*v, 1, 1'000'000'000);
            if (!period) {
                std::fprintf(stderr,
                             "error: bad audit sample period: %s\n",
                             period.error().message().c_str());
                return std::nullopt;
            }
            opts.auditSample = period.value();
        } else if (auto v = flagValue("--log-level=")) {
            const auto level = parseLogLevel(*v);
            if (!level) {
                std::fprintf(stderr, "error: unknown log level '%s'\n",
                             v->c_str());
                return std::nullopt;
            }
            setLogLevel(*level);
        } else if (auto v = flagValue("--threads=")) {
            const auto threads = parseBoundedInt(*v, 1, 1 << 20);
            if (!threads) {
                std::fprintf(stderr, "error: bad thread count: %s\n",
                             threads.error().message().c_str());
                return std::nullopt;
            }
            parallel::setMaxThreads(threads.value());
        } else if (auto v = flagValue("--cache-dir=")) {
            cache::defaultArtifactCache().setDirectory(*v);
        } else if (arg == "--no-cache") {
            cache::defaultArtifactCache().setEnabled(false);
        } else if (auto v = flagValue("--socket=")) {
            if (v->empty()) {
                std::fprintf(stderr,
                             "error: --socket needs a path\n");
                return std::nullopt;
            }
            opts.serve.socketPath = *v;
            opts.serve.any = true;
        } else if (arg == "--stdin") {
            opts.serve.stdinMode = true;
            opts.serve.any = true;
        } else if (auto v = flagValue("--queue-rows=")) {
            const auto rows = parseBoundedInt(*v, 1, 1 << 24);
            if (!rows) {
                std::fprintf(stderr, "error: bad queue bound: %s\n",
                             rows.error().message().c_str());
                return std::nullopt;
            }
            opts.serve.service.queueCapacityRows =
                static_cast<std::size_t>(rows.value());
            opts.serve.any = true;
        } else if (auto v = flagValue("--batch-rows=")) {
            const auto rows = parseBoundedInt(*v, 1, 1 << 20);
            if (!rows) {
                std::fprintf(stderr, "error: bad batch size: %s\n",
                             rows.error().message().c_str());
                return std::nullopt;
            }
            opts.serve.service.batchRows =
                static_cast<std::size_t>(rows.value());
            opts.serve.any = true;
        } else if (auto v = flagValue("--default-deadline-ms=")) {
            const auto ms = parseDouble(*v);
            if (!ms || ms.value() < 0.0) {
                std::fprintf(stderr,
                             "error: --default-deadline-ms needs a "
                             "non-negative number\n");
                return std::nullopt;
            }
            opts.serve.service.defaultDeadlineMs = ms.value();
            opts.serve.any = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "error: unknown flag '%s'\n",
                         arg.c_str());
            return std::nullopt;
        } else {
            rest.push_back(arg);
        }
    }
    args = std::move(rest);
    if (!opts.traceOut.empty() || !opts.timelineOut.empty())
        obs::tracer().setEnabled(true);
    if (!opts.predictionsOut.empty()) {
        obs::predictionLog().setSamplePeriod(
            static_cast<std::uint64_t>(opts.auditSample));
        obs::predictionLog().setEnabled(true);
    }
    return opts;
}

/** Write the requested trace/metrics artifacts after the command. */
void
writeObsOutputs(const ObsOptions& opts)
{
    if (!opts.traceOut.empty()) {
        if (obs::tracer().writeChromeTrace(opts.traceOut))
            inform("wrote trace to " + opts.traceOut);
        else
            warn("failed to write trace to " + opts.traceOut);
    }
    if (!opts.timelineOut.empty()) {
        if (obs::tracer().writeTextTimeline(opts.timelineOut))
            inform("wrote timeline to " + opts.timelineOut);
        else
            warn("failed to write timeline to " + opts.timelineOut);
    }
    if (!opts.metricsOut.empty() || !opts.metricsPromOut.empty())
        obs::recordPeakRss(obs::defaultRegistry());
    if (!opts.metricsOut.empty()) {
        if (obs::defaultRegistry().writeJson(opts.metricsOut))
            inform("wrote metrics to " + opts.metricsOut);
        else
            warn("failed to write metrics to " + opts.metricsOut);
    }
    if (!opts.metricsPromOut.empty()) {
        if (obs::writePrometheusFile(obs::defaultRegistry().snapshot(),
                                     opts.metricsPromOut))
            inform("wrote Prometheus metrics to " +
                   opts.metricsPromOut);
        else
            warn("failed to write Prometheus metrics to " +
                 opts.metricsPromOut);
    }
    if (!opts.predictionsOut.empty()) {
        if (obs::predictionLog().writeJsonl(opts.predictionsOut))
            inform("wrote prediction provenance to " +
                   opts.predictionsOut);
        else
            warn("failed to write predictions to " +
                 opts.predictionsOut);
    }
    if (logLevel() >= LogLevel::Verbose) {
        const std::string profile = obs::pipelineProfiler().toText();
        if (!profile.empty())
            verbose("pipeline phase profile:\n" + profile);
    }
}

/** Largest batch size the CLI accepts anywhere. */
constexpr int kMaxBatch = 1'000'000;

/**
 * Strictly parse a batch-size token: "1x6", "", "-3" and values outside
 * [min, kMaxBatch] all fail with the reason, instead of std::stoi's
 * silent truncation or uncaught std::invalid_argument.
 */
int
parseBatch(const std::string& text, const std::string& what, int min)
{
    const auto batch = parseBoundedInt(text, min, kMaxBatch);
    if (!batch)
        fatal("bad " + what + ": " + batch.error().message());
    return batch.value();
}

/** Parse "SIFT@40" into a bag member. */
predictor::BagMember
parseMember(const std::string& text)
{
    const auto at = text.find('@');
    if (at == std::string::npos)
        fatal("expected BENCH@BATCH, got " + text);
    predictor::BagMember m;
    m.id = vision::benchmarkFromName(text.substr(0, at));
    m.batchSize = parseBatch(text.substr(at + 1),
                             "batch in '" + text + "'",
                             vision::minBatch(m.id));
    return m;
}

std::vector<std::string>
benchNames()
{
    std::vector<std::string> names;
    for (auto id : vision::kAllBenchmarks)
        names.push_back(vision::benchmarkName(id));
    return names;
}

int
cmdCollect(const std::string& path)
{
    predictor::DataCollector collector;
    std::printf("collecting the 91-run campaign...\n");
    const auto points =
        collector.collectAll(predictor::DataCollector::campaign91());
    ml::writeDatasetFile(predictor::toDataset(points), path);
    std::printf("wrote %zu data points to %s\n", points.size(),
                path.c_str());
    return 0;
}

int
cmdLoocv(const std::string& schemeName)
{
    predictor::PredictorParams params;
    if (schemeName == "insmix")
        params.scheme = predictor::insmixScheme();
    else if (!schemeName.empty() && schemeName != "full")
        fatal("unknown scheme " + schemeName);

    predictor::DataCollector collector;
    const auto raw = predictor::toDataset(
        collector.collectAll(predictor::DataCollector::campaign91()));
    const auto cv = predictor::MultiAppPredictor::looBenchmarkCv(
        raw, params, benchNames());
    for (const auto& fold : cv.folds)
        std::printf("%-8s %7.2f%%  (%zu points)\n", fold.label.c_str(),
                    fold.meanRelativeError, fold.testPoints);
    std::printf("mean     %7.2f%%\n", cv.meanRelativeError());
    return 0;
}

int
cmdPredict(const std::string& a, const std::string& b)
{
    const predictor::BagSpec spec{parseMember(a), parseMember(b)};

    predictor::DataCollector collector;
    std::printf("training on the 91-run campaign...\n");
    predictor::MultiAppPredictor model;
    model.train(collector.collectAll(
        predictor::DataCollector::campaign91()));

    const auto truth = collector.collect(spec);
    const auto e = model.explain(truth);
    // The measured bag doubles as ground truth for the online quality
    // monitor (error histograms, drift gauges, audit annotation).
    model.evaluate(predictor::toDataset({truth}));
    std::printf("bag %s\n", spec.canonical().label().c_str());
    std::printf("  predicted GPU time : %.6f s\n", e.predictedSeconds);
    std::printf("  uncertainty (RMSE) : %.6f s\n",
                e.uncertaintySeconds);
    std::printf("  measured GPU time  : %.6f s\n", truth.gpuBagTime);
    std::printf("  fairness (Eq. 2)   : %.3f\n", truth.fairness);
    std::printf("  decision path:\n");
    for (const auto& step : e.path)
        std::printf(
            "    %s <= %.4f -> %s\n",
            e.featureNames[static_cast<std::size_t>(step.feature)]
                .c_str(),
            step.threshold, step.wentLeft ? "yes" : "no");
    return 0;
}

int
cmdTrace(const std::string& bench, const std::string& batch,
         const std::string& path)
{
    const auto id = vision::benchmarkFromName(bench);
    const int batchSize =
        parseBatch(batch, "batch '" + batch + "'", vision::minBatch(id));
    const auto trace = vision::profileWorkload(id, batchSize);
    isa::writeTraceFile(trace, path);
    std::printf("%s\nwrote %zu phases to %s\n", trace.summary().c_str(),
                trace.size(), path.c_str());
    return 0;
}

int
cmdReport(const std::vector<std::string>& args)
{
    obs::RunReportInputs inputs;
    inputs.metricsPath = args[1];
    if (args.size() > 2 && args[2] != "-")
        inputs.predictionsPath = args[2];
    if (args.size() > 3 && args[3] != "-")
        inputs.tracePath = args[3];
    const auto report = obs::renderRunReport(inputs);
    if (!report.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     report.error().toString().c_str());
        return 1;
    }
    std::fputs(report.value().c_str(), stdout);
    return 0;
}

int
cmdCache(const std::string& action)
{
    auto& artifacts = cache::defaultArtifactCache();
    if (action == "stats") {
        const std::string dir = artifacts.directory();
        std::printf("cache directory: %s%s\n",
                    dir.empty() ? "(disabled)" : dir.c_str(),
                    !dir.empty() && !artifacts.enabled()
                        ? " (disabled)"
                        : "");
        std::size_t entries = 0;
        std::uintmax_t bytes = 0;
        for (const auto& kind : artifacts.scan()) {
            std::printf("  %-10s %6zu entries  %10ju bytes\n",
                        kind.kind.c_str(), kind.entries,
                        static_cast<std::uintmax_t>(kind.bytes));
            entries += kind.entries;
            bytes += kind.bytes;
        }
        std::printf("  %-10s %6zu entries  %10ju bytes\n", "total",
                    entries, bytes);
        return 0;
    }
    if (action == "clear") {
        const std::size_t removed = artifacts.clear();
        std::printf("removed %zu cache entries\n", removed);
        return 0;
    }
    if (action == "warm") {
        if (!artifacts.enabled())
            fatal("cache warm: the artifact cache is disabled");
        // One full pipeline pass populates every artifact kind: traces,
        // member records, co-runs, the campaign, and the fitted model.
        predictor::DataCollector collector;
        std::printf("warming the artifact cache (91-run campaign + "
                    "model fit)...\n");
        predictor::MultiAppPredictor model;
        model.train(collector.collectAll(
            predictor::DataCollector::campaign91()));
        for (const auto& kind : cache::defaultArtifactCache().scan())
            std::printf("  %-10s %6zu entries\n", kind.kind.c_str(),
                        kind.entries);
        return 0;
    }
    fatal("cache: unknown action '" + action +
          "' (expected stats, clear or warm)");
}

int
cmdTree()
{
    predictor::DataCollector collector;
    predictor::MultiAppPredictor model;
    model.train(collector.collectAll(
        predictor::DataCollector::campaign91()));
    std::printf("%s", model.tree().toText().c_str());
    return 0;
}

int
cmdServe(const ServeFlags& flags)
{
    if (!flags.socketPath.empty() && flags.stdinMode)
        fatal("serve: --socket and --stdin are mutually exclusive");

    predictor::DataCollector collector;
    const auto buildModel =
        [&collector]()
        -> std::shared_ptr<const predictor::MultiAppPredictor> {
        auto model = std::make_shared<predictor::MultiAppPredictor>();
        model->train(collector.collectAll(
            predictor::DataCollector::campaign91()));
        return model;
    };
    inform("training on the 91-run campaign...");
    serve::PredictionService service(buildModel(), buildModel,
                                     flags.service);
    serve::Server server(service, collector);

    // Replace the flush-and-exit handler for the serve loop's
    // lifetime: a signal now triggers a graceful drain (stop
    // accepting, answer every admitted job) and the normal sidecar
    // flush runs on the way out of main. A second signal still kills
    // the process immediately (see installShutdownHandler).
    installShutdownHandler(
        [&server](int) { server.requestStop(); });
    const auto cause = flags.socketPath.empty()
                           ? server.serveStdio()
                           : server.serveSocket(flags.socketPath);
    // The server is about to die; a late signal must not touch it.
    installShutdownHandler(
        [](int signo) { std::_Exit(128 + signo); });
    if (cause == serve::StopCause::Signal) {
        inform("drained after signal");
        return 128 + shutdownSignal();
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    const auto opts = extractObsOptions(args);
    if (!opts)
        return 2;
    if (args.empty())
        return usage();

    const std::string cmd = args[0];
    const std::size_t n = args.size();
    if (opts->serve.any && cmd != "serve") {
        std::fprintf(stderr,
                     "error: serve flags are only valid with the "
                     "serve command\n");
        return 2;
    }

    // A SIGINT/SIGTERM must not drop the buffered sidecars (trace,
    // prediction provenance, metrics): flush them all, then exit with
    // the conventional 128+signo status. The serve command swaps in a
    // graceful-drain callback for the duration of its loop.
    installShutdownHandler([&opts](int signo) {
        writeObsOutputs(*opts);
        std::_Exit(128 + signo);
    });

    int status = -1;
    try {
        if (cmd == "collect" && n == 2)
            status = cmdCollect(args[1]);
        else if (cmd == "loocv" && n <= 2)
            status = cmdLoocv(n >= 2 ? args[1] : "");
        else if (cmd == "predict" && n == 3)
            status = cmdPredict(args[1], args[2]);
        else if (cmd == "trace" && n == 4)
            status = cmdTrace(args[1], args[2], args[3]);
        else if (cmd == "tree" && n == 1)
            status = cmdTree();
        else if (cmd == "report" && n >= 2 && n <= 4)
            status = cmdReport(args);
        else if (cmd == "cache" && n == 2)
            status = cmdCache(args[1]);
        else if (cmd == "serve" && n == 1)
            status = cmdServe(opts->serve);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        writeObsOutputs(*opts);
        return 1;
    } catch (const std::exception& e) {
        // Last-resort boundary: no input, however malformed, may take
        // the process down with an uncaught exception.
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return 1;
    }
    if (status < 0)
        return usage();
    writeObsOutputs(*opts);
    return status;
}
