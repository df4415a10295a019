/**
 * @file
 * The MAPP end-to-end benchmark program (driven by perfbench/run.py).
 *
 *   mapp_perfbench cold    [flags]   one cold pipeline in this process:
 *       collectAll(campaign91) -> toDataset -> train -> LOOCV (full and
 *       insmix) -> predictDataset. --cache-dir= (empty) disables the
 *       artifact cache; a directory fills it. Prints "ready" once the
 *       process is set up, so the caller can time start-up.
 *   mapp_perfbench session [flags]   warm bring-up from a filled cache
 *       directory, a loop of warm restarts, then open-loop serving
 *       phases through serve::Server::handleLine.
 *
 * Both print one JSON object of raw measurements as their last line;
 * run.py turns them into the benchmark's metrics. Every output is
 * checked: the campaign hash and LOOCV means against values pinned at
 * the commit that introduced this benchmark, warm predictions against
 * the cold-fit model, and every served answer against a direct
 * MultiAppPredictor::predictBatch on the same rows, bit for bit.
 *
 * --trace=1 times the calls into each layer's public functions from
 * this file into a benchmark-owned obs::Tracer. The process-wide
 * obs::tracer() stays off: enabling it would switch on the simulators'
 * internal spans, which this benchmark does not measure.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cache/artifact_cache.h"
#include "cache/hash.h"
#include "common/parallel.h"
#include "ml/dataset_binary.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"
#include "predictor/schemes.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "vision/registry.h"

using namespace mapp;

namespace {

using Clock = std::chrono::steady_clock;

// Outputs of the cold pipeline at the commit that introduced this
// benchmark. A change that moves them on purpose updates them here.
constexpr std::uint64_t kPinnedCampaignHash = 0xbd017af8c777bf72ull;
constexpr std::uint64_t kPinnedLoocvFullBits = 0x403276645261d52full;  // 18.4625 %
constexpr std::uint64_t kPinnedLoocvInsmixBits = 0x4075f5b281112d89ull;  // 351.356 %

/**
 * The request-rate ladder max_rate_rps climbs: 4,000 req/s times
 * 2^(k/8), k = 0..kLadderSteps-1 (9% apart, up to 512k req/s).
 */
constexpr int kLadderSteps = 57;

double
ladderRate(int k)
{
    return 4000.0 * std::exp2(k / 8.0);
}

/** Length of one ladder step, and the requests it sends at most. */
constexpr double kStepSeconds = 0.3;
constexpr double kMaxStepRequests = 40000;

/** Latency windows per rate, and the length of a 16,000 req/s one. */
constexpr int kWindows = 6;
constexpr double kHighSeconds = 0.4;

/** First-time pairs of known members per member-mix window. */
constexpr int kPairMisses = 4;

/**
 * How long the generator waits for answers. A request that gets none,
 * is refused, or is answered wrong counts as this late: it misses any
 * latency limit.
 */
constexpr double kAnswerTimeoutMs = 10000.0;

/**
 * Members outside the campaign are drawn from these benchmarks. They
 * are profiled on a fixed sample of images, so the profiling cost does
 * not depend on the seeded batch size (KNN, OBJREC and SVM run the
 * whole batch), and it stays at ~10-30 ms: SIFT, also sampled, takes
 * ~0.1 s, which at 2,000 req/s delays a tenth of a window's requests
 * and moves its median.
 */
constexpr vision::BenchmarkId kMissBenchmarks[] = {
    vision::BenchmarkId::Fast, vision::BenchmarkId::Hog,
    vision::BenchmarkId::Orb, vision::BenchmarkId::Surf,
    vision::BenchmarkId::FaceDet};

/** Latency limit a ladder step's p99 must meet. */
constexpr double kLimitMs = 5.0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Peak resident set of this process (VmHWM), in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

std::uint64_t
counterValue(const char* name)
{
    return obs::defaultRegistry().counter(name).value();
}

/** splitmix64: the benchmark's own input stream, seeded per run. */
class SeedStream
{
  public:
    explicit SeedStream(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    double uniform(double lo, double hi)
    {
        return lo + (hi - lo) * static_cast<double>(next() >> 11) *
                        0x1.0p-53;
    }

    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** Minimal JSON object writer for the result line. */
class JsonOut
{
  public:
    void num(const std::string& key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        field(key, std::isfinite(v) ? buf : "null");
    }

    void str(const std::string& key, const std::string& v)
    {
        field(key, "\"" + v + "\"");
    }

    void strs(const std::string& key, const std::vector<std::string>& vs)
    {
        std::string text = "[";
        for (std::size_t i = 0; i < vs.size(); ++i)
            text += (i ? ",\"" : "\"") + vs[i] + "\"";
        field(key, text + "]");
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    void field(const std::string& key, const std::string& value)
    {
        body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + value;
    }

    std::string body_;
};

// ---------------------------------------------------------------------
// Tracing: spans around calls into the program's public functions.

obs::Tracer gTracer;  ///< benchmark-owned; obs::tracer() stays off
bool gTracing = false;
constexpr int kTracePid = 1;

int
threadTrack()
{
    static std::atomic<int> next{1};
    thread_local const int tid = next.fetch_add(1);
    return tid;
}

/**
 * Times one call into a layer. Always measures (two clock reads); the
 * span is recorded only when tracing. The category is the layer, the
 * name's prefix before the first '.'. Spans of one request carry its
 * index as "req".
 */
class Span
{
  public:
    explicit Span(const char* name, long request = -1)
        : name_(name), request_(request), start_(Clock::now()),
          startUs_(gTracing ? gTracer.wallTimeUs() : 0.0)
    {
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    ~Span()
    {
        if (!gTracing)
            return;
        // Both ends on the tracer's clock, so children nest exactly.
        const double durUs = gTracer.wallTimeUs() - startUs_;
        std::vector<obs::TraceArg> args;
        if (request_ >= 0)
            args.push_back(
                obs::TraceArg::num("req", static_cast<double>(request_)));
        const std::string name = name_;
        gTracer.completeEvent(name, name.substr(0, name.find('.')),
                              startUs_, durUs, kTracePid,
                              threadTrack(), std::move(args));
    }

    double us() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         start_)
            .count();
    }

  private:
    const char* name_;
    long request_;
    Clock::time_point start_;
    double startUs_;
};

// ---------------------------------------------------------------------
// Options and process set-up.

struct Options
{
    std::string mode;
    std::string cacheDir;
    std::string traceOut;
    std::string expectFile;
    std::string mix = "raw";
    std::uint64_t seed = 1;
    int lanes = 4;
    double restartSeconds = 1.0;
    double lowSeconds = 1.0;
};

bool
parseOptions(int argc, char** argv, Options& o)
{
    if (argc < 2)
        return false;
    o.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            return false;
        const std::string key = arg.substr(2, eq - 2);
        const std::string value = arg.substr(eq + 1);
        if (key == "cache-dir")
            o.cacheDir = value;
        else if (key == "trace")
            gTracing = value == "1";
        else if (key == "trace-out")
            o.traceOut = value;
        else if (key == "expect")
            o.expectFile = value;
        else if (key == "mix")
            o.mix = value;
        else if (key == "seed")
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "lanes")
            o.lanes = std::atoi(value.c_str());
        else if (key == "restart-seconds")
            o.restartSeconds = std::atof(value.c_str());
        else if (key == "low-seconds")
            o.lowSeconds = std::atof(value.c_str());
        else
            return false;
    }
    return (o.mode == "cold" || o.mode == "session") && o.lanes >= 1 &&
           (o.mix == "raw" || o.mix == "member");
}

/** Hermetic cache and a fixed lane count, before any layer runs. */
void
configureProcess(const Options& o)
{
    auto& cache = cache::defaultArtifactCache();
    cache.setDirectory(o.cacheDir);
    cache.setEnabled(!o.cacheDir.empty());
    parallel::setMaxThreads(o.lanes);
    if (o.lanes > 1)
        parallel::globalPool();
    gTracer.setEnabled(gTracing);
}

std::vector<std::string>
benchmarkNames()
{
    std::vector<std::string> names;
    for (auto id : vision::kAllBenchmarks)
        names.push_back(vision::benchmarkName(id));
    return names;
}

std::uint64_t
datasetHash(const ml::Dataset& data)
{
    cache::Hasher h;
    ml::hashDataset(h, data);
    return h.digest();
}

struct LoocvMeans
{
    double full = 0.0;
    double insmix = 0.0;
};

LoocvMeans
runLoocv(const ml::Dataset& data)
{
    const auto names = benchmarkNames();
    predictor::PredictorParams insmix;
    insmix.scheme = predictor::insmixScheme();
    LoocvMeans means;
    means.full = predictor::MultiAppPredictor::looBenchmarkCv(
                     data, predictor::PredictorParams{}, names)
                     .meanRelativeError();
    means.insmix = predictor::MultiAppPredictor::looBenchmarkCv(
                       data, insmix, names)
                       .meanRelativeError();
    return means;
}

/** Whether one pipeline result matches the pins (reports mismatches). */
bool
pinsMatch(std::uint64_t hash, const LoocvMeans& means)
{
    bool match = true;
    if (hash != kPinnedCampaignHash) {
        std::fprintf(stderr, "check: campaign hash %s != pinned %s\n",
                     hex(hash).c_str(), hex(kPinnedCampaignHash).c_str());
        match = false;
    }
    if (bitsOf(means.full) != kPinnedLoocvFullBits ||
        bitsOf(means.insmix) != kPinnedLoocvInsmixBits) {
        std::fprintf(stderr,
                     "check: LOOCV means %.17g / %.17g (%s / %s) differ "
                     "from the pins\n",
                     means.full, means.insmix,
                     hex(bitsOf(means.full)).c_str(),
                     hex(bitsOf(means.insmix)).c_str());
        match = false;
    }
    return match;
}

// ---------------------------------------------------------------------
// Cold pipeline.

int
runCold(const Options& o)
{
    configureProcess(o);
    predictor::DataCollector collector;
    const auto specs = predictor::DataCollector::campaign91();
    std::printf("ready\n");
    std::fflush(stdout);

    JsonOut out;
    const auto t0 = Clock::now();
    std::vector<predictor::DataPoint> points;
    {
        Span campaign("bench.campaign");
        if (gTracing) {
            // Decompose collectAll into its layers: profile every
            // distinct member, extract its features, co-simulate the
            // bags; collectAll then assembles from the warm memos.
            std::set<predictor::BagMember> memberSet;
            for (const auto& spec : specs) {
                memberSet.insert(spec.a);
                memberSet.insert(spec.b);
            }
            const std::vector<predictor::BagMember> members(
                memberSet.begin(), memberSet.end());
            std::vector<double> profileUs(members.size());
            std::vector<double> memberUs(members.size());
            parallel::parallelFor(members.size(), [&](std::size_t i) {
                Span s("vision.profile");
                vision::cachedTrace(members[i].id, members[i].batchSize);
                profileUs[i] = s.us();
            });
            parallel::parallelFor(members.size(), [&](std::size_t i) {
                Span s("predictor.member");
                collector.appFeatures(members[i]);
                memberUs[i] = s.us();
            });
            const auto events0 = counterValue("sim.events");
            {
                Span corun("sim.corun");
                collector.simulateBags(specs);
                out.num("sim.corun_s", corun.us() / 1e6);
            }
            out.num("sim.events", static_cast<double>(
                                      counterValue("sim.events") - events0));
            double profileSum = 0.0;
            for (double us : profileUs)
                profileSum += us;
            double memberSum = 0.0;
            for (double us : memberUs)
                memberSum += us;
            out.num("vision.profile_s", profileSum / 1e6);
            out.num("vision.profile_max_s",
                    *std::max_element(profileUs.begin(), profileUs.end()) /
                        1e6);
            out.num("predictor.member_s", memberSum / 1e6);
        }
        Span collect("predictor.collect");
        points = collector.collectAll(specs);
        out.num("collect_s", collect.us() / 1e6);
    }
    ml::Dataset data;
    {
        Span s("predictor.dataset");
        data = predictor::toDataset(points);
    }
    predictor::MultiAppPredictor model;
    {
        Span s("ml.fit");
        model.train(data);
        out.num("ml.fit_s", s.us() / 1e6);
    }
    LoocvMeans means;
    {
        Span s("ml.loocv");
        means = runLoocv(data);
        out.num("ml.loocv_s", s.us() / 1e6);
    }
    std::vector<double> predictions;
    {
        Span s("predictor.predict");
        predictions = model.predictDataset(data);
    }
    out.num("campaign_s", secondsSince(t0));

    const std::uint64_t hash = datasetHash(data);
    std::vector<std::string> predictionBits;
    for (double p : predictions)
        predictionBits.push_back(hex(bitsOf(p)));
    const int wrong = pinsMatch(hash, means) ? 0 : 1;
    out.num("attempted", 1);
    out.num("failed", wrong);
    out.num("wrong", wrong);
    out.str("campaign_hash", hex(hash));
    out.num("loocv_full_pct", means.full);
    out.num("loocv_insmix_pct", means.insmix);
    out.strs("prediction_bits", predictionBits);
    out.num("rss_mb", peakRssMb());
    if (gTracing && !o.traceOut.empty() &&
        !gTracer.writeChromeTrace(o.traceOut)) {
        std::fprintf(stderr, "cannot write %s\n", o.traceOut.c_str());
        return 1;
    }
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// Open-loop serving.

/** What a request costs the resolve step, as the generator built it. */
enum class RequestClass { Raw, Hit, PairMiss, MemberMiss };

struct ServeRequest
{
    std::string line;
    RequestClass cls = RequestClass::Raw;
    /** Raw form: the exact rows sent. */
    std::vector<predictor::BagQuery> rows;
    /** Member form: the bags named (as sent, not canonical). */
    std::vector<predictor::BagSpec> bags;
    /** Members a MemberMiss request resolves for the first time. */
    std::vector<predictor::BagMember> newMembers;
};

std::string
memberRef(const predictor::BagMember& m)
{
    return vision::benchmarkName(m.id) + "@" + std::to_string(m.batchSize);
}

void
appendNumber(std::string& out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

/** Per-feature ranges of the campaign's training rows. */
struct FeatureRanges
{
    double cpuLo = 1e300, cpuHi = -1e300;
    double gpuLo = 1e300, gpuHi = -1e300;
    std::array<double, isa::kNumInstClasses> mixLo{}, mixHi{};
    double fairLo = 1e300, fairHi = -1e300;

    explicit FeatureRanges(const std::vector<predictor::DataPoint>& pts)
    {
        mixLo.fill(1e300);
        mixHi.fill(-1e300);
        for (const auto& p : pts) {
            for (const auto* app : {&p.a, &p.b}) {
                cpuLo = std::min(cpuLo, app->cpuTime);
                cpuHi = std::max(cpuHi, app->cpuTime);
                gpuLo = std::min(gpuLo, app->gpuTime);
                gpuHi = std::max(gpuHi, app->gpuTime);
                for (std::size_t k = 0; k < mixLo.size(); ++k) {
                    mixLo[k] = std::min(mixLo[k], app->mixPercent[k]);
                    mixHi[k] = std::max(mixHi[k], app->mixPercent[k]);
                }
            }
            fairLo = std::min(fairLo, p.fairness);
            fairHi = std::max(fairHi, p.fairness);
        }
    }
};

/**
 * Seeded request streams. Raw: 3 of 4 requests are single-query
 * predicts, 1 of 4 a 16-query predict_batch, features drawn inside the
 * training ranges. Member: single-query predicts naming campaign bags,
 * plus, in latency phases, a fixed number of first-time pairs of known
 * members and of members outside the campaign.
 */
class RequestFactory
{
  public:
    RequestFactory(std::uint64_t seed,
                   const std::vector<predictor::DataPoint>& points)
        : rng_(seed), ranges_(points)
    {
        std::set<predictor::BagMember> known;
        for (const auto& p : points) {
            campaignBags_.push_back(p.spec);
            seenBags_.insert(p.spec.canonical());
            known.insert(p.spec.a);
            known.insert(p.spec.b);
        }
        knownMembers_.assign(known.begin(), known.end());
        // Outside members: batch sizes 24..64 divisible by 4 that the
        // campaign does not use; sampled profiling needs the 4 | batch.
        for (auto id : kMissBenchmarks)
            for (int batch = 24; batch <= 64; batch += 4)
                if (known.count({id, batch}) == 0)
                    outside_.push_back({id, batch});
    }

    ServeRequest raw(long id)
    {
        ServeRequest r;
        const bool batch = rng_.below(4) == 0;
        const int n = batch ? 16 : 1;
        r.line = std::string("{\"op\":\"") +
                 (batch ? "predict_batch" : "predict") + "\",\"id\":\"" +
                 std::to_string(id) + "\"";
        if (batch)
            r.line += ",\"queries\":[";
        for (int q = 0; q < n; ++q) {
            predictor::BagQuery query;
            query.a = rawApp();
            query.b = rawApp();
            query.fairness = rng_.uniform(ranges_.fairLo, ranges_.fairHi);
            std::string body = "\"a\":" + appJson(query.a) +
                               ",\"b\":" + appJson(query.b) +
                               ",\"fairness\":";
            appendNumber(body, query.fairness);
            r.line += batch ? (q ? ",{" : "{") + body + "}" : "," + body;
            r.rows.push_back(std::move(query));
        }
        r.line += batch ? "]}" : "}";
        return r;
    }

    ServeRequest member(long id, RequestClass cls)
    {
        ServeRequest r;
        r.cls = cls;
        predictor::BagSpec bag;
        if (cls == RequestClass::Hit) {
            bag = campaignBags_[rng_.below(campaignBags_.size())];
        } else if (cls == RequestClass::PairMiss) {
            do {
                bag = {knownMembers_[rng_.below(knownMembers_.size())],
                       knownMembers_[rng_.below(knownMembers_.size())]};
            } while (seenBags_.count(bag.canonical()) != 0);
        } else {
            const auto bench = missBenchmarks_.at(missTurn_++);
            std::vector<std::size_t> candidates;
            for (std::size_t i = 0; i < outside_.size(); ++i)
                if (outside_[i].id == bench)
                    candidates.push_back(i);
            const std::size_t pick =
                candidates[rng_.below(candidates.size())];
            bag = {outside_[pick],
                   knownMembers_[rng_.below(knownMembers_.size())]};
            r.newMembers.push_back(outside_[pick]);
            outside_.erase(outside_.begin() +
                           static_cast<std::ptrdiff_t>(pick));
        }
        seenBags_.insert(bag.canonical());
        if (rng_.below(2) == 0)
            std::swap(bag.a, bag.b);
        r.bags.push_back(bag);
        r.line = "{\"op\":\"predict\",\"id\":\"" + std::to_string(id) +
                 "\",\"a\":\"" + memberRef(bag.a) + "\",\"b\":\"" +
                 memberRef(bag.b) + "\"}";
        return r;
    }

    /**
     * n requests; for the member mix, one first-time member of each of
     * @p missBenchmarks (seeded batch) and @p pairMisses first-time
     * pairs, at seeded positions.
     */
    std::vector<ServeRequest> phase(
        bool memberMix, std::size_t n,
        std::vector<vision::BenchmarkId> missBenchmarks, int pairMisses)
    {
        std::vector<RequestClass> classes(n, RequestClass::Hit);
        missBenchmarks_ = std::move(missBenchmarks);
        missTurn_ = 0;
        if (memberMix) {
            // Member misses are evenly spaced, so their stalls never
            // overlap; first-time pairs land at seeded positions in the
            // middle 80% of the window.
            const std::size_t m = missBenchmarks_.size();
            for (std::size_t k = 0; k < m; ++k)
                classes[n * (k + 1) / (m + 1)] = RequestClass::MemberMiss;
            for (int k = 0; k < pairMisses; ++k) {
                std::size_t at = 0;
                do {
                    at = n / 10 + rng_.below(n * 8 / 10);
                } while (classes[at] != RequestClass::Hit);
                classes[at] = RequestClass::PairMiss;
            }
        }
        std::vector<ServeRequest> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(memberMix ? member(static_cast<long>(i),
                                             classes[i])
                                    : raw(static_cast<long>(i)));
        return out;
    }

  private:
    predictor::AppFeatures rawApp()
    {
        predictor::AppFeatures app;
        app.cpuTime = rng_.uniform(ranges_.cpuLo, ranges_.cpuHi);
        app.gpuTime = rng_.uniform(ranges_.gpuLo, ranges_.gpuHi);
        for (std::size_t k = 0; k < app.mixPercent.size(); ++k)
            app.mixPercent[k] =
                rng_.uniform(ranges_.mixLo[k], ranges_.mixHi[k]);
        return app;
    }

    static std::string appJson(const predictor::AppFeatures& app)
    {
        std::string s = "{\"cpu_time\":";
        appendNumber(s, app.cpuTime);
        s += ",\"gpu_time\":";
        appendNumber(s, app.gpuTime);
        s += ",\"mix\":[";
        for (std::size_t k = 0; k < app.mixPercent.size(); ++k) {
            if (k)
                s += ',';
            appendNumber(s, app.mixPercent[k]);
        }
        return s + "]}";
    }

    SeedStream rng_;
    FeatureRanges ranges_;
    std::vector<predictor::BagSpec> campaignBags_;
    std::set<predictor::BagSpec> seenBags_;
    std::vector<predictor::BagMember> knownMembers_;
    std::vector<predictor::BagMember> outside_;
    std::vector<vision::BenchmarkId> missBenchmarks_;
    std::size_t missTurn_ = 0;
};

/** One request's outcome, written by whichever thread answers it. */
struct Slot
{
    std::atomic<bool> done{false};
    Clock::time_point answeredAt;
    std::string response;
    double queueUs = 0.0;   ///< traced dispatch only
    double formatUs = 0.0;  ///< traced dispatch only
};

/**
 * The outcomes of one phase. Shared with the response callbacks so a
 * late answer never writes into freed memory.
 */
struct PhaseState
{
    explicit PhaseState(std::size_t n) : slots(n) {}
    std::vector<Slot> slots;
    std::atomic<std::size_t> answered{0};
};

struct PhaseResult
{
    std::vector<double> latencyMs;  ///< +inf for failed requests
    std::size_t failed = 0;  ///< refused, expired, unanswered or wrong
    std::size_t wrong = 0;   ///< answered ok with a wrong prediction
    double achievedRps = 0.0;
    double growthMs = 0.0;  ///< last-quarter minus first-quarter latency
    std::size_t requests = 0;
    // Sums over the phase's requests.
    double lateUs = 0.0;  ///< generator send time minus due time
    double queueUs = 0.0;
    double formatUs = 0.0;
    double parseUs = 0.0;
    double resolveUs[4] = {0, 0, 0, 0};  ///< by RequestClass
    std::size_t resolveCount[4] = {0, 0, 0, 0};

    double mean(double sum) const
    {
        return requests ? sum / static_cast<double>(requests) : 0.0;
    }
};

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

/** Parse "predicted_seconds" (a number or an array) out of a response. */
bool
parsePredictions(const std::string& response, std::vector<double>& out)
{
    out.clear();
    if (response.find("\"ok\":true") == std::string::npos)
        return false;
    const auto key = response.find("\"predicted_seconds\":");
    if (key == std::string::npos)
        return false;
    const char* p = response.c_str() + key + 20;
    const bool array = *p == '[';
    if (array)
        ++p;
    for (;;) {
        char* end = nullptr;
        out.push_back(std::strtod(p, &end));
        if (end == p)
            return false;
        p = end;
        if (!array || *p != ',')
            break;
        ++p;
    }
    return !array || *p == ']';
}

class ServeBench
{
  public:
    ServeBench(serve::Server& server, serve::PredictionService& service,
               predictor::DataCollector& collector,
               const predictor::MultiAppPredictor& model)
        : server_(server), service_(service), collector_(collector),
          model_(model)
    {
    }

    /**
     * Send @p requests open-loop at @p rate from this thread: request i
     * is due at start + i / rate, and its latency runs from that due
     * time to its response callback, so a stall delays every later
     * request too. @p traced dispatches through the layers' public
     * functions under spans instead of Server::handleLine.
     */
    PhaseResult run(const std::vector<ServeRequest>& requests,
                    double rate, bool traced)
    {
        const std::size_t n = requests.size();
        auto state = std::make_shared<PhaseState>(n);
        std::vector<Clock::time_point> due(n);
        PhaseResult result;
        result.requests = n;
        const auto period = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / rate));
        const auto start = Clock::now() + std::chrono::milliseconds(2);
        for (std::size_t i = 0; i < n; ++i) {
            due[i] = start + period * static_cast<long>(i);
            auto now = Clock::now();
            while (now < due[i])
                now = Clock::now();
            result.lateUs +=
                std::chrono::duration<double, std::micro>(now - due[i])
                    .count();
            Slot* slot = &state->slots[i];
            auto respond = [state, slot](std::string line) {
                slot->answeredAt = Clock::now();
                slot->response = std::move(line);
                slot->done.store(true, std::memory_order_release);
                state->answered.fetch_add(1, std::memory_order_acq_rel);
            };
            if (traced)
                dispatchTraced(static_cast<long>(i), requests[i], *slot,
                               respond, result);
            else
                server_.handleLine(requests[i].line, respond);
        }
        const auto waitUntil =
            Clock::now() + std::chrono::milliseconds(
                               static_cast<long>(kAnswerTimeoutMs));
        while (state->answered.load(std::memory_order_acquire) < n &&
               Clock::now() < waitUntil)
            std::this_thread::sleep_for(std::chrono::microseconds(200));

        Clock::time_point last = start;
        std::vector<double> predicted;
        for (std::size_t i = 0; i < n; ++i) {
            Slot& slot = state->slots[i];
            double latency = kAnswerTimeoutMs;
            const bool answered =
                slot.done.load(std::memory_order_acquire) &&
                parsePredictions(slot.response, predicted);
            const bool right =
                answered && matchesDirect(requests[i], predicted);
            result.wrong += answered && !right;
            if (right) {
                latency = std::chrono::duration<double, std::milli>(
                              slot.answeredAt - due[i])
                              .count();
                last = std::max(last, slot.answeredAt);
                result.queueUs += slot.queueUs;
                result.formatUs += slot.formatUs;
            } else {
                ++result.failed;
                if (answered && result.wrong <= 3)
                    std::fprintf(stderr,
                                 "check: request %zu answered %s, but a "
                                 "direct predictBatch differs\n",
                                 i, slot.response.c_str());
            }
            result.latencyMs.push_back(latency);
        }
        const double span = std::chrono::duration<double>(last - start)
                                .count();
        result.achievedRps =
            span > 0.0 ? static_cast<double>(n - result.failed) / span : 0.0;
        const std::size_t q = n / 4;
        if (q > 0) {
            double first = 0.0;
            double lastQ = 0.0;
            for (std::size_t i = 0; i < q; ++i) {
                first += result.latencyMs[i];
                lastQ += result.latencyMs[n - 1 - i];
            }
            result.growthMs = (lastQ - first) / static_cast<double>(q);
        }
        return result;
    }

    /** Time the batch worker's two steps offline on the served rows. */
    void replayRows(JsonOut& out) const
    {
        if (servedRows_.empty())
            return;
        const auto& names = model_.params().scheme.featureNames();
        ml::Dataset served(predictor::bagFeatureNames());
        for (const auto& q : servedRows_)
            served.addRow(predictor::buildBagVector(q.a, q.b, q.fairness),
                          0.0, "");
        predictor::RangeNormalizer normalizer;
        normalizer.fit(trainProjected_);
        const auto flat =
            normalizer.apply(served.selectFeatures(names)).toRowMajor();
        const std::size_t nF = names.size();
        constexpr std::size_t kBatch = 32;
        std::vector<double> out32(kBatch);
        double walkUs = 0.0;
        double batchUs = 0.0;
        std::size_t rows = 0;
        const auto t0 = Clock::now();
        while (secondsSince(t0) < 0.3 || rows < 20000) {
            for (std::size_t b = 0; b < servedRows_.size(); b += kBatch) {
                const std::size_t m =
                    std::min(kBatch, servedRows_.size() - b);
                const std::vector<predictor::BagQuery> batch(
                    servedRows_.begin() + static_cast<std::ptrdiff_t>(b),
                    servedRows_.begin() +
                        static_cast<std::ptrdiff_t>(b + m));
                {
                    Span s("predictor.predict_batch");
                    const auto answers = model_.predictBatch(batch);
                    batchUs += s.us();
                }
                {
                    Span s("ml.walk");
                    model_.compiledTree().predictBatch(
                        std::span<const double>(flat).subspan(b * nF,
                                                              m * nF),
                        nF, std::span<double>(out32.data(), m));
                    walkUs += s.us();
                }
                rows += m;
            }
        }
        const double walkNs = 1e3 * walkUs / static_cast<double>(rows);
        out.num("ml.walk_ns", walkNs);
        out.num("predictor.row_assembly_ns",
                1e3 * batchUs / static_cast<double>(rows) - walkNs);
    }

    void setTrainingRows(const ml::Dataset& raw)
    {
        trainProjected_ =
            raw.selectFeatures(model_.params().scheme.featureNames());
    }

  private:
    /** The rows a request resolves to, from the (now warm) collector. */
    std::vector<predictor::BagQuery> resolvedRows(const ServeRequest& r)
    {
        if (r.cls == RequestClass::Raw)
            return r.rows;
        std::vector<predictor::BagQuery> rows;
        for (const auto& raw : r.bags) {
            const auto bag = raw.canonical();
            predictor::BagQuery q;
            q.a = collector_.appFeatures(bag.a);
            q.b = collector_.appFeatures(bag.b);
            q.fairness = collector_.measureFairness(bag);
            rows.push_back(std::move(q));
        }
        return rows;
    }

    bool matchesDirect(const ServeRequest& r,
                       const std::vector<double>& predicted)
    {
        const auto rows = resolvedRows(r);
        const auto direct = model_.predictBatch(rows);
        if (direct.size() != predicted.size())
            return false;
        for (std::size_t i = 0; i < direct.size(); ++i)
            if (bitsOf(direct[i]) != bitsOf(predicted[i]))
                return false;
        if (gTracing)
            servedRows_.insert(servedRows_.end(), rows.begin(), rows.end());
        return true;
    }

    /**
     * Server::handleLine's predict path, step by step through the
     * layers' public functions: parse, resolve (a miss is split into
     * profiling, feature extraction and the co-run), submit, and the
     * response formatting on the batch worker.
     */
    template <typename Respond>
    void dispatchTraced(long id, const ServeRequest& req, Slot& slot,
                        const Respond& respond, PhaseResult& result)
    {
        Span whole("serve.request", id);
        Result<serve::Request> parsed = serve::Request{};
        {
            Span s("serve.parse", id);
            parsed = serve::parseRequest(req.line);
            result.parseUs += s.us();
        }
        if (!parsed) {
            respond(serve::errorResponse("", "parse",
                                         parsed.error().toString()));
            return;
        }
        serve::Request request = std::move(parsed).value();
        std::vector<predictor::BagQuery> rows;
        {
            Span s("serve.resolve", id);
            for (const auto& m : req.newMembers) {
                {
                    Span p("vision.profile", id);
                    vision::cachedTrace(m.id, m.batchSize);
                }
                Span f("predictor.member", id);
                collector_.appFeatures(m);
            }
            if (req.cls == RequestClass::PairMiss ||
                req.cls == RequestClass::MemberMiss) {
                const auto bag = req.bags.front().canonical();
                Span c("sim.corun", id);
                collector_.simulateBags(std::span(&bag, 1),
                                        {.cpu = true, .gpu = false});
            }
            for (const auto& spec : request.queries) {
                if (!spec.byMembers) {
                    rows.push_back(spec.raw);
                    continue;
                }
                const auto bag =
                    predictor::BagSpec{spec.a, spec.b}.canonical();
                predictor::BagQuery q;
                q.a = collector_.appFeatures(bag.a);
                q.b = collector_.appFeatures(bag.b);
                q.fairness = spec.fairnessProvided
                                 ? spec.raw.fairness
                                 : collector_.measureFairness(bag);
                rows.push_back(std::move(q));
            }
            const auto c = static_cast<int>(req.cls);
            result.resolveUs[c] += s.us();
            ++result.resolveCount[c];
        }
        Span submit("serve.submit", id);
        const serve::RequestOp op = request.op;
        service_.submit(
            std::move(rows), request.deadlineMs,
            [respond, id, op, &slot](serve::JobResult job) {
                std::string line;
                {
                    Span f("serve.format", id);
                    line = job.ok ? serve::predictResponse(
                                        std::to_string(id), op,
                                        job.predictedSeconds, job.epoch,
                                        job.queueUs)
                                  : serve::errorResponse(
                                        std::to_string(id), job.error,
                                        job.error);
                    slot.formatUs = f.us();
                }
                slot.queueUs = job.queueUs;
                respond(std::move(line));
            });
    }

    serve::Server& server_;
    serve::PredictionService& service_;
    predictor::DataCollector& collector_;
    const predictor::MultiAppPredictor& model_;
    ml::Dataset trainProjected_;
    std::vector<predictor::BagQuery> servedRows_;
};

// ---------------------------------------------------------------------
// Warm session: bring-up, restarts, serving.

std::vector<std::uint64_t>
readExpectedBits(const std::string& path)
{
    std::vector<std::uint64_t> bits;
    std::ifstream in(path);
    std::string token;
    while (in >> token)
        bits.push_back(std::strtoull(token.c_str(), nullptr, 16));
    return bits;
}

int
runSession(const Options& o)
{
    configureProcess(o);
    const auto specs = predictor::DataCollector::campaign91();
    const auto expected = readExpectedBits(o.expectFile);
    JsonOut out;
    std::size_t attempted = 0;
    std::size_t failed = 0;  ///< operations that failed, for any reason
    std::size_t wrong = 0;   ///< output checks that failed

    // Bring-up: what a warm `mapp_cli serve` does before its first
    // request, plus warming the collector memos for the campaign bags
    // so member-form hits are in-memory lookups.
    const auto bringUp0 = Clock::now();
    predictor::DataCollector collector;
    const auto points = collector.collectAll(specs);
    const ml::Dataset data = predictor::toDataset(points);
    auto model = std::make_shared<predictor::MultiAppPredictor>();
    model->train(data);
    serve::PredictionService service(model);
    serve::Server server(service, collector);
    if (o.mix == "member")
        for (const auto& spec : specs) {
            collector.appFeatures(spec.a);
            collector.appFeatures(spec.b);
            collector.measureFairness(spec);
        }
    out.num("bringup_s", secondsSince(bringUp0));
    ++attempted;
    if (datasetHash(data) != kPinnedCampaignHash) {
        std::fprintf(stderr, "check: warm campaign hash differs\n");
        ++failed;
        ++wrong;
    }

    // Warm restarts: what a second `mapp_cli predict`/`loocv` process
    // or a serve reload pays, repeated in chunks between the serving
    // windows below.
    std::vector<double> restartMs;
    std::vector<std::size_t> chunkStarts;  ///< untraced chunks only
    double restartUsTraced = 0.0, restartUsUntraced = 0.0;
    std::size_t restartsTraced = 0;
    double campaignLoadUs = 0.0, modelLoadUs = 0.0;
    std::uint64_t restartMisses = 0, restartBytes = 0;
    const auto restartOnce = [&](bool record) {
        const long rep = static_cast<long>(restartMs.size());
        const auto misses0 = counterValue("cache.misses");
        const auto bytes0 = counterValue("cache.bytes_read");
        Span whole("bench.restart", rep);
        predictor::DataCollector fresh;
        std::vector<predictor::DataPoint> pts;
        double loadUs = 0.0;
        {
            Span s("cache.campaign_load", rep);
            pts = fresh.collectAll(specs);
            loadUs = s.us();
        }
        ml::Dataset d;
        {
            Span s("predictor.dataset", rep);
            d = predictor::toDataset(pts);
        }
        predictor::MultiAppPredictor m;
        double modelUs = 0.0;
        {
            Span s("cache.model_load", rep);
            m.train(d);
            modelUs = s.us();
        }
        LoocvMeans means;
        {
            Span s("ml.loocv", rep);
            means = runLoocv(d);
        }
        std::vector<double> preds;
        {
            Span s("predictor.predict", rep);
            preds = m.predictDataset(d);
        }
        const double us = whole.us();
        restartMisses += counterValue("cache.misses") - misses0;
        ++attempted;
        if (record) {
            restartBytes += counterValue("cache.bytes_read") - bytes0;
            campaignLoadUs += loadUs;
            modelLoadUs += modelUs;
            restartMs.push_back(us / 1e3);
            (gTracing ? restartUsTraced : restartUsUntraced) += us;
            restartsTraced += gTracing;
        }
        bool ok = preds.size() == expected.size() &&
                  bitsOf(means.full) == kPinnedLoocvFullBits &&
                  bitsOf(means.insmix) == kPinnedLoocvInsmixBits;
        for (std::size_t i = 0; ok && i < preds.size(); ++i)
            ok = bitsOf(preds[i]) == expected[i];
        if (!ok) {
            ++failed;
            if (++wrong <= 3)
                std::fprintf(stderr, "check: warm restart %ld differs "
                                     "from the cold-fit model\n",
                             rep);
        }
    };
    const auto restartChunk = [&](double seconds) {
        // The first restart after a serving window runs unrecorded: it
        // pays for waking the idle pool lanes and re-faulting memory the
        // window freed.
        restartOnce(false);
        if (!gTracing)
            chunkStarts.push_back(restartMs.size());
        const auto t0 = Clock::now();
        do
            restartOnce(true);
        while (secondsSince(t0) < seconds);
    };

    // Open-loop serving.
    const bool memberMix = o.mix == "member";
    RequestFactory factory(o.seed, points);
    ServeBench bench(server, service, collector, *model);
    bench.setTrainingRows(data);
    // Member misses per 2,000 req/s window: two members outside the
    // campaign, their benchmarks fixed by the window's index so every
    // seed's windows cost the same. At 16,000 req/s only first-time
    // pairs: a profiling stall there backs up more requests than the
    // default 1,024-row queue admits.
    const auto phase = [&](double rate, double seconds, int window,
                           bool misses) {
        const auto n = static_cast<std::size_t>(rate * seconds);
        std::vector<vision::BenchmarkId> members;
        if (misses && memberMix && rate <= 2000)
            members = {kMissBenchmarks[(2 * window) % 5],
                       kMissBenchmarks[(2 * window + 1) % 5]};
        return factory.phase(memberMix, n, std::move(members),
                             misses ? kPairMisses : 0);
    };
    // A refusal at a ladder step beyond capacity is the overload the
    // ladder probes for; only wrong answers fail there. In the
    // fixed-rate windows every refusal counts as a failed operation.
    const auto account = [&](const PhaseResult& r, bool ladder = false) {
        attempted += r.requests;
        failed += ladder ? r.wrong : r.failed;
        wrong += r.wrong;
    };

    // Latency is measured in kWindows windows per rate, each with its
    // own requests (and misses); a window's p50/p99 are over its
    // requests, and the reported value is the median window. Windows
    // of both rates and the restart chunks alternate, so a few seconds
    // of contention on the host land in a minority of windows.
    struct Windows
    {
        std::vector<double> p50s, p99s;
        double latencySumMs = 0.0;
        PhaseResult total;  ///< sums over every window

        void add(const PhaseResult& r)
        {
            p50s.push_back(quantile(r.latencyMs, 0.5));
            p99s.push_back(quantile(r.latencyMs, 0.99));
            for (double ms : r.latencyMs)
                latencySumMs += ms;
            total.requests += r.requests;
            total.lateUs += r.lateUs;
            total.queueUs += r.queueUs;
            total.formatUs += r.formatUs;
            total.parseUs += r.parseUs;
            for (int c = 0; c < 4; ++c) {
                total.resolveUs[c] += r.resolveUs[c];
                total.resolveCount[c] += r.resolveCount[c];
            }
        }

        double p50() const { return quantile(p50s, 0.5); }
        double p99() const { return quantile(p99s, 0.5); }
        double meanMs() const { return total.mean(latencySumMs); }
    };
    const auto window = [&](Windows& w, double rate, double seconds, int i,
                            bool traced) {
        const auto r = bench.run(phase(rate, seconds, i, true), rate, traced);
        account(r);
        w.add(r);
        std::fprintf(stderr, "window %.0f req/s: p50 %.3f ms, p99 %.3f ms\n",
                     rate, w.p50s.back(), w.p99s.back());
    };

    const auto hits0 = counterValue("collector.feature_cache_hits") +
                       counterValue("collector.shared_cache_hits");
    const auto lookups0 = hits0 +
                          counterValue("collector.feature_cache_misses") +
                          counterValue("collector.shared_cache_misses");
    const auto batches0 = counterValue("serve.batches");
    const auto predictions0 = counterValue("serve.predictions");

    const bool tracing = gTracing;
    gTracing = false;
    Windows low;
    for (int i = 0; i < kWindows; ++i) {
        restartChunk(o.restartSeconds / kWindows);
        window(low, 2000, o.lowSeconds, i, false);
    }
    out.num("p50_ms_low", low.p50());
    out.num("p99_ms_low", low.p99());
    out.num("bench.gen_late_us", low.total.mean(low.total.lateUs));
    const auto hits = counterValue("collector.feature_cache_hits") +
                      counterValue("collector.shared_cache_hits") - hits0;
    const auto lookups = counterValue("collector.feature_cache_hits") +
                         counterValue("collector.shared_cache_hits") +
                         counterValue("collector.feature_cache_misses") +
                         counterValue("collector.shared_cache_misses") -
                         lookups0;
    out.num("serve.resolve_hit_ratio",
            lookups ? static_cast<double>(hits) /
                          static_cast<double>(lookups)
                    : 0.0);
    const auto batches = counterValue("serve.batches") - batches0;
    out.num("serve.batch_rows",
            batches ? static_cast<double>(counterValue("serve.predictions") -
                                          predictions0) /
                          static_cast<double>(batches)
                    : 0.0);

    if (tracing) {
        // Near capacity, untraced: 16,000 req/s windows and the rate
        // ladder. On a shared host their run-to-run spread is too wide
        // to bound, so they are reported with the layers, in traced
        // runs only.
        Windows high;
        for (int i = 0; i < kWindows; ++i)
            window(high, 16000, kHighSeconds, i, false);
        out.num("p50_ms_high", high.p50());
        out.num("p99_ms_high", high.p99());

        // The ladder: a step passes when every request is answered
        // right, p99 meets the limit and latency does not keep growing
        // (no backlog); a failing step is tried up to three times so a
        // host hiccup does not end the climb. max_rate_rps is the
        // throughput achieved at the highest passing step.
        std::string steps;
        std::vector<double> achievedAt(kLadderSteps, 0.0);
        const auto passes = [&](int k) {
            const double rate = ladderRate(k);
            const double seconds =
                std::min(kStepSeconds, kMaxStepRequests / rate);
            for (int attempt = 0; attempt < 3; ++attempt) {
                const auto r = bench.run(phase(rate, seconds, 0, false), rate,
                                         false);
                account(r, true);
                const double p99 = quantile(r.latencyMs, 0.99);
                char buf[96];
                std::snprintf(buf, sizeof buf, "%s%.0f:%.3f:%.3f",
                              steps.empty() ? "" : " ", rate, p99,
                              r.growthMs);
                steps += buf;
                if (r.failed == 0 && p99 <= kLimitMs && r.growthMs <= 1.0) {
                    achievedAt[static_cast<std::size_t>(k)] = r.achievedRps;
                    return true;
                }
            }
            return false;
        };
        // Double the rate until a step fails, then bisect the steps in
        // between.
        int best = -1;
        int fail = kLadderSteps;
        for (int k = 0; k < kLadderSteps; k += 8) {
            if (!passes(k)) {
                fail = k;
                break;
            }
            best = k;
        }
        while (best >= 0 && fail - best > 1) {
            const int mid = (best + fail) / 2;
            (passes(mid) ? best : fail) = mid;
        }
        const double maxRate =
            best >= 0 ? achievedAt[static_cast<std::size_t>(best)] : 0.0;
        out.num("max_rate_rps", maxRate);
        out.str("ladder", steps);

        // The same schedule again under spans (fresh misses), so the
        // tracing overhead is measured in this process.
        gTracing = true;
        Windows tLow, tHigh;
        for (int i = 0; i < 3; ++i) {
            restartChunk(o.restartSeconds / kWindows);
            window(tLow, 2000, o.lowSeconds, i, true);
            window(tHigh, 16000, kHighSeconds, i, true);
        }
        const auto untraced =
            static_cast<double>(restartMs.size() - restartsTraced);
        out.num("bench.overhead_restart_ms",
                (restartUsTraced / static_cast<double>(restartsTraced) -
                 restartUsUntraced / untraced) /
                    1e3);
        out.num("bench.overhead_serve_ms", tLow.meanMs() - low.meanMs());
        PhaseResult t = tLow.total;
        const PhaseResult& h = tHigh.total;
        t.requests += h.requests;
        t.parseUs += h.parseUs;
        t.queueUs += h.queueUs;
        t.formatUs += h.formatUs;
        out.num("serve.parse_us", t.mean(t.parseUs));
        out.num("serve.queue_wait_us", t.mean(t.queueUs));
        out.num("serve.format_us", t.mean(t.formatUs));
        const auto classMean = [&](RequestClass cls) {
            const auto c = static_cast<int>(cls);
            const auto count = t.resolveCount[c] + h.resolveCount[c];
            return count ? (t.resolveUs[c] + h.resolveUs[c]) /
                               static_cast<double>(count)
                         : 0.0;
        };
        out.num("serve.resolve_hit_us", memberMix
                                            ? classMean(RequestClass::Hit)
                                            : classMean(RequestClass::Raw));
        out.num("serve.resolve_pair_us", classMean(RequestClass::PairMiss));
        out.num("serve.resolve_miss_ms",
                classMean(RequestClass::MemberMiss) / 1e3);
        bench.replayRows(out);
    }

    if (restartMisses != 0) {
        std::fprintf(stderr, "check: %llu cache misses in warm restarts\n",
                     static_cast<unsigned long long>(restartMisses));
        ++failed;
        ++wrong;
    }
    // Restart percentiles pool the untraced chunks except the two whose
    // own p99 is highest and lowest, so one chunk that met contention
    // on the host cannot move them.
    const std::size_t untracedEnd = restartMs.size() - restartsTraced;
    std::vector<std::pair<double, std::size_t>> chunks;
    for (std::size_t c = 0; c < chunkStarts.size(); ++c) {
        const std::size_t end = c + 1 < chunkStarts.size()
                                    ? chunkStarts[c + 1]
                                    : untracedEnd;
        chunks.emplace_back(
            quantile({restartMs.begin() +
                          static_cast<std::ptrdiff_t>(chunkStarts[c]),
                      restartMs.begin() + static_cast<std::ptrdiff_t>(end)},
                     0.99),
            c);
    }
    for (const auto& [p99, c] : chunks)
        std::fprintf(stderr, "restart chunk %zu: p99 %.3f ms\n", c, p99);
    std::sort(chunks.begin(), chunks.end());
    const std::size_t trim = chunks.size() >= 3 ? 1 : 0;
    std::vector<double> pooled;
    for (std::size_t i = trim; i + trim < chunks.size(); ++i) {
        const std::size_t c = chunks[i].second;
        const std::size_t end = c + 1 < chunkStarts.size()
                                    ? chunkStarts[c + 1]
                                    : untracedEnd;
        pooled.insert(pooled.end(),
                      restartMs.begin() +
                          static_cast<std::ptrdiff_t>(chunkStarts[c]),
                      restartMs.begin() + static_cast<std::ptrdiff_t>(end));
    }
    const auto reps = static_cast<double>(restartMs.size());
    out.num("restart_reps", static_cast<double>(pooled.size()));
    out.num("restart_p50_ms", quantile(pooled, 0.5));
    out.num("restart_p99_ms", quantile(pooled, 0.99));
    out.num("cache.campaign_load_us", campaignLoadUs / reps);
    out.num("cache.model_load_us", modelLoadUs / reps);
    out.num("cache.bytes_read", static_cast<double>(restartBytes) / reps);
    out.num("cache.misses", static_cast<double>(restartMisses));

    service.drain();

    out.num("attempted", static_cast<double>(attempted));
    out.num("failed", static_cast<double>(failed));
    out.num("wrong", static_cast<double>(wrong));
    out.num("rss_mb", peakRssMb());
    if (gTracing && !o.traceOut.empty() &&
        !gTracer.writeChromeTrace(o.traceOut)) {
        std::fprintf(stderr, "cannot write %s\n", o.traceOut.c_str());
        return 1;
    }
    std::printf("%s\n", out.text().c_str());
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options options;
    if (!parseOptions(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: mapp_perfbench cold|session [--cache-dir=D] "
                     "[--lanes=N] [--trace=0|1] [--trace-out=F] "
                     "[--seed=N] [--expect=F] [--mix=raw|member] "
                     "[--restart-seconds=S] [--low-seconds=S]\n");
        return 2;
    }
    try {
        return options.mode == "cold" ? runCold(options)
                                      : runSession(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mapp_perfbench: %s\n", e.what());
        return 1;
    }
}
