/** @file Behaviour fingerprint (`ctest -L golden`): pins, bit for bit,
 * each of the 45 profiled workload traces, the float outputs of the
 * vision primitives whose bits a trace cannot see (gradient magnitude
 * and orientation, HoG and SIFT descriptors), the Table-IV campaign
 * dataset, the fitted default tree, its 91 predictions, the two
 * headline LOOCV means, Section V-D's SVR LOOCV mean, the answers
 * the serve front end gives to a fixed list of request lines and the
 * model's explanations, decision paths, audit records and quality
 * telemetry. A
 * refactor that claims to change no behaviour proves it by leaving
 * every pin green. The suite is registered at MAPP_THREADS=1 and =4
 * because every figure must be identical at any lane count. A change
 * that moves behaviour on purpose updates the pin here and says why in
 * EXPERIMENTS.md. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "cache/hash.h"
#include "common/parallel.h"
#include "isa/trace_binary.h"
#include "ml/dataset_binary.h"
#include "ml/metrics.h"
#include "ml/model_binary.h"
#include "ml/svr.h"
#include "obs/audit.h"
#include "predictor/data_collection.h"
#include "predictor/decision_analysis.h"
#include "predictor/predictor.h"
#include "predictor/quality.h"
#include "predictor/schemes.h"
#include "serve/server.h"
#include "serve/service.h"
#include "vision/hog.h"
#include "vision/objrec.h"
#include "vision/ops.h"
#include "vision/registry.h"
#include "vision/sift.h"

namespace {

using namespace mapp;

// ml::hashDataset of toDataset(collectAll(campaign91())).
constexpr std::uint64_t kCampaignHash = 0xbd017af8c777bf72ull;
// Hasher digest of treeToBinary(default-params model's tree).
constexpr std::uint64_t kTreeBinaryHash = 0xe55a41e2fbe03317ull;
// Hasher digest of the 91 predictDataset outputs (seconds).
constexpr std::uint64_t kPredictionsHash = 0x023d091a8b2c14f5ull;
// Bit patterns of the leave-one-benchmark-out mean relative errors.
constexpr std::uint64_t kLoocvFullBits = 0x403276645261d52full;    // 18.4625 %
constexpr std::uint64_t kLoocvInsmixBits = 0x4075f5b281112d89ull;  // 351.356 %
// Bit pattern of the default SVR's leave-one-benchmark-out mean
// relative error on the range-normalized full vector (Section V-D).
constexpr std::uint64_t kSvrLoocvBits = 0x407387995d55b1ccull;  // 312.475 %
// Hasher digest of the predicted_seconds bits of the serve answers to
// servedLines(), in id order.
constexpr std::uint64_t kServeAnswersHash = 0xb884b3044cb16f94ull;
// Hasher digest of explain() over the 91 campaign points: the
// predicted and uncertainty bits and the path summary of each.
constexpr std::uint64_t kExplanationsHash = 0x8d9903fe2af0d65dull;
// Hasher digest of analyzeDecisionPaths(campaign, defaults, all nine
// benchmarks): every point's label and counts, then presence, mean
// and max per feature.
constexpr std::uint64_t kDecisionPathsHash = 0xe3f567bbf41a0d94ull;
// Order-free digest of the audit records one full-scheme LOOCV writes
// at sample period 1: features, path summary and actual seconds.
constexpr std::uint64_t kLoocvAuditHash = 0x1585c35bbcf438faull;
// Hasher digest of the quality monitor after that LOOCV (from reset):
// pairsSeen() and every driftFlags(0.0) entry.
constexpr std::uint64_t kLoocvQualityHash = 0xa0cf24e149d164dcull;

/** Hasher digest of traceToBinary(profileWorkload(benchmark, batch)). */
struct TracePin
{
    const char* benchmark;
    int batch;
    std::uint64_t digest;
};

constexpr TracePin kTracePins[] = {
    {"FAST", 20, 0xf435b536cb972628ull},
    {"FAST", 40, 0x78b08621d3db443bull},
    {"FAST", 80, 0x228953983971deb7ull},
    {"FAST", 160, 0x192fccc503a389d2ull},
    {"FAST", 320, 0xf3d4fa601056269eull},
    {"HoG", 20, 0xc677b40bc6c350d3ull},
    {"HoG", 40, 0xe71676ac93f1fa0cull},
    {"HoG", 80, 0x9f7b3a65264722c6ull},
    {"HoG", 160, 0x6a210d6d870d849full},
    {"HoG", 320, 0xfed729bc27a6e3f7ull},
    {"KNN", 20, 0x7ea569f2630339f0ull},
    {"KNN", 40, 0xed98f252e75b9661ull},
    {"KNN", 80, 0xde4ddaa569324f3bull},
    {"KNN", 160, 0x35fea3b92fe47304ull},
    {"KNN", 320, 0x8b873545be5b297aull},
    {"OBJREC", 20, 0x3fa68d4c19a13f1eull},
    {"OBJREC", 40, 0xec54261ed567d60full},
    {"OBJREC", 80, 0xb5b71cf809d4c92cull},
    {"OBJREC", 160, 0xb5128c480f91154bull},
    {"OBJREC", 320, 0x36dd5e05d1f9d5baull},
    {"ORB", 20, 0x0055cab111c50f3cull},
    {"ORB", 40, 0xc6a445f0fa5931a0ull},
    {"ORB", 80, 0xb9319fc157d8d506ull},
    {"ORB", 160, 0x977ee2ab0eb834a1ull},
    {"ORB", 320, 0x3b9c5f113626cd62ull},
    {"SIFT", 20, 0x16e75a62a17f0d8eull},
    {"SIFT", 40, 0x698c7c0fd3dc54a8ull},
    {"SIFT", 80, 0x0c7e5c48af05b8d7ull},
    {"SIFT", 160, 0x3f7655674eae0847ull},
    {"SIFT", 320, 0x6233a522889b9173ull},
    {"SURF", 20, 0x64a682dcd0b535caull},
    {"SURF", 40, 0xbd55fb543d6621d7ull},
    {"SURF", 80, 0x361a99cefc773a4bull},
    {"SURF", 160, 0x0bf847703ece9851ull},
    {"SURF", 320, 0xb7b0ffba75bed616ull},
    {"SVM", 20, 0x070e3ad35700d120ull},
    {"SVM", 40, 0xe42e8848cca0da4eull},
    {"SVM", 80, 0x28f4fb48a4c9861dull},
    {"SVM", 160, 0xb573f50cb440a601ull},
    {"SVM", 320, 0x0bff246657514a4eull},
    {"FACEDET", 20, 0xcf47c9c7619f8464ull},
    {"FACEDET", 40, 0x7a2c3ee228c81cceull},
    {"FACEDET", 80, 0xf36232d15dddd7b6ull},
    {"FACEDET", 160, 0x032163dc8b9e5478ull},
    {"FACEDET", 320, 0x3e7e859454a258b7ull},
};

/** Traces the campaign grid never reaches: batches the per-image
 * sampler does not take (at most kSampleImages, or not a multiple of
 * it) and odd training-style batches. They cover the paths the grid
 * pins only see through scaling. */
constexpr TracePin kOffGridTracePins[] = {
    {"SIFT", 6, 0x5667be9d60812a09ull},
    {"FACEDET", 7, 0x3c998bb55bccae12ull},
    {"HoG", 3, 0x038db0cb2fe16fa8ull},
    {"KNN", 5, 0x0e12f4de180fcfc0ull},
    {"OBJREC", 1, 0x3a42881103b1652full},
    {"SVM", 3, 0x69b9cd3de5fbe1ccull},
};

/** Hasher digests of vision outputs over the first kPinnedImages images
 * of the campaign's OBJREC batch at size 20. A trace records only
 * instruction counts, so these pins are what sees an orientation or
 * descriptor bit move. */
constexpr int kPinnedImages = 4;
constexpr std::uint64_t kPolarMagHash = 0xbdd05e63ad55ed8eull;
constexpr std::uint64_t kPolarOrientHash = 0x6a995b515e64f323ull;
constexpr std::uint64_t kHogObjRecHash = 0x774b738f54b63ac1ull;
constexpr std::uint64_t kHogDefaultHash = 0x6aed5834a4747c68ull;
constexpr std::uint64_t kSiftHash = 0x87a0774cf929a223ull;

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The collector behind the campaign; serve resolves members with it. */
predictor::DataCollector&
collector()
{
    static predictor::DataCollector instance;
    return instance;
}

/** The campaign's 91 measured bags, collected once per process. */
const std::vector<predictor::DataPoint>&
campaignPoints()
{
    static const std::vector<predictor::DataPoint> points =
        collector().collectAll(predictor::DataCollector::campaign91());
    return points;
}

/** The campaign dataset. */
const ml::Dataset&
campaign()
{
    static const ml::Dataset data = predictor::toDataset(campaignPoints());
    return data;
}

/** The default-params predictor fitted on the whole campaign. */
const predictor::MultiAppPredictor&
model()
{
    static const predictor::MultiAppPredictor fitted = [] {
        predictor::MultiAppPredictor m;
        m.train(campaign());
        return m;
    }();
    return fitted;
}

/** The pinned images: the head of the stream profileWorkload feeds
 * OBJREC@20 (default seed 0, folded with the batch size). */
const std::vector<vision::Image>&
pinnedImages()
{
    static const std::vector<vision::Image> images = [] {
        constexpr int batch = 20;
        vision::ImageStream stream(
            vision::BenchmarkId::ObjRec, batch,
            static_cast<std::uint64_t>(batch) * 31ull);
        std::vector<vision::Image> head;
        for (int i = 0; i < kPinnedImages; ++i)
            head.push_back(stream.next());
        return head;
    }();
    return images;
}

/** Fold each float's bit pattern (not its value) into h. */
void
addBits(cache::Hasher& h, std::span<const float> values)
{
    h.add(static_cast<std::uint64_t>(values.size()));
    for (float v : values)
        h.add(static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(v)));
}

std::uint64_t
hogDigest(const vision::HogParams& params)
{
    cache::Hasher h;
    for (const auto& img : pinnedImages())
        addBits(h, vision::computeHog(img, params));
    return h.digest();
}

/** The nine benchmark names, in the paper's order. */
std::vector<std::string>
benchmarkNames()
{
    std::vector<std::string> names;
    for (auto id : vision::kAllBenchmarks)
        names.push_back(vision::benchmarkName(id));
    return names;
}

double
loocvMean(const predictor::PredictorParams& params)
{
    return predictor::MultiAppPredictor::looBenchmarkCv(
               campaign(), params, benchmarkNames())
        .meanRelativeError();
}

/** bench_svr_vs_dtree's SVR column: per fold, a RangeNormalizer fit on
 * the training benchmarks' full vector and a default SvrRegressor; the
 * mean of the per-benchmark mean relative errors. */
double
svrLoocvMean()
{
    const auto scheme = predictor::fullScheme();
    double errSum = 0.0;
    int folds = 0;
    for (auto id : vision::kAllBenchmarks) {
        auto [train, test] = predictor::splitOutBenchmark(
            campaign(), vision::benchmarkName(id));
        if (train.empty() || test.empty())
            continue;
        const auto trainProj = train.selectFeatures(scheme.featureNames());
        const auto testProj = test.selectFeatures(scheme.featureNames());
        predictor::RangeNormalizer norm;
        norm.fit(trainProj);
        const auto trainNorm = norm.apply(trainProj);
        const auto testNorm = norm.apply(testProj);
        ml::SvrRegressor model;
        model.fit(trainNorm);
        errSum += ml::meanRelativeErrorPercent(testNorm.targets(),
                                               model.predict(testNorm));
        ++folds;
    }
    return folds ? errSum / folds : 0.0;
}

/** @p v in the %.17g spelling the protocol round-trips exactly. */
std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** One app as a raw-feature protocol object. */
std::string
rawApp(const predictor::AppFeatures& app)
{
    std::string json = R"({"cpu_time":)" + exact(app.cpuTime) +
                       R"(,"gpu_time":)" + exact(app.gpuTime) +
                       R"(,"mix":[)";
    for (std::size_t i = 0; i < app.mixPercent.size(); ++i)
        json += (i == 0 ? "" : ",") + exact(app.mixPercent[i]);
    return json + "]}";
}

/** One campaign row as a raw-feature query (no op or id). */
std::string
rawQuery(const predictor::DataPoint& p)
{
    return R"("a":)" + rawApp(p.a) + R"(,"b":)" + rawApp(p.b) +
           R"(,"fairness":)" + exact(p.fairness);
}

/** The pinned request lines: raw predicts of every tenth campaign row,
 * one 8-query predict_batch, and member-form predicts of cheap
 * campaign bags (one named in reverse order). */
std::vector<std::string>
servedLines()
{
    const auto& points = campaignPoints();
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < points.size(); i += 10)
        lines.push_back(R"({"op":"predict","id":"raw)" +
                        std::to_string(100 + i) + R"(",)" +
                        rawQuery(points[i]) + "}");
    std::string batch = R"({"op":"predict_batch","id":"batch","queries":[)";
    for (std::size_t i = 0; i < 8; ++i)
        batch += (i == 0 ? "{" : ",{") + rawQuery(points[5 + 11 * i]) + "}";
    lines.push_back(batch + "]}");
    const char* bags[][2] = {
        {"FAST@20", "HoG@20"},
        {"ORB@20", "SURF@20"},
        {"FACEDET@20", "FAST@20"},
    };
    for (std::size_t i = 0; i < std::size(bags); ++i)
        lines.push_back(R"({"op":"predict","id":"member)" +
                        std::to_string(i) + R"(","a":")" + bags[i][0] +
                        R"(","b":")" + bags[i][1] + R"("})");
    return lines;
}

/** Profile every pinned member (in parallel) and compare its trace
 * digest with the pin, naming the member on a mismatch. */
void
expectTraceDigests(std::span<const TracePin> pins)
{
    // profileWorkload, not cachedTrace: the pin covers the primitives
    // themselves, never a trace loaded from an artifact cache.
    std::vector<std::uint64_t> digests(pins.size());
    parallel::parallelFor(pins.size(), [&](std::size_t i) {
        const std::string blob = isa::traceToBinary(vision::profileWorkload(
            vision::benchmarkFromName(pins[i].benchmark), pins[i].batch));
        cache::Hasher h;
        h.add(std::string_view(blob));
        digests[i] = h.digest();
    });
    for (std::size_t i = 0; i < pins.size(); ++i)
        EXPECT_EQ(hex(pins[i].digest), hex(digests[i]))
            << pins[i].benchmark << "@" << pins[i].batch;
}

TEST(Golden, ProfiledTraceDigests)
{
    ASSERT_EQ(vision::kAllBenchmarks.size() * vision::kBatchSizes.size(),
              std::size(kTracePins));
    expectTraceDigests(kTracePins);
}

TEST(Golden, OffGridTraceDigests)
{
    expectTraceDigests(kOffGridTracePins);
}

TEST(Golden, GradientPolarBits)
{
    cache::Hasher mag_h;
    cache::Hasher orient_h;
    for (const auto& img : pinnedImages()) {
        vision::Image gx, gy, mag, orient;
        vision::ops::sobel(img, gx, gy);
        vision::ops::gradientPolar(gx, gy, mag, orient);
        addBits(mag_h, mag.data());
        addBits(orient_h, orient.data());
    }
    EXPECT_EQ(hex(kPolarMagHash), hex(mag_h.digest()));
    EXPECT_EQ(hex(kPolarOrientHash), hex(orient_h.digest()));
}

TEST(Golden, HogDescriptorBits)
{
    EXPECT_EQ(hex(kHogObjRecHash), hex(hogDigest(vision::ObjRecParams{}.hog)))
        << "ObjRec's HoG parameters";
    EXPECT_EQ(hex(kHogDefaultHash), hex(hogDigest(vision::HogParams{})))
        << "default HoG parameters";
}

TEST(Golden, SiftDescriptorBits)
{
    cache::Hasher h;
    for (const auto& img : pinnedImages()) {
        const auto result = vision::detectSift(img);
        h.add(static_cast<std::uint64_t>(result.descriptors.size()));
        for (const auto& d : result.descriptors)
            addBits(h, d);
    }
    EXPECT_EQ(hex(kSiftHash), hex(h.digest()));
}

TEST(Golden, CampaignDatasetHash)
{
    ASSERT_EQ(91u, campaign().size());
    cache::Hasher h;
    ml::hashDataset(h, campaign());
    EXPECT_EQ(hex(kCampaignHash), hex(h.digest()));
}

TEST(Golden, DefaultTreeModelBinary)
{
    const std::string blob = ml::treeToBinary(model().tree());
    cache::Hasher h;
    h.add(std::string_view(blob));
    EXPECT_EQ(hex(kTreeBinaryHash), hex(h.digest()));
}

TEST(Golden, PredictDatasetOutputs)
{
    const auto predictions = model().predictDataset(campaign());
    ASSERT_EQ(91u, predictions.size());
    cache::Hasher h;
    h.add(std::span<const double>(predictions));
    EXPECT_EQ(hex(kPredictionsHash), hex(h.digest()));
}

TEST(Golden, LoocvFullMean)
{
    const double mean = loocvMean(predictor::PredictorParams{});
    EXPECT_EQ(hex(kLoocvFullBits), hex(std::bit_cast<std::uint64_t>(mean)))
        << "mean " << mean;
}

TEST(Golden, LoocvInsmixMean)
{
    predictor::PredictorParams insmix;
    insmix.scheme = predictor::insmixScheme();
    const double mean = loocvMean(insmix);
    EXPECT_EQ(hex(kLoocvInsmixBits),
              hex(std::bit_cast<std::uint64_t>(mean)))
        << "mean " << mean;
}

TEST(Golden, SvrLoocvMean)
{
    const double mean = svrLoocvMean();
    EXPECT_EQ(hex(kSvrLoocvBits), hex(std::bit_cast<std::uint64_t>(mean)))
        << "mean " << mean;
}

TEST(Golden, ServeAnswers)
{
    serve::PredictionService service(
        std::make_shared<predictor::MultiAppPredictor>(model()));
    serve::Server server(service, collector());
    const auto lines = servedLines();

    std::mutex mutex;
    std::map<std::string, std::string> answers;  // id -> response
    for (const auto& line : lines)
        server.handleLine(line, [&](std::string response) {
            const auto from = response.find(R"("id":")") + 6;
            std::lock_guard<std::mutex> lock(mutex);
            answers[response.substr(from, response.find('"', from) - from)] =
                std::move(response);
        });
    service.drain();
    ASSERT_EQ(lines.size(), answers.size());

    // predicted_seconds bits only: queue_us is timing, not behaviour.
    cache::Hasher h;
    std::size_t rows = 0;
    for (const auto& [id, response] : answers) {
        ASSERT_NE(response.find(R"("ok":true)"), std::string::npos)
            << response;
        constexpr std::string_view key = R"("predicted_seconds":)";
        const char* at =
            response.c_str() + response.find(key) + key.size();
        const bool array = *at == '[';
        if (array)
            ++at;
        for (char* end = nullptr;; at = end + 1) {
            const double v = std::strtod(at, &end);
            h.add(std::bit_cast<std::uint64_t>(v));
            ++rows;
            if (!array || *end != ',')
                break;
        }
        h.add(std::string_view(id));
    }
    EXPECT_EQ(lines.size() - 1 + 8, rows);
    EXPECT_EQ(hex(kServeAnswersHash), hex(h.digest()));
}

TEST(Golden, ExplanationsAndDecisionPaths)
{
    cache::Hasher explain_h;
    for (const auto& point : campaignPoints()) {
        const auto e = model().explain(point);
        explain_h.add(std::bit_cast<std::uint64_t>(e.predictedSeconds));
        explain_h.add(std::bit_cast<std::uint64_t>(e.uncertaintySeconds));
        explain_h.add(std::string_view(e.pathSummary));
    }
    EXPECT_EQ(hex(kExplanationsHash), hex(explain_h.digest()));

    const auto stats = predictor::analyzeDecisionPaths(
        campaign(), predictor::PredictorParams{}, benchmarkNames());
    cache::Hasher paths_h;
    paths_h.add(static_cast<std::uint64_t>(stats.points.size()));
    for (const auto& point : stats.points) {
        paths_h.add(std::string_view(point.pointLabel));
        paths_h.add(static_cast<std::uint64_t>(point.counts.size()));
        for (const auto& [feature, count] : point.counts) {
            paths_h.add(std::string_view(feature));
            paths_h.add(static_cast<std::uint64_t>(count));
        }
    }
    for (const auto& feature : stats.features) {
        paths_h.add(std::string_view(feature));
        paths_h.add(std::bit_cast<std::uint64_t>(
            stats.presencePercent.at(feature)));
        paths_h.add(
            std::bit_cast<std::uint64_t>(stats.meanUsage.at(feature)));
        paths_h.add(static_cast<std::uint64_t>(stats.maxUsage.at(feature)));
    }
    EXPECT_EQ(hex(kDecisionPathsHash), hex(paths_h.digest()));

    // One full-scheme LOOCV with every prediction audited. Folds run
    // concurrently, so sequence ids interleave: the audit digest is
    // taken over the sorted per-record digests. The quality monitor
    // keeps integer counts, which fold order cannot move.
    auto& monitor = predictor::ModelQualityMonitor::global();
    auto& log = obs::predictionLog();
    const std::uint64_t period = log.samplePeriod();
    monitor.reset();
    log.clear();
    log.setSamplePeriod(1);
    log.setEnabled(true);
    predictor::MultiAppPredictor::looBenchmarkCv(
        campaign(), predictor::PredictorParams{}, benchmarkNames());
    log.setEnabled(false);
    log.setSamplePeriod(period);

    const auto records = log.snapshot();
    ASSERT_EQ(log.totalRecorded(), records.size()) << "ring evicted";
    std::vector<std::uint64_t> digests;
    for (const auto& r : records) {
        EXPECT_TRUE(r.hasActual()) << "record " << r.seq;
        cache::Hasher h;
        h.add(std::span<const double>(r.features));
        h.add(std::string_view(r.pathSummary));
        h.add(std::bit_cast<std::uint64_t>(r.actualSeconds));
        digests.push_back(h.digest());
    }
    log.clear();
    std::sort(digests.begin(), digests.end());
    cache::Hasher audit_h;
    audit_h.add(static_cast<std::uint64_t>(digests.size()));
    for (const std::uint64_t d : digests)
        audit_h.add(d);
    EXPECT_EQ(hex(kLoocvAuditHash), hex(audit_h.digest()))
        << records.size() << " records";

    cache::Hasher quality_h;
    quality_h.add(monitor.pairsSeen());
    for (const auto& flag : monitor.driftFlags(0.0)) {
        quality_h.add(std::string_view(flag.feature));
        quality_h.add(std::bit_cast<std::uint64_t>(flag.outOfRangeFraction));
        quality_h.add(flag.rowsSeen);
    }
    EXPECT_EQ(hex(kLoocvQualityHash), hex(quality_h.digest()))
        << monitor.pairsSeen() << " pairs";
}

}  // namespace
