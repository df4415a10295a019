/** @file Tests for the prediction-provenance log, the tree's
 * audit hook (leaf ids) and the model-quality
 * monitor: ring semantics, sampling arithmetic, concurrent writers,
 * ground-truth annotation and the predictor integration end to end. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "obs/audit.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"
#include "predictor/quality.h"

namespace {

using namespace mapp;

obs::PredictionRecord
makeRecord(std::uint64_t seq, double predicted)
{
    obs::PredictionRecord r;
    r.seq = seq;
    r.model = "test";
    r.features = {1.0, 2.0};
    r.predictedSeconds = predicted;
    r.pathSummary = "x<=1";
    return r;
}

// ---------------------------------------------------------------------------
// PredictionLog core semantics

TEST(PredictionLog, DisabledByDefaultAndTogglable)
{
    obs::PredictionLog log(8);
    EXPECT_FALSE(log.enabled());
    log.setEnabled(true);
    EXPECT_TRUE(log.enabled());
    log.setEnabled(false);
    EXPECT_FALSE(log.enabled());
}

TEST(PredictionLog, SamplePeriodValidation)
{
    obs::PredictionLog log(8);
    EXPECT_EQ(log.samplePeriod(), 1u);
    log.setSamplePeriod(100);
    EXPECT_EQ(log.samplePeriod(), 100u);
    EXPECT_THROW(log.setSamplePeriod(0), FatalError);
    EXPECT_EQ(log.samplePeriod(), 100u);  // unchanged after the throw
}

TEST(PredictionLog, ReserveHandsOutConsecutiveRanges)
{
    obs::PredictionLog log(8);
    EXPECT_EQ(log.reserve(5), 0u);
    EXPECT_EQ(log.reserve(3), 5u);
    EXPECT_EQ(log.reserve(1), 8u);
    EXPECT_EQ(log.totalSeen(), 9u);
}

TEST(PredictionLog, SampledMatchesPeriodArithmetic)
{
    obs::PredictionLog log(8);
    log.setSamplePeriod(4);
    int hits = 0;
    for (std::uint64_t seq = 0; seq < 100; ++seq)
        hits += log.sampled(seq) ? 1 : 0;
    EXPECT_EQ(hits, 25);
    EXPECT_TRUE(log.sampled(0));
    EXPECT_FALSE(log.sampled(1));
}

TEST(PredictionLog, RingKeepsNewestOldestFirst)
{
    obs::PredictionLog log(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        log.record(makeRecord(i, static_cast<double>(i)));

    EXPECT_EQ(log.totalRecorded(), 10u);
    const auto records = log.snapshot();
    ASSERT_EQ(records.size(), 4u);
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i].seq, 6u + i);  // oldest retained first
}

TEST(PredictionLog, RecordInPlaceFillsResetSlot)
{
    obs::PredictionLog log(2);
    // Fill past capacity so in-place records hit recycled slots.
    for (std::uint64_t i = 0; i < 5; ++i) {
        log.recordInPlace([&](obs::PredictionRecord& r) {
            r.seq = i;
            r.model.assign("inplace");
            r.features.assign({static_cast<double>(i)});
            r.predictedSeconds = 2.0 * static_cast<double>(i);
        });
    }
    const auto records = log.snapshot();
    ASSERT_EQ(records.size(), 2u);
    for (const auto& r : records) {
        EXPECT_EQ(r.model, "inplace");
        ASSERT_EQ(r.features.size(), 1u);  // recycled buffer was reset
        EXPECT_DOUBLE_EQ(r.features[0], static_cast<double>(r.seq));
        EXPECT_FALSE(r.hasActual());  // NaN until annotated
    }
}

TEST(PredictionLog, RecordChunkInPlaceWritesEveryId)
{
    obs::PredictionLog log(16);
    const std::vector<std::uint64_t> ids{0, 100, 200};
    log.recordChunkInPlace(ids, [](std::uint64_t id,
                                   obs::PredictionRecord& r) {
        r.seq = id;
        r.predictedSeconds = static_cast<double>(id) * 0.5;
    });
    log.recordChunkInPlace({}, [](std::uint64_t, obs::PredictionRecord&) {
        FAIL() << "fill must not run for an empty chunk";
    });

    EXPECT_EQ(log.totalRecorded(), 3u);
    const auto records = log.snapshot();
    ASSERT_EQ(records.size(), 3u);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(records[i].seq, ids[i]);
        EXPECT_DOUBLE_EQ(records[i].predictedSeconds,
                         static_cast<double>(ids[i]) * 0.5);
    }
}

TEST(PredictionLog, AnnotateAttachesGroundTruthBySeq)
{
    obs::PredictionLog log(8);
    for (std::uint64_t i = 0; i < 8; ++i)
        log.record(makeRecord(i, 0.0));

    const std::vector<double> actuals{10.0, 11.0, 12.0};
    log.annotate(3, actuals);

    for (const auto& r : log.snapshot()) {
        if (r.seq >= 3 && r.seq < 6) {
            ASSERT_TRUE(r.hasActual()) << "seq " << r.seq;
            EXPECT_DOUBLE_EQ(r.actualSeconds,
                             actuals[static_cast<std::size_t>(r.seq - 3)]);
        } else {
            EXPECT_FALSE(r.hasActual()) << "seq " << r.seq;
        }
    }
}

TEST(PredictionLog, ClearResetsSequenceAndRecords)
{
    obs::PredictionLog log(4);
    log.reserve(7);
    log.record(makeRecord(0, 1.0));
    log.clear();
    EXPECT_EQ(log.totalSeen(), 0u);
    EXPECT_EQ(log.totalRecorded(), 0u);
    EXPECT_TRUE(log.snapshot().empty());
    EXPECT_EQ(log.reserve(1), 0u);
}

TEST(PredictionLog, JsonlLinesParseAndRoundTripFields)
{
    obs::PredictionLog log(4);
    auto r = makeRecord(42, 1.25);
    r.uncertaintySeconds = 0.5;
    r.actualSeconds = 1.5;
    log.record(r);
    log.record(makeRecord(43, 2.0));  // actual stays NaN -> null

    std::istringstream lines(log.toJsonl());
    std::string line;
    int n = 0;
    while (std::getline(lines, line)) {
        const auto doc = obs::parseJson(line, "jsonl");
        ASSERT_TRUE(doc.ok()) << doc.error().message();
        ASSERT_TRUE(doc.value().isObject());
        if (n == 0) {
            EXPECT_DOUBLE_EQ(doc.value().find("seq")->number(), 42.0);
            EXPECT_DOUBLE_EQ(doc.value().find("actual_s")->number(), 1.5);
            EXPECT_EQ(doc.value().find("path")->text(), "x<=1");
            EXPECT_EQ(doc.value().find("features")->items().size(), 2u);
        } else {
            EXPECT_TRUE(doc.value().find("actual_s")->isNull());
        }
        ++n;
    }
    EXPECT_EQ(n, 2);
}

// ---------------------------------------------------------------------------
// Concurrency: the log is fed from parallel fold evaluation.

TEST(PredictionLog, ConcurrentWritersLoseNothing)
{
    obs::PredictionLog log(obs::kDefaultPredictionLogCapacity);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&log, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const std::uint64_t seq = log.reserve(1);
                if (i % 2 == 0) {
                    log.record(makeRecord(seq, static_cast<double>(t)));
                } else {
                    log.recordInPlace([&](obs::PredictionRecord& r) {
                        r.seq = seq;
                        r.model.assign("thread");
                        r.predictedSeconds = static_cast<double>(t);
                    });
                }
            }
        });
    }
    for (auto& t : threads)
        t.join();

    EXPECT_EQ(log.totalSeen(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(log.totalRecorded(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    const auto records = log.snapshot();
    EXPECT_EQ(records.size(), log.capacity());
    for (const auto& r : records)
        EXPECT_LT(r.seq, static_cast<std::uint64_t>(kThreads) *
                             kPerThread);
}

// ---------------------------------------------------------------------------
// Tree audit hooks

TEST(TreeAudit, PredictLeafAgreesWithPrediction)
{
    ml::Dataset data({"x"});
    for (int i = 0; i < 32; ++i)
        data.addRow({static_cast<double>(i)}, i < 16 ? 1.0 : 3.0);

    ml::DecisionTreeRegressor tree;
    tree.fit(data);

    for (double x : {0.0, 7.5, 15.0, 16.0, 31.0}) {
        const std::vector<double> row{x};
        const auto leaf = tree.predictLeaf(row);
        ASSERT_GE(leaf, 0);
        ASSERT_LT(static_cast<std::size_t>(leaf), tree.nodeCount());
        // The leaf id keys the source tree's node table.
        const auto view =
            tree.nodeView(static_cast<std::size_t>(leaf));
        EXPECT_TRUE(view.leaf);
        EXPECT_DOUBLE_EQ(view.value, tree.predict(row));
    }
}

// ---------------------------------------------------------------------------
// Model-quality monitor

TEST(ModelQualityMonitor, ObservePairsSkipsUnusableActuals)
{
    predictor::ModelQualityMonitor monitor;
    const std::vector<double> actual{2.0, 0.0, -1.0,
                                     std::nan(""), 4.0};
    const std::vector<double> predicted{2.2, 1.0, 1.0, 1.0, 3.0};
    monitor.observePairs(actual, predicted);
    // Only the strictly positive, finite actuals count.
    EXPECT_EQ(monitor.pairsSeen(), 2u);
}

TEST(ModelQualityMonitor, DriftFlagsRankWorstFirst)
{
    predictor::ModelQualityMonitor monitor;
    const std::vector<std::string> names{"a", "b"};
    const std::vector<double> lo{0.0, 0.0};
    const std::vector<double> hi{1.0, 1.0};
    // "a" drifts on every row, "b" on half of them.
    const std::vector<double> row1{2.0, 2.0};
    const std::vector<double> row2{2.0, 0.5};
    monitor.observeFeatureRow(row1, lo, hi, names);
    monitor.observeFeatureRow(row2, lo, hi, names);

    const auto flags = monitor.driftFlags(0.01);
    ASSERT_EQ(flags.size(), 2u);
    EXPECT_EQ(flags[0].feature, "a");
    EXPECT_DOUBLE_EQ(flags[0].outOfRangeFraction, 1.0);
    EXPECT_EQ(flags[1].feature, "b");
    EXPECT_DOUBLE_EQ(flags[1].outOfRangeFraction, 0.5);
    EXPECT_EQ(flags[0].rowsSeen, 2u);

    // In-range rows never flag.
    EXPECT_TRUE(monitor.driftFlags(1.5).empty());

    monitor.reset();
    EXPECT_TRUE(monitor.driftFlags(0.0).empty());
    EXPECT_EQ(monitor.pairsSeen(), 0u);
}

// ---------------------------------------------------------------------------
// Predictor integration: audit records and quality telemetry flow out
// of the real predict paths.

const std::vector<predictor::DataPoint>&
tinyCampaign()
{
    static const std::vector<predictor::DataPoint> points = [] {
        predictor::DataCollector collector;
        std::vector<predictor::BagSpec> specs;
        const auto ids = vision::kAllBenchmarks;
        for (std::size_t i = 0; i < 4; ++i)
            for (std::size_t j = i; j < 4; ++j)
                specs.push_back(predictor::BagSpec{{ids[i], 20},
                                                   {ids[j], 20}});
        return collector.collectAll(specs);
    }();
    return points;
}

TEST(PredictorAudit, DatasetPredictionsAreAuditedAndAnnotated)
{
    predictor::MultiAppPredictor model;
    model.train(tinyCampaign());

    auto& log = obs::predictionLog();
    log.clear();
    log.setSamplePeriod(1);
    log.setEnabled(true);

    const auto evalSet = predictor::toDataset(tinyCampaign());
    const auto predictions = model.predictDataset(evalSet);
    const std::uint64_t recorded = log.totalRecorded();
    EXPECT_EQ(recorded, evalSet.size());

    const std::uint64_t pairsBefore =
        predictor::ModelQualityMonitor::global().pairsSeen();
    model.observeGroundTruth(evalSet, predictions);
    log.setEnabled(false);

    EXPECT_GT(predictor::ModelQualityMonitor::global().pairsSeen(),
              pairsBefore);

    const auto records = log.snapshot();
    ASSERT_FALSE(records.empty());
    std::size_t annotated = 0;
    for (const auto& r : records) {
        EXPECT_EQ(r.model, "dataset");
        EXPECT_EQ(r.features.size(), evalSet.numFeatures());
        EXPECT_TRUE(std::isfinite(r.predictedSeconds));
        EXPECT_FALSE(r.pathSummary.empty());
        annotated += r.hasActual() ? 1 : 0;
    }
    // Ground truth for the whole batch was attached.
    EXPECT_EQ(annotated, records.size());

    // The quality monitor published into the default registry.
    const auto snap = obs::defaultRegistry().snapshot();
    ASSERT_NE(snap.findHistogram("predictor.error.abs_pct"), nullptr);
    EXPECT_GT(snap.findHistogram("predictor.error.abs_pct")->count, 0u);
    ASSERT_NE(snap.findGauge("predictor.quality.mape_pct"), nullptr);
}

TEST(PredictorAudit, SinglePredictionSampledAtPeriodOne)
{
    predictor::MultiAppPredictor model;
    model.train(tinyCampaign());

    auto& log = obs::predictionLog();
    log.clear();
    log.setSamplePeriod(1);
    log.setEnabled(true);
    const auto& p = tinyCampaign().front();
    const double out = model.predict(p);
    log.setEnabled(false);

    const auto records = log.snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].model, "single");
    EXPECT_DOUBLE_EQ(records[0].predictedSeconds, out);
    EXPECT_GE(records[0].uncertaintySeconds, 0.0);

    // The explain() view agrees with the audited provenance.
    const auto explanation = model.explain(p);
    EXPECT_DOUBLE_EQ(explanation.predictedSeconds, out);
    EXPECT_EQ(explanation.pathSummary, records[0].pathSummary);
}

}  // namespace
