/** @file Tests for the run-report pipeline: the sidecar JSON reader,
 * the Prometheus text exposition and the `mapp_cli report` markdown
 * renderer (metrics round trip, graceful degradation, located errors
 * on malformed sidecars). */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/audit.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/report.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace {

using namespace mapp;

std::string
writeTemp(const std::string& name, const std::string& content)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

// ---------------------------------------------------------------------------
// JSON reader

TEST(JsonReader, ParsesScalarsContainersAndEscapes)
{
    const auto doc = obs::parseJson(
        R"({"a": [1, -2.5e2, true, null], "s": "x\n\"y\""})", "t");
    ASSERT_TRUE(doc.ok());
    const auto& root = doc.value();
    ASSERT_TRUE(root.isObject());
    const auto* a = root.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items().size(), 4u);
    EXPECT_DOUBLE_EQ(a->items()[0].number(), 1.0);
    EXPECT_DOUBLE_EQ(a->items()[1].number(), -250.0);
    EXPECT_TRUE(a->items()[2].boolean());
    EXPECT_TRUE(a->items()[3].isNull());
    EXPECT_EQ(root.find("s")->text(), "x\n\"y\"");
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonReader, MalformedInputIsALocatedError)
{
    for (const char* bad : {"{", "[1,]", "\"open", "{\"a\" 1}",
                            "nulx", "1 trailing"}) {
        const auto doc = obs::parseJson(bad, "bad.json");
        EXPECT_FALSE(doc.ok()) << bad;
        if (!doc.ok())
            EXPECT_NE(doc.error().toString().find("bad.json"),
                      std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Prometheus, NameManglingAndPrefix)
{
    EXPECT_EQ(obs::prometheusName("ml.tree.fits"),
              "mapp_ml_tree_fits");
    EXPECT_EQ(obs::prometheusName("a-b c/d"), "mapp_a_b_c_d");
}

TEST(Prometheus, ExposesCountersGaugesAndCumulativeBuckets)
{
    obs::Registry reg;
    reg.counter("runs").add(3);
    reg.gauge("speed").set(1.5);
    auto& h = reg.histogram("lat", {1.0, 2.0});
    h.observe(0.5);
    h.observe(0.5);
    h.observe(1.5);
    h.observe(99.0);

    const std::string text = obs::writePrometheus(reg.snapshot());
    EXPECT_NE(text.find("# TYPE mapp_runs counter"),
              std::string::npos);
    EXPECT_NE(text.find("mapp_runs 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE mapp_speed gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE mapp_lat histogram"),
              std::string::npos);
    // Buckets are cumulative and close with +Inf == _count.
    EXPECT_NE(text.find("mapp_lat_bucket{le=\"1\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("mapp_lat_bucket{le=\"2\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("mapp_lat_bucket{le=\"+Inf\"} 4"),
              std::string::npos);
    EXPECT_NE(text.find("mapp_lat_count 4"), std::string::npos);
}

TEST(Prometheus, NonFiniteGaugesUseExpositionLiterals)
{
    obs::Registry reg;
    reg.gauge("bad").set(std::numeric_limits<double>::quiet_NaN());
    reg.gauge("up").set(std::numeric_limits<double>::infinity());
    const std::string text = obs::writePrometheus(reg.snapshot());
    EXPECT_NE(text.find("mapp_bad NaN"), std::string::npos);
    EXPECT_NE(text.find("mapp_up +Inf"), std::string::npos);
}

// The whole exposition, byte for byte. Any accidental format drift
// (ordering, spacing, TYPE lines, bucket math) breaks scrapers even
// when each piece still "looks right", so the document is pinned.
TEST(Prometheus, PinnedExposition)
{
    obs::Registry reg;
    reg.counter("runs").add(2);
    reg.gauge("queue.depth").set(1.5);
    auto& h = reg.histogram("wait", {1.0, 2.0});
    h.observe(0.5);
    h.observe(3.0);

    EXPECT_EQ(obs::writePrometheus(reg.snapshot()),
              "# TYPE mapp_runs counter\n"
              "mapp_runs 2\n"
              "# TYPE mapp_queue_depth gauge\n"
              "mapp_queue_depth 1.5\n"
              "# TYPE mapp_wait histogram\n"
              "mapp_wait_bucket{le=\"1\"} 1\n"
              "mapp_wait_bucket{le=\"2\"} 1\n"
              "mapp_wait_bucket{le=\"+Inf\"} 2\n"
              "mapp_wait_sum 3.5\n"
              "mapp_wait_count 2\n");
}

// Registry names sanitize many-to-one ("a.b" and "a-b" both become
// mapp_a_b); a duplicate metric name or second TYPE line invalidates
// the whole 0.0.4 exposition, so later collisions must be dropped
// (first wins) and surfaced as comments.
TEST(Prometheus, SanitizedNameCollisionsEmitOnce)
{
    obs::Registry reg;
    reg.counter("a.b").add(1);
    reg.counter("a-b").add(2);
    reg.gauge("a/b").set(9.0);  // collides across instrument kinds too

    const std::string text = obs::writePrometheus(reg.snapshot());
    std::size_t types = 0;
    for (std::size_t at = text.find("# TYPE mapp_a_b ");
         at != std::string::npos;
         at = text.find("# TYPE mapp_a_b ", at + 1))
        ++types;
    EXPECT_EQ(types, 1u);
    // Counters snapshot in sorted order, so "a-b" claims mapp_a_b.
    EXPECT_NE(text.find("mapp_a_b 2\n"), std::string::npos);
    EXPECT_EQ(text.find("mapp_a_b 1\n"), std::string::npos);
    EXPECT_EQ(text.find("mapp_a_b 9\n"), std::string::npos);
    EXPECT_NE(text.find("# mapp: skipped 'a.b'"), std::string::npos);
    EXPECT_NE(text.find("# mapp: skipped 'a/b'"), std::string::npos);
}

// Audit: every metric name the exposition emits — even from hostile
// registry names — matches the Prometheus 0.0.4 charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
TEST(Prometheus, EmittedNamesMatchExpositionCharset)
{
    obs::Registry reg;
    reg.counter("9starts.with digit").add(1);
    reg.gauge("weird-\xc3\xa9name!{}").set(2.0);
    reg.histogram("spaces and\ttabs", {1.0}).observe(0.5);

    const std::string text = obs::writePrometheus(reg.snapshot());
    std::istringstream lines(text);
    std::string line;
    std::size_t audited = 0;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::string name =
            line.substr(0, line.find_first_of(" {"));
        ASSERT_FALSE(name.empty()) << line;
        const auto head = static_cast<unsigned char>(name[0]);
        EXPECT_TRUE(std::isalpha(head) || name[0] == '_' ||
                    name[0] == ':')
            << line;
        for (const char c : name)
            EXPECT_TRUE(
                std::isalnum(static_cast<unsigned char>(c)) ||
                c == '_' || c == ':')
                << line;
        ++audited;
    }
    EXPECT_GE(audited, 6u);  // 1 counter + 1 gauge + 4 histogram lines
}

// ---------------------------------------------------------------------------
// Metrics snapshot round trip

TEST(Report, SnapshotFromJsonRoundTrips)
{
    obs::Registry reg;
    reg.counter("c.hits").add(7);
    reg.gauge("g.depth").set(-1.25);
    auto& h = reg.histogram("h.lat", {1.0, 4.0});
    h.observe(0.5);
    h.observe(8.0);

    const auto snap =
        obs::snapshotFromJson(reg.toJson(), "metrics.json");
    ASSERT_TRUE(snap.ok()) << snap.error().message();
    const auto& s = snap.value();
    ASSERT_NE(s.findCounter("c.hits"), nullptr);
    EXPECT_EQ(*s.findCounter("c.hits"), 7u);
    ASSERT_NE(s.findGauge("g.depth"), nullptr);
    EXPECT_DOUBLE_EQ(*s.findGauge("g.depth"), -1.25);
    const auto* hist = s.findHistogram("h.lat");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, 2u);
    EXPECT_DOUBLE_EQ(hist->sum, 8.5);
    ASSERT_EQ(hist->bounds.size(), 2u);
    ASSERT_EQ(hist->counts.size(), 3u);
    EXPECT_EQ(hist->counts[0], 1u);
    EXPECT_EQ(hist->counts[2], 1u);
}

TEST(Report, SnapshotFromJsonRejectsNonSidecarDocuments)
{
    EXPECT_FALSE(obs::snapshotFromJson("[]", "x").ok());
    EXPECT_FALSE(obs::snapshotFromJson("{\"histograms\": 3}", "x").ok());
    EXPECT_FALSE(obs::snapshotFromJson("{nope", "x").ok());
}

// ---------------------------------------------------------------------------
// The full report renderer

TEST(Report, RendersAllSectionsFromSidecars)
{
    // Metrics sidecar with a latency histogram, quality metrics and a
    // drift gauge over the flag threshold.
    obs::Registry reg;
    reg.histogram("predict.batch.seconds", {0.001, 0.01, 0.1})
        .observe(0.004);
    reg.histogram("predictor.error.abs_pct", {5.0, 10.0, 20.0})
        .observe(7.0);
    reg.gauge("predictor.quality.mape_pct").set(7.0);
    reg.counter("predictor.quality.pairs").add(1);
    reg.gauge("predictor.drift.oor_frac.a0_gpu_time").set(0.25);
    const std::string metrics =
        writeTemp("report_metrics.json", reg.toJson());

    // Prediction JSONL: one annotated high-error record plus one line
    // of garbage that must be skipped, not fatal.
    obs::PredictionLog log(8);
    log.recordInPlace([](obs::PredictionRecord& r) {
        r.seq = 3;
        r.model.assign("dataset");
        r.features.assign({0.5, 0.25});
        r.predictedSeconds = 2.0;
        r.uncertaintySeconds = 0.1;
        r.pathSummary.assign("a0_gpu_time>1.5");
        r.actualSeconds = 1.0;
    });
    const std::string predictions = writeTemp(
        "report_predictions.jsonl", log.toJsonl() + "not json\n");

    // Trace sidecar: two nested pipeline spans.
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.completeEvent("campaign-collection", "pipeline", 0.0,
                         1000.0, obs::kPipelineTrackPid, 0);
    tracer.completeEvent("feature-extraction", "pipeline", 100.0,
                         200.0, obs::kPipelineTrackPid, 0);
    const std::string trace =
        writeTemp("report_trace.json", tracer.chromeTraceJson());

    const auto report = obs::renderRunReport(
        obs::RunReportInputs{metrics, predictions, trace});
    ASSERT_TRUE(report.ok()) << report.error().message();
    const std::string& text = report.value();

    EXPECT_NE(text.find("# MAPP run report"), std::string::npos);
    EXPECT_NE(text.find("## Phase tree"), std::string::npos);
    EXPECT_NE(text.find("campaign-collection"), std::string::npos);
    // feature-extraction nests under campaign-collection.
    EXPECT_NE(text.find("  - `feature-extraction`"),
              std::string::npos);
    EXPECT_NE(text.find("## Latency percentiles"), std::string::npos);
    EXPECT_NE(text.find("predict.batch.seconds"), std::string::npos);
    EXPECT_NE(text.find("## Prediction quality"), std::string::npos);
    EXPECT_NE(text.find("## Top-error predictions"),
              std::string::npos);
    EXPECT_NE(text.find("a0_gpu_time>1.5"), std::string::npos);
    EXPECT_NE(text.find("## Drift flags"), std::string::npos);
    EXPECT_NE(text.find("a0_gpu_time"), std::string::npos);
    EXPECT_NE(text.find("## Counters"), std::string::npos);
    EXPECT_NE(text.find("1 malformed lines skipped"),
              std::string::npos);

    std::remove(metrics.c_str());
    std::remove(predictions.c_str());
    std::remove(trace.c_str());
}

TEST(Report, OverlappingSpansOnDifferentTidsDoNotNest)
{
    // Two lanes profile at once: the worker's feature-extraction span
    // lies inside the main thread's in time, but belongs to another
    // thread, so it must not nest there (nor count twice).
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.completeEvent("campaign-collection", "pipeline", 0.0, 1000.0,
                         obs::kPipelineTrackPid, 0);
    tracer.completeEvent("feature-extraction", "pipeline", 100.0, 400.0,
                         obs::kPipelineTrackPid, 0);
    tracer.completeEvent("feature-extraction", "pipeline", 150.0, 200.0,
                         obs::kPipelineTrackPid, 1);
    const std::string trace =
        writeTemp("report_trace_tids.json", tracer.chromeTraceJson());
    obs::Registry reg;
    reg.counter("runs").add(1);
    const std::string metrics =
        writeTemp("report_metrics_tids.json", reg.toJson());

    const auto report =
        obs::renderRunReport(obs::RunReportInputs{metrics, "", trace});
    ASSERT_TRUE(report.ok()) << report.error().message();
    const std::string& text = report.value();
    EXPECT_NE(text.find("\n- `campaign-collection`"), std::string::npos);
    EXPECT_NE(text.find("\n  - `feature-extraction` — 0.400 ms ×1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\n- `feature-extraction` — 0.200 ms ×1"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("\n    - `feature-extraction`"), std::string::npos)
        << text;
    std::remove(metrics.c_str());
    std::remove(trace.c_str());
}

TEST(Report, PipelineSpansCarryTheirThreadsTid)
{
    obs::Tracer& tr = obs::tracer();
    const bool wasEnabled = tr.enabled();
    tr.setEnabled(true);
    tr.clear();
    obs::PhaseProfiler profiler;
    auto phase = [&] { obs::ScopedPhase p(profiler, "tid-probe"); };
    std::thread first(phase);
    first.join();
    std::thread second(phase);
    second.join();

    std::set<int> spanTids;
    std::set<int> namedTids;
    for (const auto& e : tr.snapshot()) {
        if (e.pid != obs::kPipelineTrackPid)
            continue;
        if (e.kind == obs::TraceEventKind::Complete && e.name == "tid-probe")
            spanTids.insert(e.tid);
        if (e.kind == obs::TraceEventKind::Metadata &&
            e.name == "thread_name")
            namedTids.insert(e.tid);
    }
    tr.clear();
    tr.setEnabled(wasEnabled);
    ASSERT_EQ(spanTids.size(), 2u);  // one track per thread
    for (int tid : spanTids)
        EXPECT_EQ(namedTids.count(tid), 1u) << "tid " << tid;
}

TEST(Report, ScopedPhaseArgsReachTheSpan)
{
    obs::Tracer& tr = obs::tracer();
    const bool wasEnabled = tr.enabled();
    tr.setEnabled(true);
    tr.clear();
    obs::PhaseProfiler profiler;
    {
        const obs::ScopedPhase p(profiler, "feature-extraction",
                                 {obs::TraceArg::str("member", "SIFT@40")});
    }
    std::vector<obs::TraceArg> args;
    for (const auto& e : tr.snapshot())
        if (e.kind == obs::TraceEventKind::Complete &&
            e.name == "feature-extraction")
            args = e.args;
    tr.clear();
    tr.setEnabled(wasEnabled);
    ASSERT_EQ(args.size(), 1u);
    EXPECT_EQ(args[0].key, "member");
    EXPECT_EQ(args[0].text, "SIFT@40");
}

TEST(Report, ListsTheCostliestMembers)
{
    // Member-tagged spans, one member profiled twice (its costs add up)
    // and an untagged span that must not appear in the table.
    obs::Tracer tracer;
    tracer.setEnabled(true);
    auto span = [&](const char* member, double ts, double dur, int tid) {
        tracer.completeEvent("feature-extraction", "pipeline", ts, dur,
                             obs::kPipelineTrackPid, tid,
                             {obs::TraceArg::str("member", member)});
    };
    span("FAST@20", 0.0, 100.0, 0);
    span("OBJREC@320", 0.0, 900.0, 1);
    span("HoG@40", 200.0, 300.0, 0);
    span("FAST@20", 600.0, 250.0, 0);
    tracer.completeEvent("tree-training", "pipeline", 2000.0, 5000.0,
                         obs::kPipelineTrackPid, 0);
    const std::string trace =
        writeTemp("report_trace_members.json", tracer.chromeTraceJson());
    obs::Registry reg;
    reg.counter("runs").add(1);
    const std::string metrics =
        writeTemp("report_metrics_members.json", reg.toJson());

    const auto report =
        obs::renderRunReport(obs::RunReportInputs{metrics, "", trace});
    ASSERT_TRUE(report.ok()) << report.error().message();
    const std::string& text = report.value();
    const auto section = text.find("## Costliest members");
    ASSERT_NE(section, std::string::npos) << text;
    const auto objrec = text.find("| `OBJREC@320` | 0.900 | 1 |", section);
    const auto fast = text.find("| `FAST@20` | 0.350 | 2 |", section);
    const auto hog = text.find("| `HoG@40` | 0.300 | 1 |", section);
    ASSERT_NE(objrec, std::string::npos) << text;
    ASSERT_NE(fast, std::string::npos) << text;
    ASSERT_NE(hog, std::string::npos) << text;
    EXPECT_LT(objrec, fast);  // costliest first
    EXPECT_LT(fast, hog);
    EXPECT_EQ(text.find("`tree-training` |"), std::string::npos) << text;
    std::remove(metrics.c_str());
    std::remove(trace.c_str());
}

TEST(Report, OptionalSidecarsDegradeToNotes)
{
    obs::Registry reg;
    reg.counter("runs").add(1);
    const std::string metrics =
        writeTemp("report_metrics_only.json", reg.toJson());

    const auto report =
        obs::renderRunReport(obs::RunReportInputs{metrics, "", ""});
    ASSERT_TRUE(report.ok()) << report.error().message();
    EXPECT_NE(report.value().find("## Phase tree"), std::string::npos);
    EXPECT_NE(report.value().find("--trace-out"), std::string::npos);

    std::remove(metrics.c_str());
}

TEST(Report, ShowsThePeakRssGauge)
{
    obs::Registry reg;
    reg.counter("runs").add(1);
    const std::string without =
        writeTemp("report_no_rss.json", reg.toJson());
    const auto plain =
        obs::renderRunReport(obs::RunReportInputs{without, "", ""});
    ASSERT_TRUE(plain.ok()) << plain.error().message();
    EXPECT_EQ(plain.value().find("peak RSS"), std::string::npos);

    obs::recordPeakRss(reg);
    const obs::RegistrySnapshot snap = reg.snapshot();
    const double* rss = snap.findGauge(obs::kPeakRssGauge);
    ASSERT_NE(rss, nullptr);
    EXPECT_GT(*rss, 0.0);  // this process is resident

    reg.gauge(obs::kPeakRssGauge).set(18.3);
    const std::string with = writeTemp("report_rss.json", reg.toJson());
    const auto report =
        obs::renderRunReport(obs::RunReportInputs{with, "", ""});
    ASSERT_TRUE(report.ok()) << report.error().message();
    EXPECT_NE(report.value().find("- peak RSS: 18.3 MB"), std::string::npos)
        << report.value();

    std::remove(without.c_str());
    std::remove(with.c_str());
}

TEST(Report, MissingOrMalformedMetricsFails)
{
    const auto missing = obs::renderRunReport(
        obs::RunReportInputs{"/nonexistent/metrics.json", "", ""});
    EXPECT_FALSE(missing.ok());

    const std::string bad =
        writeTemp("report_bad_metrics.json", "not json at all");
    const auto malformed =
        obs::renderRunReport(obs::RunReportInputs{bad, "", ""});
    EXPECT_FALSE(malformed.ok());
    std::remove(bad.c_str());
}

}  // namespace
