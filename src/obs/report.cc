#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/json_reader.h"
#include "obs/trace.h"

namespace mapp::obs {

namespace {

/** Gauge-name prefix the drift monitor publishes fractions under. */
constexpr std::string_view kDriftFracPrefix =
    "predictor.drift.oor_frac.";

/** Out-of-range fraction above which a feature is flagged as drifted. */
constexpr double kDriftFlagFraction = 0.01;

Result<std::string>
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        SourceContext context;
        context.file = path;
        return Result<std::string>(Error(
            ErrorCode::Io, "cannot open file", std::move(context)));
    }
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string
fmt(double v, const char* spec = "%.4g")
{
    if (!std::isfinite(v))
        return "n/a";
    char buf[64];
    std::snprintf(buf, sizeof(buf), spec, v);
    return buf;
}

std::string
fmtMs(double seconds)
{
    return fmt(seconds * 1e3, "%.3f") + " ms";
}

Error
schemaError(const std::string& label, const std::string& message)
{
    SourceContext context;
    context.file = label;
    return Error(ErrorCode::Schema, message, std::move(context));
}

// ---------------------------------------------------------------------
// Metrics sidecar -> RegistrySnapshot

Result<HistogramSnapshot>
histogramFromJson(const std::string& name, const JsonValue& value,
                  const std::string& label)
{
    if (!value.isObject())
        return Result<HistogramSnapshot>(schemaError(
            label, "histogram '" + name + "' is not an object"));
    HistogramSnapshot h;
    h.name = name;
    h.count = static_cast<std::uint64_t>(
        value.memberNumberOr("count", 0.0));
    h.sum = value.memberNumberOr("sum", 0.0);
    const JsonValue* bounds = value.find("bounds");
    const JsonValue* buckets = value.find("buckets");
    if (bounds == nullptr || !bounds->isArray() || buckets == nullptr ||
        !buckets->isArray()) {
        return Result<HistogramSnapshot>(schemaError(
            label,
            "histogram '" + name + "' lacks bounds/buckets arrays"));
    }
    for (const auto& b : bounds->items())
        h.bounds.push_back(b.numberOr(
            std::numeric_limits<double>::quiet_NaN()));
    for (const auto& c : buckets->items())
        h.counts.push_back(
            static_cast<std::uint64_t>(c.numberOr(0.0)));
    if (h.counts.size() != h.bounds.size() + 1)
        return Result<HistogramSnapshot>(schemaError(
            label, "histogram '" + name +
                       "' has mismatched bounds/buckets sizes"));
    return h;
}

}  // namespace

Result<RegistrySnapshot>
snapshotFromJson(const std::string& text, const std::string& label)
{
    auto doc = parseJson(text, label);
    if (!doc.ok())
        return Result<RegistrySnapshot>(doc.error());
    const JsonValue root = std::move(doc).value();
    if (!root.isObject())
        return Result<RegistrySnapshot>(
            schemaError(label, "metrics sidecar is not a JSON object"));

    RegistrySnapshot snap;
    if (const JsonValue* counters = root.find("counters");
        counters != nullptr && counters->isObject()) {
        for (const auto& [name, value] : counters->members())
            snap.counters.emplace_back(
                name,
                static_cast<std::uint64_t>(value.numberOr(0.0)));
    }
    if (const JsonValue* gauges = root.find("gauges");
        gauges != nullptr && gauges->isObject()) {
        for (const auto& [name, value] : gauges->members())
            snap.gauges.emplace_back(
                name, value.numberOr(
                          std::numeric_limits<double>::quiet_NaN()));
    }
    if (const JsonValue* histograms = root.find("histograms");
        histograms != nullptr && histograms->isObject()) {
        for (const auto& [name, value] : histograms->members()) {
            auto h = histogramFromJson(name, value, label);
            if (!h.ok())
                return Result<RegistrySnapshot>(h.error());
            snap.histograms.push_back(std::move(h).value());
        }
    }
    if (snap.counters.empty() && snap.gauges.empty() &&
        snap.histograms.empty()) {
        return Result<RegistrySnapshot>(schemaError(
            label, "document has no counters/gauges/histograms — not "
                   "a metrics sidecar"));
    }
    return snap;
}

namespace {

// ---------------------------------------------------------------------
// Phase tree from the Chrome-trace sidecar

struct PhaseNode
{
    std::string name;
    double seconds = 0.0;
    std::uint64_t count = 0;
    std::vector<PhaseNode> children;
};

PhaseNode&
childOf(PhaseNode& parent, const std::string& name)
{
    for (auto& child : parent.children)
        if (child.name == name)
            return child;
    parent.children.push_back(PhaseNode{name, 0.0, 0, {}});
    return parent.children.back();
}

/** One pipeline (pid 1) Complete span of the trace sidecar. */
struct Span
{
    std::string name;
    std::string member;  ///< its "member" arg, e.g. "OBJREC@320", or ""
    int tid = 0;
    double ts = 0.0;
    double end = 0.0;
};

std::vector<Span>
pipelineSpans(const JsonValue& doc)
{
    std::vector<Span> spans;
    const JsonValue* events = doc.find("traceEvents");
    if (events == nullptr || !events->isArray())
        return spans;
    for (const auto& e : events->items()) {
        if (!e.isObject())
            continue;
        const JsonValue* ph = e.find("ph");
        if (ph == nullptr || ph->text() != "X")
            continue;
        if (static_cast<int>(e.memberNumberOr("pid", -1.0)) !=
            kPipelineTrackPid)
            continue;
        Span span;
        if (const JsonValue* name = e.find("name"))
            span.name = name->text();
        if (const JsonValue* args = e.find("args");
            args != nullptr && args->isObject()) {
            if (const JsonValue* member = args->find("member"))
                span.member = member->text();
        }
        span.tid = static_cast<int>(e.memberNumberOr("tid", 0.0));
        span.ts = e.memberNumberOr("ts", 0.0);
        span.end = span.ts + e.memberNumberOr("dur", 0.0);
        spans.push_back(std::move(span));
    }
    return spans;
}

/**
 * Reconstruct the pipeline phase tree from the trace's pipeline spans:
 * per tid, sort by start time and nest by interval containment.
 * A span only nests inside a span of its own thread, so concurrent
 * spans from pool workers never nest inside each other: a phase that
 * ran on four threads at once is not counted inside itself. Worker
 * spans root at the top level, as the live PhaseProfiler roots them.
 */
PhaseNode
phaseTreeFromSpans(std::vector<Span> spans)
{
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span& a, const Span& b) {
                         return a.tid != b.tid ? a.tid < b.tid
                                               : a.ts < b.ts;
                     });

    PhaseNode root;
    struct Open
    {
        PhaseNode* node;
        double ts;
        double end;
    };
    std::vector<Open> stack;
    constexpr double kEpsUs = 0.5;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& span = spans[i];
        if (i > 0 && span.tid != spans[i - 1].tid)
            stack.clear();  // another thread's spans never enclose these
        while (!stack.empty() &&
               !(span.ts + kEpsUs >= stack.back().ts &&
                 span.end <= stack.back().end + kEpsUs)) {
            stack.pop_back();
        }
        PhaseNode& parent =
            stack.empty() ? root : *stack.back().node;
        PhaseNode& node = childOf(parent, span.name);
        node.seconds += (span.end - span.ts) / 1e6;
        node.count += 1;
        stack.push_back(Open{&node, span.ts, span.end});
    }
    return root;
}

/** Wall time of the spans tagged with one campaign member. */
struct MemberCost
{
    std::string member;
    double seconds = 0.0;
    std::uint64_t count = 0;
};

/** Per-member totals of the member-tagged spans, costliest first. */
std::vector<MemberCost>
memberCosts(const std::vector<Span>& spans)
{
    std::vector<MemberCost> costs;
    for (const auto& span : spans) {
        if (span.member.empty())
            continue;
        auto it = std::find_if(costs.begin(), costs.end(),
                               [&](const MemberCost& c) {
                                   return c.member == span.member;
                               });
        if (it == costs.end())
            it = costs.insert(costs.end(), MemberCost{span.member, 0.0, 0});
        it->seconds += (span.end - span.ts) / 1e6;
        it->count += 1;
    }
    std::stable_sort(costs.begin(), costs.end(),
                     [](const MemberCost& a, const MemberCost& b) {
                         return a.seconds > b.seconds;
                     });
    return costs;
}

/** Rows of the costliest-members table. */
constexpr std::size_t kTopMembers = 10;

void
renderMemberCostSection(std::string& out,
                        const std::vector<MemberCost>& costs)
{
    out += "## Costliest members\n\n";
    if (costs.empty()) {
        out += "(no pipeline span in the trace names a member)\n\n";
        return;
    }
    out += "| member | ms | spans |\n|---|---|---|\n";
    for (std::size_t i = 0; i < std::min(costs.size(), kTopMembers); ++i)
        out += "| `" + costs[i].member + "` | " +
               fmt(costs[i].seconds * 1e3, "%.3f") + " | " +
               std::to_string(costs[i].count) + " |\n";
    if (costs.size() > kTopMembers)
        out += "\n(" + std::to_string(costs.size() - kTopMembers) +
               " cheaper members not shown)\n";
    out += "\n";
}

void
renderPhaseNode(std::string& out, const PhaseNode& node, int depth)
{
    for (int i = 0; i < depth; ++i)
        out += "  ";
    out += "- `" + node.name + "` — " + fmtMs(node.seconds) + " ×" +
           std::to_string(node.count) + "\n";
    for (const auto& child : node.children)
        renderPhaseNode(out, child, depth + 1);
}

// ---------------------------------------------------------------------
// Prediction provenance from the JSONL sidecar

struct PredictionRow
{
    std::uint64_t seq = 0;
    std::string model;
    double predicted = 0.0;
    double uncertainty = 0.0;
    double actual = std::numeric_limits<double>::quiet_NaN();
    std::string path;
};

struct PredictionsSummary
{
    std::vector<PredictionRow> rows;
    std::size_t total = 0;
    std::size_t withTruth = 0;
    std::size_t malformed = 0;
};

PredictionsSummary
parsePredictions(const std::string& text, const std::string& label)
{
    PredictionsSummary summary;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        auto doc = parseJson(line, label);
        if (!doc.ok() || !doc.value().isObject()) {
            ++summary.malformed;
            continue;
        }
        const JsonValue record = std::move(doc).value();
        PredictionRow row;
        row.seq = static_cast<std::uint64_t>(
            record.memberNumberOr("seq", 0.0));
        if (const JsonValue* model = record.find("model"))
            row.model = model->text();
        row.predicted = record.memberNumberOr("predicted_s", 0.0);
        row.uncertainty = record.memberNumberOr("uncertainty_s", 0.0);
        row.actual = record.memberNumberOr(
            "actual_s", std::numeric_limits<double>::quiet_NaN());
        if (const JsonValue* path = record.find("path"))
            row.path = path->text();
        ++summary.total;
        if (std::isfinite(row.actual))
            ++summary.withTruth;
        summary.rows.push_back(std::move(row));
    }
    return summary;
}

double
absErrorPercent(const PredictionRow& row)
{
    if (!std::isfinite(row.actual) || row.actual <= 0.0)
        return -1.0;
    return std::abs(row.predicted - row.actual) / row.actual * 100.0;
}

// ---------------------------------------------------------------------
// Section renderers

void
renderLatencySection(std::string& out, const RegistrySnapshot& snap)
{
    out += "## Latency percentiles\n\n";
    // The error-percentage histograms have their own section below;
    // repeating them here as "latency" would only mislead.
    std::vector<const HistogramSnapshot*> shown;
    for (const auto& h : snap.histograms)
        if (h.name.rfind("predictor.error.", 0) != 0)
            shown.push_back(&h);
    if (shown.empty()) {
        out += "(no histograms in the metrics sidecar)\n\n";
        return;
    }
    out += "| histogram | count | mean | p50 | p95 | p99 |\n";
    out += "|---|---|---|---|---|---|\n";
    for (const auto* h : shown) {
        out += "| `" + h->name + "` | " + std::to_string(h->count) +
               " | " + fmt(h->mean()) + " | " +
               fmt(h->quantile(0.50)) + " | " + fmt(h->quantile(0.95)) +
               " | " + fmt(h->quantile(0.99)) + " |\n";
    }
    out += "\n";
}

void
renderQualitySection(std::string& out, const RegistrySnapshot& snap)
{
    out += "## Prediction quality\n\n";
    const HistogramSnapshot* abs =
        snap.findHistogram("predictor.error.abs_pct");
    if (abs == nullptr || abs->count == 0) {
        out += "(no ground-truth errors recorded — the error "
               "histograms are empty)\n\n";
        return;
    }
    const HistogramSnapshot* sgn =
        snap.findHistogram("predictor.error.signed_pct");
    out += "- ground-truth pairs: " + std::to_string(abs->count) +
           "\n";
    out += "- MAPE: " + fmt(abs->mean(), "%.2f") + "%";
    if (sgn != nullptr && sgn->count > 0)
        out += " | mean signed error: " + fmt(sgn->mean(), "%.2f") +
               "% (negative = under-prediction)";
    out += "\n";
    out += "- absolute error percentiles: p50 " +
           fmt(abs->quantile(0.50), "%.1f") + "% · p95 " +
           fmt(abs->quantile(0.95), "%.1f") + "% · p99 " +
           fmt(abs->quantile(0.99), "%.1f") + "%\n\n";

    out += "| abs error bucket | predictions |\n|---|---|\n";
    for (std::size_t i = 0; i < abs->counts.size(); ++i) {
        const std::string label =
            i < abs->bounds.size()
                ? "<= " + fmt(abs->bounds[i], "%.4g") + "%"
                : "> " + fmt(abs->bounds.back(), "%.4g") + "%";
        out += "| " + label + " | " +
               std::to_string(abs->counts[i]) + " |\n";
    }
    out += "\n";
}

void
renderTopErrorSection(std::string& out,
                      const PredictionsSummary& summary,
                      bool have_predictions)
{
    out += "## Top-error predictions\n\n";
    if (!have_predictions) {
        out += "(no predictions sidecar given — rerun with "
               "`--predictions-out=<file>`)\n\n";
        return;
    }
    std::vector<const PredictionRow*> scored;
    for (const auto& row : summary.rows)
        if (absErrorPercent(row) >= 0.0)
            scored.push_back(&row);
    if (scored.empty()) {
        out += "(no audited prediction carries ground truth)\n\n";
        return;
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const PredictionRow* a,
                        const PredictionRow* b) {
                         return absErrorPercent(*a) >
                                absErrorPercent(*b);
                     });
    const std::size_t top = std::min<std::size_t>(scored.size(), 10);
    out += "| seq | model | predicted s | actual s | error % | "
           "uncertainty s | decision path |\n";
    out += "|---|---|---|---|---|---|---|\n";
    for (std::size_t i = 0; i < top; ++i) {
        const PredictionRow& row = *scored[i];
        out += "| " + std::to_string(row.seq) + " | " + row.model +
               " | " + fmt(row.predicted, "%.6f") + " | " +
               fmt(row.actual, "%.6f") + " | " +
               fmt(absErrorPercent(row), "%.1f") + " | " +
               fmt(row.uncertainty, "%.4g") + " | `" + row.path +
               "` |\n";
    }
    out += "\n";
}

void
renderDriftSection(std::string& out, const RegistrySnapshot& snap)
{
    out += "## Drift flags\n\n";
    struct Flag
    {
        std::string feature;
        double fraction;
    };
    std::vector<Flag> flags;
    bool sawDriftGauges = false;
    for (const auto& [name, value] : snap.gauges) {
        if (name.rfind(kDriftFracPrefix, 0) != 0)
            continue;
        sawDriftGauges = true;
        if (std::isfinite(value) && value > kDriftFlagFraction)
            flags.push_back(
                Flag{name.substr(kDriftFracPrefix.size()), value});
    }
    if (!sawDriftGauges) {
        out += "(no drift gauges in the metrics sidecar — no ground "
               "truth was evaluated)\n\n";
        return;
    }
    if (flags.empty()) {
        out += "none — every evaluated feature stayed within its "
               "training normalization range (threshold " +
               fmt(kDriftFlagFraction * 100.0, "%.0f") + "%).\n\n";
        return;
    }
    std::stable_sort(flags.begin(), flags.end(),
                     [](const Flag& a, const Flag& b) {
                         return a.fraction > b.fraction;
                     });
    for (const auto& flag : flags) {
        out += "- ⚠ `" + flag.feature + "`: " +
               fmt(flag.fraction * 100.0, "%.1f") +
               "% of evaluated rows fell outside the training range\n";
    }
    out += "\n";
}

void
renderCountersSection(std::string& out, const RegistrySnapshot& snap)
{
    out += "## Counters\n\n";
    if (snap.counters.empty()) {
        out += "(none)\n\n";
        return;
    }
    out += "| counter | value |\n|---|---|\n";
    for (const auto& [name, value] : snap.counters)
        out += "| `" + name + "` | " + std::to_string(value) + " |\n";
    out += "\n";
}

}  // namespace

Result<std::string>
renderRunReport(const RunReportInputs& inputs)
{
    if (inputs.metricsPath.empty())
        return Result<std::string>(
            Error(ErrorCode::InvalidArgument,
                  "report: a metrics sidecar path is required"));
    auto metricsText = readFile(inputs.metricsPath);
    if (!metricsText.ok())
        return Result<std::string>(metricsText.error());
    auto snapResult =
        snapshotFromJson(metricsText.value(), inputs.metricsPath);
    if (!snapResult.ok())
        return Result<std::string>(snapResult.error());
    const RegistrySnapshot snap = std::move(snapResult).value();

    std::string out = "# MAPP run report\n\n";
    out += "- metrics: `" + inputs.metricsPath + "`\n";
    if (const double* rss = snap.findGauge(kPeakRssGauge))
        out += "- peak RSS: " + fmt(*rss, "%.1f") + " MB\n";

    PredictionsSummary predictions;
    bool havePredictions = false;
    if (!inputs.predictionsPath.empty()) {
        auto text = readFile(inputs.predictionsPath);
        if (!text.ok())
            return Result<std::string>(text.error());
        predictions =
            parsePredictions(text.value(), inputs.predictionsPath);
        havePredictions = true;
        out += "- predictions: `" + inputs.predictionsPath + "` — " +
               std::to_string(predictions.total) + " records, " +
               std::to_string(predictions.withTruth) +
               " with ground truth";
        if (predictions.malformed > 0)
            out += ", " + std::to_string(predictions.malformed) +
                   " malformed lines skipped";
        out += "\n";
    }

    bool haveTrace = false;
    std::vector<Span> spans;
    if (!inputs.tracePath.empty()) {
        auto text = readFile(inputs.tracePath);
        if (!text.ok())
            return Result<std::string>(text.error());
        auto doc = parseJson(text.value(), inputs.tracePath);
        if (!doc.ok())
            return Result<std::string>(doc.error());
        spans = pipelineSpans(doc.value());
        haveTrace = true;
        out += "- trace: `" + inputs.tracePath + "`\n";
    }
    out += "\n";

    const std::vector<MemberCost> costs = memberCosts(spans);
    const PhaseNode phaseRoot = phaseTreeFromSpans(std::move(spans));
    out += "## Phase tree\n\n";
    if (!haveTrace) {
        out += "(no trace sidecar given — rerun with "
               "`--trace-out=<file>`)\n\n";
    } else if (phaseRoot.children.empty()) {
        out += "(the trace has no pipeline spans)\n\n";
    } else {
        for (const auto& child : phaseRoot.children)
            renderPhaseNode(out, child, 0);
        out += "\n";
    }
    if (haveTrace)
        renderMemberCostSection(out, costs);

    renderLatencySection(out, snap);
    renderQualitySection(out, snap);
    renderTopErrorSection(out, predictions, havePredictions);
    renderDriftSection(out, snap);
    renderCountersSection(out, snap);
    return out;
}

}  // namespace mapp::obs
