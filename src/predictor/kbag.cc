#include "predictor/kbag.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "common/rng.h"
#include "vision/registry.h"

namespace mapp::predictor {

KBagSpec
KBagSpec::canonical() const
{
    KBagSpec out = *this;
    std::sort(out.members.begin(), out.members.end());
    return out;
}

std::string
KBagSpec::label() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (i)
            os << '+';
        os << vision::benchmarkName(members[i].id) << '@'
           << members[i].batchSize;
    }
    return os.str();
}

std::string
KBagSpec::groupLabel() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (i)
            os << '+';
        os << vision::benchmarkName(members[i].id);
    }
    return os.str();
}

std::vector<std::string>
kBagFeatureNames(int k)
{
    std::vector<std::string> names;
    for (int slot = 0; slot < k; ++slot)
        for (const auto& base : baseFeatureNames())
            names.push_back("a" + std::to_string(slot) + "_" + base);
    names.push_back("fairness");
    return names;
}

std::vector<double>
buildKBagVector(const KBagPoint& point)
{
    std::vector<double> out;
    out.reserve(point.apps.size() * kBaseFeatureCount + 1);
    for (const auto& app : point.apps) {
        out.push_back(app.cpuTime);
        out.push_back(app.gpuTime);
        for (isa::InstClass c : isa::kAllInstClasses)
            out.push_back(app.mixPercent[static_cast<std::size_t>(c)]);
    }
    out.push_back(point.fairness);
    return out;
}

KBagPoint
KBagCollector::collect(const KBagSpec& raw_spec)
{
    const KBagSpec spec = raw_spec.canonical();
    if (spec.members.size() < 2)
        fatal("KBagCollector: bags need at least 2 members");

    KBagPoint point;
    point.spec = spec;

    std::vector<const isa::WorkloadTrace*> traces;
    std::vector<int> threads;
    std::vector<double> ipcAlone;
    for (const auto& member : spec.members) {
        point.apps.push_back(collector_.appFeatures(member));
        traces.push_back(
            &vision::cachedTrace(member.id, member.batchSize));
        threads.push_back(collector_.bestThreads(member));
        ipcAlone.push_back(collector_.ipcAlone(member));
    }

    const auto cpuBag = collector_.cpuSim().runShared(traces, threads);
    std::vector<double> ipcShared;
    for (const auto& app : cpuBag.apps)
        ipcShared.push_back(app.ipc);
    point.fairness = fairness(ipcShared, ipcAlone);

    point.gpuBagTime = collector_.gpuSim().runShared(traces).makespan;
    return point;
}

std::vector<KBagSpec>
KBagCollector::campaign(int k, int hetero_count,
                        std::uint64_t seed) const
{
    if (k < 2)
        fatal("KBagCollector::campaign: k must be >= 2");

    std::vector<KBagSpec> specs;
    // Homogeneous k-bags over all benchmarks at the standard batch.
    for (vision::BenchmarkId id : vision::kAllBenchmarks) {
        KBagSpec spec;
        spec.members.assign(static_cast<std::size_t>(k),
                            BagMember{id, 20});
        specs.push_back(spec);
    }
    // Seeded heterogeneous bags.
    Rng rng(seed * 1315423911ull + static_cast<std::uint64_t>(k));
    for (int i = 0; i < hetero_count; ++i) {
        KBagSpec spec;
        for (int slot = 0; slot < k; ++slot) {
            spec.members.push_back(
                {vision::kAllBenchmarks[static_cast<std::size_t>(
                     rng.uniformInt(0, 8))],
                 static_cast<int>(
                     vision::kBatchSizes[static_cast<std::size_t>(
                         rng.uniformInt(0, 2))])});
        }
        specs.push_back(spec.canonical());
    }
    return specs;
}

KBagPredictor::KBagPredictor(int k, ml::DecisionTreeParams tree)
    : k_(k), treeParams_(tree),
      timeMask_(RangeNormalizer::timeFeatureMask(kBagFeatureNames(k)))
{
    if (k < 2)
        fatal("KBagPredictor: k must be >= 2");
}

void
KBagPredictor::train(const std::vector<KBagPoint>& points)
{
    if (points.empty())
        fatal("KBagPredictor::train: empty training data");

    ml::Dataset raw(kBagFeatureNames(k_));
    for (const auto& point : points) {
        if (static_cast<int>(point.apps.size()) != k_)
            fatal("KBagPredictor::train: bag size mismatch");
        raw.addRow(buildKBagVector(point), point.gpuBagTime,
                   point.spec.groupLabel());
    }

    normalizer_ = RangeNormalizer();
    normalizer_.fit(raw);
    const auto prepared = normalizer_.apply(raw);
    tree_ = ml::DecisionTreeRegressor(treeParams_);
    tree_.fit(prepared);
    compiled_ = ml::CompiledTree(tree_);
}

double
KBagPredictor::predict(const KBagPoint& point) const
{
    if (!tree_.trained())
        fatal("KBagPredictor::predict: model not trained");
    if (static_cast<int>(point.apps.size()) != k_)
        fatal("KBagPredictor::predict: bag size mismatch");

    auto row = buildKBagVector(point);
    normalizer_.applyBatchInPlace(row, timeMask_);
    return normalizer_.denormalizeTarget(compiled_.predict(row));
}

std::vector<double>
KBagPredictor::predictBatch(const std::vector<KBagPoint>& points) const
{
    if (!tree_.trained())
        fatal("KBagPredictor::predictBatch: model not trained");
    const std::size_t nF = timeMask_.size();
    std::vector<double> flat;
    flat.reserve(points.size() * nF);
    for (const auto& point : points) {
        if (static_cast<int>(point.apps.size()) != k_)
            fatal("KBagPredictor::predictBatch: bag size mismatch");
        const auto row = buildKBagVector(point);
        flat.insert(flat.end(), row.begin(), row.end());
    }
    normalizer_.applyBatchInPlace(flat, timeMask_);
    std::vector<double> out(points.size());
    compiled_.predictBatch(flat, nF, out);
    normalizer_.denormalizeInPlace(out);
    return out;
}

}  // namespace mapp::predictor
