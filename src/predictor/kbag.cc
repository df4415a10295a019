#include "predictor/kbag.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "common/rng.h"
#include "vision/registry.h"

namespace mapp::predictor {

namespace {

/** Write @p point's feature vector (layout bagFeatureNames(k)) into
 *  @p out, which holds k * kBaseFeatureCount + 1 values. */
void
writeKBagVector(const KBagPoint& point, std::span<double> out)
{
    for (std::size_t slot = 0; slot < point.apps.size(); ++slot)
        writeAppBlock(point.apps[slot],
                      out.subspan(slot * kBaseFeatureCount,
                                  kBaseFeatureCount));
    out.back() = point.fairness;
}

}  // namespace

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
      timeMask_(RangeNormalizer::timeFeatureMask(bagFeatureNames(k)))
{
    if (k < 2)
        fatal("KBagPredictor: k must be >= 2");
}

void
KBagPredictor::train(const std::vector<KBagPoint>& points)
{
    if (points.empty())
        fatal("KBagPredictor::train: empty training data");

    ml::Dataset raw(bagFeatureNames(k_));
    for (const auto& point : points) {
        if (static_cast<int>(point.apps.size()) != k_)
            fatal("KBagPredictor::train: bag size mismatch");
        std::vector<double> row(timeMask_.size());
        writeKBagVector(point, row);
        raw.addRow(std::move(row), point.gpuBagTime,
                   point.spec.groupLabel());
    }

    normalizer_ = RangeNormalizer();
    normalizer_.fit(raw);
    const auto prepared = normalizer_.apply(raw);
    tree_ = ml::DecisionTreeRegressor(treeParams_);
    tree_.fit(prepared);
}

double
KBagPredictor::predict(const KBagPoint& point) const
{
    return predictBatch({&point, 1}).front();
}

std::vector<double>
KBagPredictor::predictBatch(std::span<const KBagPoint> points) const
{
    if (!tree_.trained())
        fatal("KBagPredictor::predict: model not trained");
    const std::size_t nF = timeMask_.size();
    std::vector<double> rows(points.size() * nF);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (static_cast<int>(points[i].apps.size()) != k_)
            fatal("KBagPredictor::predict: bag size mismatch");
        writeKBagVector(points[i],
                        std::span<double>(rows).subspan(i * nF, nF));
    }
    normalizer_.applyBatchInPlace(rows, timeMask_);
    std::vector<double> out(points.size());
    tree_.predictBatch(rows, nF, out);
    normalizer_.denormalizeInPlace(out);
    return out;
}

}  // namespace mapp::predictor
