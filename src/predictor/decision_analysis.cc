#include "predictor/decision_analysis.h"

#include <algorithm>
#include <span>

namespace mapp::predictor {

DecisionPathStats
analyzeDecisionPaths(const ml::Dataset& raw, const PredictorParams& params,
                     const std::vector<std::string>& benchmarks)
{
    DecisionPathStats stats;

    // Base feature axis: cpu_time, gpu_time, the mix classes, fairness.
    stats.features = baseFeatureNames();
    stats.features.push_back("fairness");

    for (const auto& bench : benchmarks) {
        auto [train, test] = splitOutBenchmark(raw, bench);
        if (train.empty() || test.empty())
            continue;

        MultiAppPredictor model(params);
        model.train(train);

        // The fold model's own input rows: the rows its predictions
        // walk, normalized with the fold's training range.
        const auto rows = model.inputRows(test);
        const auto& tree = model.tree();
        const auto& names = tree.featureNames();
        const std::size_t nF = names.size();
        for (std::size_t i = 0; i < test.size(); ++i) {
            const std::span<const double> row(rows.data() + i * nF, nF);

            PathUsage usage;
            usage.pointLabel =
                test.group(i) + "#" + std::to_string(i);
            for (const auto& step : tree.decisionPath(row)) {
                const auto& name =
                    names[static_cast<std::size_t>(step.feature)];
                usage.counts[baseNameOf(name)] += 1;
            }
            stats.points.push_back(std::move(usage));
        }
    }

    // Aggregate presence and usage.
    const auto total = static_cast<double>(stats.points.size());
    for (const auto& feature : stats.features) {
        int present = 0;
        double sum = 0.0;
        int peak = 0;
        for (const auto& point : stats.points) {
            const auto it = point.counts.find(feature);
            const int count = it == point.counts.end() ? 0 : it->second;
            if (count > 0)
                ++present;
            sum += count;
            peak = std::max(peak, count);
        }
        stats.presencePercent[feature] =
            total > 0.0 ? 100.0 * static_cast<double>(present) / total
                        : 0.0;
        stats.meanUsage[feature] = total > 0.0 ? sum / total : 0.0;
        stats.maxUsage[feature] = peak;
    }
    return stats;
}

}  // namespace mapp::predictor
