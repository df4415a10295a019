/**
 * @file
 * K-app bags: the paper's Section-VII open problem ("the number of
 * applications is more than 3 or 4 is still open"), implemented as an
 * extension. The feature vector generalizes naturally: k replicated
 * per-app blocks (apps in canonical order) plus the bag-level fairness,
 * which Equation 2 already defines for any bag size. A KBagPredictor is
 * a decision tree over that k-block layout, trained on a k-bag campaign
 * measured with the same simulators.
 */

#ifndef MAPP_PREDICTOR_KBAG_H
#define MAPP_PREDICTOR_KBAG_H

#include <optional>
#include <string>
#include <vector>

#include "ml/decision_tree.h"
#include "predictor/data_collection.h"

namespace mapp::predictor {

/** A bag of k >= 2 members (canonically sorted). */
struct KBagSpec
{
    std::vector<BagMember> members;

    /** Sorted copy (canonical feature order). */
    KBagSpec canonical() const;

    /** "FAST@20+HoG@20+SIFT@40" style label. */
    std::string label() const;

    /** "FAST+HoG+SIFT" group label. */
    std::string groupLabel() const;
};

/** A measured k-bag data point. */
struct KBagPoint
{
    KBagSpec spec;
    std::vector<AppFeatures> apps;  ///< canonical order
    double fairness = 0.0;
    Seconds gpuBagTime = 0.0;
};

/** Feature names for bags of size k: a0_*..a{k-1}_* + fairness. */
std::vector<std::string> kBagFeatureNames(int k);

/** Flat feature vector for a measured k-bag point. */
std::vector<double> buildKBagVector(const KBagPoint& point);

/** Measures k-bags on the simulated testbed via a DataCollector. */
class KBagCollector
{
  public:
    explicit KBagCollector(DataCollector& collector)
        : collector_(collector)
    {
    }

    /** Measure one k-bag (CPU fairness + GPU makespan). */
    KBagPoint collect(const KBagSpec& spec);

    /**
     * A deterministic k-bag campaign: all homogeneous k-bags over the
     * benchmarks at the standard batch, plus @p hetero_count seeded
     * random heterogeneous k-bags.
     */
    std::vector<KBagSpec> campaign(int k, int hetero_count,
                                   std::uint64_t seed = 0xBA65ull) const;

  private:
    DataCollector& collector_;
};

/** Decision-tree predictor over the k-block feature layout. */
class KBagPredictor
{
  public:
    explicit KBagPredictor(int k, ml::DecisionTreeParams tree = {});

    /** Bag size this model handles. */
    int k() const { return k_; }

    /** Train on measured k-bag points. @throws FatalError if empty or
     * any point's bag size differs from k. */
    void train(const std::vector<KBagPoint>& points);

    /** Predict the GPU makespan of a measured k-bag's inputs. */
    double predict(const KBagPoint& point) const;

    /**
     * Predict a batch of k-bags through one predictBatch() call;
     * element i equals predict(points[i]) bit for bit.
     */
    std::vector<double> predictBatch(
        const std::vector<KBagPoint>& points) const;

    bool trained() const { return tree_.trained(); }

  private:
    int k_;
    ml::DecisionTreeParams treeParams_;
    ml::DecisionTreeRegressor tree_;
    RangeNormalizer normalizer_;
    std::vector<char> timeMask_;  ///< per-feature flags, fixed by k
};

}  // namespace mapp::predictor

#endif  // MAPP_PREDICTOR_KBAG_H
