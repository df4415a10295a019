/**
 * @file
 * The Table-IV feature schema and the feature-vector layout for bags.
 *
 * Per application the features are: CPU time, GPU time (both single
 * instance) and the nine instruction-mix percentages (Figure 12 splits
 * Table IV's "MEM" into mem_rd and mem_wr, which we keep). For a bag of
 * two, the per-app block is replicated — apps in canonical order — and
 * one bag-level fairness value is appended (Section V-A.1). Time
 * features are normalized by the (max - min) range of the CPU-time
 * feature over the *training* data, exactly as Section V-C specifies.
 */

#ifndef MAPP_PREDICTOR_FEATURES_H
#define MAPP_PREDICTOR_FEATURES_H

#include <array>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/inst_class.h"
#include "ml/dataset.h"

namespace mapp::predictor {

/** Per-application measured features (one app, single instance). */
struct AppFeatures
{
    std::string app;        ///< benchmark name
    int batchSize = 0;
    Seconds cpuTime = 0.0;  ///< alone on the multicore, best threads
    Seconds gpuTime = 0.0;  ///< alone on the GPU
    /** Instruction-mix percentages indexed by isa::InstClass. */
    std::array<double, isa::kNumInstClasses> mixPercent{};
};

/** Base (per-app) feature names, in canonical order. */
std::vector<std::string> baseFeatureNames();

/** Number of apps in a bag feature vector (the paper fixes two). */
inline constexpr int kBagSize = 2;

/** Features per app: CPU time, GPU time and the instruction mix. */
inline constexpr std::size_t kBaseFeatureCount =
    2 + isa::kAllInstClasses.size();

/** Features in a bag vector: every slot's block plus fairness. */
inline constexpr std::size_t kBagFeatureCount =
    static_cast<std::size_t>(kBagSize) * kBaseFeatureCount + 1;

/**
 * Bag feature names for @p slots apps: a0_*, a1_*, ..., fairness. The
 * default is the paper's pair; k-bags (kbag.h) pass their k.
 */
std::vector<std::string> bagFeatureNames(int slots = kBagSize);

/**
 * Strip the slot prefix: "a1_gpu_time" -> "gpu_time"; "fairness" maps to
 * itself. Used when aggregating decision-path statistics over slots.
 */
std::string baseNameOf(const std::string& bag_feature);

/**
 * Write one app's block (baseFeatureNames() order) into @p out, which
 * holds kBaseFeatureCount values. Slot s of a bag vector is this block
 * at offset s * kBaseFeatureCount.
 */
void writeAppBlock(const AppFeatures& app, std::span<double> out);

/**
 * Write the pair's bag feature vector into @p out: the two apps' blocks
 * (apps must already be in canonical order) followed by fairness.
 * Layout matches bagFeatureNames().
 */
void writeBagVector(const AppFeatures& a, const AppFeatures& b,
                    double fairness,
                    std::span<double, kBagFeatureCount> out);

/** writeBagVector() into a new vector. */
std::vector<double> buildBagVector(const AppFeatures& a,
                                   const AppFeatures& b, double fairness);

/**
 * The Section V-C normalizer: divides every time-typed feature (and the
 * regression target, also a time) by the max-min range of the CPU-time
 * feature columns observed in the training data.
 */
class RangeNormalizer
{
  public:
    /** Identity until fit() runs. */
    RangeNormalizer() = default;

    /** Learn the CPU-time range from a training dataset. */
    void fit(const ml::Dataset& train);

    /** The learned scale (max - min of CPU time; 1 if degenerate). */
    double scale() const { return scale_; }

    /** A copy of @p data with time features and targets scaled, row
     *  by row through applyBatchInPlace(). */
    ml::Dataset apply(const ml::Dataset& data) const;

    /**
     * Which features of a layout are time-typed (1 = scaled by the
     * normalizer). Computed once per layout so batch normalization
     * never re-parses feature names per row.
     */
    static std::vector<char> timeFeatureMask(
        const std::vector<std::string>& names);

    /**
     * Normalize a whole row-major batch in place: every row is laid
     * out like @p time_mask (one flag per feature) and its time-typed
     * entries are divided by the learned scale. No per-row
     * temporaries. @throws FatalError if the buffer is not a whole
     * number of rows.
     */
    void applyBatchInPlace(std::span<double> rowMajor,
                           const std::vector<char>& time_mask) const;

    /** Convert normalized predictions back to seconds, in place. */
    void denormalizeInPlace(std::span<double> values) const;

    /** Convert a normalized prediction back to seconds. */
    double denormalizeTarget(double value) const { return value * scale_; }

    /** Scale a target (seconds) into normalized units. */
    double normalizeTarget(double value) const { return value / scale_; }

  private:
    static bool isTimeFeature(const std::string& name);

    double scale_ = 1.0;
};

}  // namespace mapp::predictor

#endif  // MAPP_PREDICTOR_FEATURES_H
