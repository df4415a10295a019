#include "vision/knn.h"

#include <algorithm>
#include <limits>
#include <span>

#include "common/log.h"
#include "vision/ops.h"
#include "vision/registry.h"

namespace mapp::vision {

namespace {

/**
 * Record the fused top-k selection phase: @p scans distance reads over
 * the rows of @p queries queries against @p refs references.
 */
void
recordSelect(InstCount scans, std::size_t queries, std::size_t refs)
{
    const auto q = static_cast<InstCount>(queries);
    ops::PhaseBuilder("knn_select")
        .insts(isa::InstClass::MemRead, scans)
        .insts(isa::InstClass::FpAlu, scans)
        .insts(isa::InstClass::Control, scans * 2)
        .insts(isa::InstClass::IntAlu, scans + q * 8)
        .insts(isa::InstClass::MemWrite, q)
        .read(scans * sizeof(double))
        .write(q * sizeof(int))
        .foot(static_cast<Bytes>(queries) * static_cast<Bytes>(refs) *
              sizeof(double))
        .par(0.95)
        .items(q)
        .loc(0.6)
        .div(0.5)
        .record();
}

/**
 * Reference descriptors of a KNN batch: those of a fixed number of
 * leading images (a feature dictionary does not grow with the batch);
 * every remaining image contributes queries, so cost is linear in the
 * batch.
 */
std::size_t
referenceCount(std::size_t batch, const KnnParams& params)
{
    const std::size_t dictImages = std::min<std::size_t>(16, batch / 2);
    return dictImages * static_cast<std::size_t>(params.patchGrid) *
           static_cast<std::size_t>(params.patchGrid);
}

/**
 * Record the phases KnnClassifier::predict records for @p queries
 * queries against @p refs references of dimension @p dim, from the
 * sizes alone.
 */
void
recordKnnPredictCounts(std::size_t queries, std::size_t refs,
                       std::size_t dim, const KnnParams& params)
{
    if (queries == 0 || refs == 0)
        return;
    ops::recordDistanceRows(queries, refs, dim);
    // Every selection scans all references; a finite distance row always
    // yields a pick, so each query makes min(k, refs) selections.
    const auto picks = static_cast<InstCount>(
        std::min<std::size_t>(static_cast<std::size_t>(std::max(params.k, 0)),
                              refs));
    recordSelect(static_cast<InstCount>(queries) * picks *
                     static_cast<InstCount>(refs),
                 queries, refs);
}

}  // namespace

void
KnnClassifier::fit(std::vector<Descriptor> x, std::vector<int> y)
{
    if (x.size() != y.size())
        fatal("KnnClassifier::fit: mismatched reference data");
    x_ = std::move(x);
    y_ = std::move(y);
}

std::vector<int>
KnnClassifier::predict(const std::vector<Descriptor>& queries,
                       const KnnParams& params) const
{
    std::vector<int> out;
    if (queries.empty() || x_.empty())
        return out;

    // Fused top-k selection over all queries (one kernel on a GPU, not
    // one launch per query), recorded as a single phase; each query's
    // vote runs on its distance row as soon as the row is computed.
    InstCount scans = 0;
    out.reserve(queries.size());
    std::vector<bool> used(x_.size());
    ops::distanceRows(queries, x_, [&](std::size_t,
                                       std::span<const double> row) {
        std::fill(used.begin(), used.end(), false);
        int votes = 0;
        for (int sel = 0;
             sel < params.k && sel < static_cast<int>(x_.size()); ++sel) {
            double best = std::numeric_limits<double>::infinity();
            std::size_t bestIdx = 0;
            bool found = false;
            for (std::size_t i = 0; i < x_.size(); ++i) {
                ++scans;
                if (!used[i] && row[i] < best) {
                    best = row[i];
                    bestIdx = i;
                    found = true;
                }
            }
            if (!found)
                break;
            used[bestIdx] = true;
            votes += y_[bestIdx];
        }
        out.push_back(votes >= 0 ? 1 : -1);
    });

    recordSelect(scans, queries.size(), x_.size());
    return out;
}

std::vector<Descriptor>
gridDescriptors(const Image& img, const KnnParams& params)
{
    std::vector<Descriptor> out;
    const int grid = std::max(params.patchGrid, 1);
    const int tileW = img.width() / grid;
    const int tileH = img.height() / grid;

    // All patches of an image are extracted and downsampled by one
    // fused pass (one kernel launch on a GPU), recorded as one phase.
    for (int gy = 0; gy < grid; ++gy) {
        for (int gx = 0; gx < grid; ++gx) {
            Descriptor d;
            d.reserve(static_cast<std::size_t>(params.patchDim) *
                      static_cast<std::size_t>(params.patchDim));
            const float sx = static_cast<float>(tileW) /
                             static_cast<float>(params.patchDim);
            const float sy = static_cast<float>(tileH) /
                             static_cast<float>(params.patchDim);
            double mean = 0.0;
            for (int y = 0; y < params.patchDim; ++y) {
                for (int x = 0; x < params.patchDim; ++x) {
                    const int px = gx * tileW +
                                   static_cast<int>(
                                       (static_cast<float>(x) + 0.5f) * sx);
                    const int py = gy * tileH +
                                   static_cast<int>(
                                       (static_cast<float>(y) + 0.5f) * sy);
                    const float v = img.atClamped(px, py);
                    d.push_back(v);
                    mean += v;
                }
            }
            mean /= static_cast<double>(d.size());
            for (auto& v : d)
                v = static_cast<float>(v - mean);
            out.push_back(std::move(d));
        }
    }

    const auto samples = static_cast<InstCount>(grid) *
                         static_cast<InstCount>(grid) *
                         static_cast<InstCount>(params.patchDim) *
                         static_cast<InstCount>(params.patchDim);
    ops::PhaseBuilder("patch_extract")
        .insts(isa::InstClass::MemRead, samples)
        .insts(isa::InstClass::FpAlu, samples * 6)
        .insts(isa::InstClass::IntAlu, samples * 6)
        .insts(isa::InstClass::MemWrite, samples * 2)
        .insts(isa::InstClass::Control, samples)
        .read(samples * sizeof(float))
        .write(samples * 2 * sizeof(float))
        .foot(img.sizeBytes())
        .par(0.97)
        .items(samples)
        .loc(0.6)
        .div(0.05)
        .record();
    return out;
}

std::size_t
runKnnBenchmark(ImageStream& batch, const KnnParams& params)
{
    if (batch.size() < static_cast<std::size_t>(minBatch(BenchmarkId::Knn)))
        return 0;

    std::vector<Descriptor> all;
    all.reserve(batch.size() * static_cast<std::size_t>(params.patchGrid) *
                static_cast<std::size_t>(params.patchGrid));
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Image staged = ops::copyImage(batch.next());
        auto descs = gridDescriptors(staged, params);
        all.insert(all.end(), std::make_move_iterator(descs.begin()),
                   std::make_move_iterator(descs.end()));
    }

    auto energy = [](const Descriptor& d) {
        double acc = 0.0;
        for (float v : d)
            acc += static_cast<double>(v) * static_cast<double>(v);
        return acc;
    };

    const std::size_t refCount = referenceCount(batch.size(), params);

    std::vector<double> refEnergy;
    refEnergy.reserve(refCount);
    for (std::size_t i = 0; i < refCount; ++i)
        refEnergy.push_back(energy(all[i]));
    std::vector<double> sorted = refEnergy;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const double median = sorted[sorted.size() / 2];

    std::vector<int> refLabels;
    refLabels.reserve(refCount);
    for (std::size_t i = 0; i < refCount; ++i)
        refLabels.push_back(refEnergy[i] > median ? 1 : -1);

    // The queries move out of the tail; the head left is the dictionary.
    std::vector<Descriptor> queries(
        std::make_move_iterator(all.begin() + static_cast<long>(refCount)),
        std::make_move_iterator(all.end()));
    all.resize(refCount);

    KnnClassifier knn;
    knn.fit(std::move(all), std::move(refLabels));
    const auto labels = knn.predict(queries, params);

    std::size_t positives = 0;
    for (int label : labels)
        if (label == 1)
            ++positives;
    return positives;
}

void
profileKnnByShape(ImageStream& batch, const KnnParams& params)
{
    if (batch.size() < static_cast<std::size_t>(minBatch(BenchmarkId::Knn)))
        return;
    const Image first = batch.next();
    std::size_t perImage = 0;
    std::size_t dim = 0;
    ops::recordRepeated(batch.size() - 1, [&] {
        const auto descs = gridDescriptors(ops::copyImage(first), params);
        perImage = descs.size();
        dim = descs.front().size();
    });
    const std::size_t refs = referenceCount(batch.size(), params);
    recordKnnPredictCounts(batch.size() * perImage - refs, refs, dim,
                           params);
}

}  // namespace mapp::vision
