#include "ml/dataset_binary.h"

#include "cache/binary_io.h"

namespace mapp::ml {

namespace {

constexpr std::string_view kMagic = "MDST";
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::string
datasetToBinary(const Dataset& data)
{
    cache::BinaryWriter w(kMagic, kVersion);
    w.u64(data.numFeatures());
    for (const auto& name : data.featureNames())
        w.str(name);
    w.u64(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        for (double v : data.row(i))
            w.f64(v);
        w.f64(data.target(i));
        w.str(data.group(i));
    }
    return std::move(w).finish();
}

Dataset
datasetFromBinary(const std::string& blob, const std::string& source)
{
    cache::BinaryReader r(blob, source, kMagic, kVersion);
    const std::uint64_t numFeatures = r.count(cache::kMinStrBytes);
    std::vector<std::string> names;
    names.reserve(numFeatures);
    for (std::uint64_t k = 0; k < numFeatures; ++k)
        names.push_back(r.str());
    Dataset data(std::move(names));
    // A row: its features and target (8 bytes each), then its group.
    const std::uint64_t rows =
        r.count((numFeatures + 1) * 8 + cache::kMinStrBytes);
    for (std::uint64_t i = 0; i < rows; ++i) {
        std::vector<double> row(numFeatures);
        for (std::uint64_t k = 0; k < numFeatures; ++k)
            row[k] = r.f64();
        const double target = r.f64();
        std::string group = r.str();
        // addRow re-checks finiteness, so a checksum-surviving NaN
        // still cannot reach a trained model.
        data.addRow(std::move(row), target, std::move(group));
    }
    r.expectEnd();
    return data;
}

void
hashDataset(cache::Hasher& hasher, const Dataset& data)
{
    hasher.add(static_cast<std::uint64_t>(data.numFeatures()));
    for (const auto& name : data.featureNames())
        hasher.add(std::string_view(name));
    hasher.add(static_cast<std::uint64_t>(data.size()));
    for (std::size_t i = 0; i < data.size(); ++i) {
        hasher.add(std::span<const double>(data.row(i)));
        hasher.add(data.target(i));
        hasher.add(std::string_view(data.group(i)));
    }
}

}  // namespace mapp::ml
