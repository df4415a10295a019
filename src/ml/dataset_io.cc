#include "ml/dataset_io.h"

#include <sstream>

#include "common/csv.h"
#include "common/error.h"
#include "common/file_io.h"
#include "common/log.h"
#include "common/parse.h"

namespace mapp::ml {

std::string
datasetToCsv(const Dataset& data)
{
    std::ostringstream os;
    CsvWriter writer(os);

    std::vector<std::string> headerRow = data.featureNames();
    headerRow.emplace_back("target");
    headerRow.emplace_back("group");
    writer.writeHeader(headerRow);

    for (std::size_t r = 0; r < data.size(); ++r) {
        std::vector<std::string> row;
        row.reserve(headerRow.size());
        for (double v : data.row(r)) {
            std::ostringstream cell;
            cell.precision(17);
            cell << v;
            row.push_back(cell.str());
        }
        std::ostringstream target;
        target.precision(17);
        target << data.target(r);
        row.push_back(target.str());
        row.push_back(data.group(r));
        writer.writeRow(row);
    }
    return os.str();
}

Dataset
datasetFromCsv(const std::string& text, const std::string& source)
{
    const CsvTable table = parseCsv(text, source);
    if (table.header.size() < 2)
        raise({ErrorCode::Schema,
               "header too short (" +
                   std::to_string(table.header.size()) +
                   " columns, need at least target,group)",
               {source, 0, ""}});
    if (table.header[table.header.size() - 2] != "target" ||
        table.header.back() != "group") {
        raise({ErrorCode::Schema,
               "last columns must be target,group (got '" +
                   table.header[table.header.size() - 2] + "','" +
                   table.header.back() + "')",
               {source, 0, ""}});
    }

    const std::size_t numFeatures = table.header.size() - 2;
    Dataset data({table.header.begin(),
                  table.header.begin() +
                      static_cast<long>(numFeatures)});
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        const auto& row = table.rows[r];
        if (row.size() != table.header.size())
            raise({ErrorCode::Schema,
                   "row has " + std::to_string(row.size()) +
                       " cells, expected " +
                       std::to_string(table.header.size()),
                   {source, r + 1, ""}});
        std::vector<double> features;
        features.reserve(numFeatures);
        for (std::size_t f = 0; f < numFeatures; ++f) {
            features.push_back(
                parseDouble(row[f]).orThrow(
                    {source, r + 1, table.header[f]}));
        }
        const double target = parseDouble(row[numFeatures])
                                  .orThrow({source, r + 1, "target"});
        data.addRow(std::move(features), target, row.back());
    }
    return data;
}

void
writeDatasetFile(const Dataset& data, const std::string& path)
{
    if (!writeFileAtomic(path, datasetToCsv(data)))
        raise({ErrorCode::Io, "cannot write file", {path, 0, ""}});
}

Dataset
readDatasetFile(const std::string& path)
{
    return datasetFromCsv(readWholeFile(path), path);
}

}  // namespace mapp::ml
