#include "common/csv.h"

#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/file_io.h"
#include "common/parse.h"

namespace mapp {

int
CsvTable::columnIndex(const std::string& name) const
{
    for (std::size_t i = 0; i < header.size(); ++i)
        if (header[i] == name)
            return static_cast<int>(i);
    return -1;
}

std::vector<double>
CsvTable::numericColumn(const std::string& name) const
{
    const int idx = columnIndex(name);
    if (idx < 0)
        raise({ErrorCode::Schema, "no column named '" + name + "'",
               {source, 0, ""}});
    const auto col = static_cast<std::size_t>(idx);
    std::vector<double> out;
    out.reserve(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const SourceContext ctx{source, r + 1, name};
        const auto& row = rows[r];
        if (col >= row.size())
            raise({ErrorCode::Schema,
                   "row has " + std::to_string(row.size()) +
                       " cells but '" + name + "' is column " +
                       std::to_string(col + 1),
                   ctx});
        out.push_back(parseDouble(row[col]).orThrow(ctx));
    }
    return out;
}

std::string
csvEscape(const std::string& cell)
{
    const bool needsQuote =
        cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needsQuote)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
CsvWriter::writeHeader(const std::vector<std::string>& names)
{
    writeRow(names);
}

void
CsvWriter::writeRow(const std::vector<std::string>& cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            os_ << ',';
        os_ << csvEscape(cells[i]);
    }
    os_ << '\n';
}

void
CsvWriter::writeNumericRow(const std::vector<double>& cells)
{
    std::vector<std::string> strs;
    strs.reserve(cells.size());
    for (double v : cells) {
        std::ostringstream ss;
        ss.precision(17);
        ss << v;
        strs.push_back(ss.str());
    }
    writeRow(strs);
}

namespace {

/** Split one logical CSV record stream into cells, honoring quotes. */
std::vector<std::vector<std::string>>
parseRecords(const std::string& text)
{
    std::vector<std::vector<std::string>> records;
    std::vector<std::string> current;
    std::string cell;
    bool inQuotes = false;
    bool cellStarted = false;

    auto endCell = [&] {
        current.push_back(cell);
        cell.clear();
        cellStarted = false;
    };
    auto endRecord = [&] {
        if (cellStarted || !cell.empty() || !current.empty()) {
            endCell();
            records.push_back(current);
            current.clear();
        }
    };

    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (inQuotes) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    cell += '"';
                    ++i;
                } else {
                    inQuotes = false;
                }
            } else {
                cell += c;
            }
            continue;
        }
        switch (c) {
          case '"':
            inQuotes = true;
            cellStarted = true;
            break;
          case ',':
            cellStarted = true;
            endCell();
            cellStarted = true;
            break;
          case '\r':
            break;
          case '\n':
            endRecord();
            break;
          default:
            cellStarted = true;
            cell += c;
        }
    }
    endRecord();
    return records;
}

}  // namespace

CsvTable
parseCsv(const std::string& text, std::string source)
{
    CsvTable table;
    table.source = std::move(source);
    auto records = parseRecords(text);
    if (records.empty())
        return table;
    table.header = std::move(records.front());
    table.rows.assign(std::make_move_iterator(records.begin() + 1),
                      std::make_move_iterator(records.end()));
    return table;
}

CsvTable
readCsvFile(const std::string& path)
{
    return parseCsv(readWholeFile(path), path);
}

std::string
toCsv(const CsvTable& table)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.writeHeader(table.header);
    for (const auto& row : table.rows)
        w.writeRow(row);
    return os.str();
}

}  // namespace mapp
