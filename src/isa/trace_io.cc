#include "isa/trace_io.h"

#include <limits>
#include <sstream>

#include "common/csv.h"
#include "common/error.h"
#include "common/file_io.h"
#include "common/log.h"
#include "common/parse.h"

namespace mapp::isa {

namespace {

std::vector<std::string>
header()
{
    std::vector<std::string> cols{"app", "batch", "phase"};
    for (InstClass c : kAllInstClasses)
        cols.push_back(instClassName(c));
    for (const char* extra :
         {"bytes_read", "bytes_written", "footprint", "parallel",
          "work_items", "locality", "divergence", "launches",
          "host_staged"}) {
        cols.emplace_back(extra);
    }
    return cols;
}

}  // namespace

std::string
traceToCsv(const WorkloadTrace& trace)
{
    std::ostringstream os;
    CsvWriter writer(os);
    writer.writeHeader(header());
    for (const auto& p : trace.phases()) {
        std::vector<std::string> row{trace.app(),
                                     std::to_string(trace.batchSize()),
                                     p.name};
        for (InstClass c : kAllInstClasses)
            row.push_back(std::to_string(p.mix.count(c)));
        row.push_back(std::to_string(p.bytesRead));
        row.push_back(std::to_string(p.bytesWritten));
        row.push_back(std::to_string(p.footprint));
        row.push_back(std::to_string(p.parallelFraction));
        row.push_back(std::to_string(p.workItems));
        row.push_back(std::to_string(p.locality));
        row.push_back(std::to_string(p.branchDivergence));
        row.push_back(std::to_string(p.launches));
        row.push_back(p.hostStaged ? "1" : "0");
        writer.writeRow(row);
    }
    return os.str();
}

WorkloadTrace
traceFromCsv(const std::string& text, const std::string& source)
{
    const CsvTable table = parseCsv(text, source);
    const auto expected = header();
    if (table.header != expected)
        raise({ErrorCode::Schema,
               "unexpected trace header (" +
                   std::to_string(table.header.size()) + " columns, " +
                   std::to_string(expected.size()) +
                   " expected starting 'app,batch,phase')",
               {source, 0, ""}});
    if (table.rows.empty())
        raise({ErrorCode::Schema, "trace has no phases", {source, 0, ""}});

    auto col = [&](const std::string& name) {
        // The full header matched above, so the column must exist.
        const int idx = table.columnIndex(name);
        if (idx < 0)
            panic("traceFromCsv: missing column " + name);
        return static_cast<std::size_t>(idx);
    };
    // Cell accessors carrying (source, row, column) into every error.
    auto cellAt = [&](std::size_t r, const std::string& name) {
        return table.rows[r][col(name)];
    };
    auto ctxAt = [&](std::size_t r, const std::string& name) {
        return SourceContext{source, r + 1, name};
    };
    auto countAt = [&](std::size_t r, const std::string& name) {
        return parseUnsigned(cellAt(r, name)).orThrow(ctxAt(r, name));
    };
    auto fractionAt = [&](std::size_t r, const std::string& name) {
        return parseDouble(cellAt(r, name)).orThrow(ctxAt(r, name));
    };

    WorkloadTrace trace(
        cellAt(0, "app"),
        parseBoundedInt(cellAt(0, "batch"), 1,
                        std::numeric_limits<int>::max())
            .orThrow(ctxAt(0, "batch")));
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        const auto& row = table.rows[r];
        if (row.size() != expected.size())
            raise({ErrorCode::Schema,
                   "row has " + std::to_string(row.size()) +
                       " cells, expected " +
                       std::to_string(expected.size()),
                   {source, r + 1, ""}});
        KernelPhase p;
        p.name = cellAt(r, "phase");
        for (InstClass c : kAllInstClasses) {
            p.mix.add(c, static_cast<InstCount>(
                             countAt(r, instClassName(c))));
        }
        p.bytesRead = countAt(r, "bytes_read");
        p.bytesWritten = countAt(r, "bytes_written");
        p.footprint = countAt(r, "footprint");
        p.parallelFraction = fractionAt(r, "parallel");
        p.workItems = countAt(r, "work_items");
        p.locality = fractionAt(r, "locality");
        p.branchDivergence = fractionAt(r, "divergence");
        p.launches = countAt(r, "launches");
        const std::string& staged = cellAt(r, "host_staged");
        if (staged != "0" && staged != "1")
            raise({ErrorCode::Parse,
                   "host_staged must be 0 or 1, got '" + staged + "'",
                   ctxAt(r, "host_staged")});
        p.hostStaged = staged == "1";
        try {
            trace.append(std::move(p));  // validates the phase
        } catch (const InputError&) {
            throw;
        } catch (const FatalError& e) {
            raise({ErrorCode::Range, e.what(), {source, r + 1, ""}});
        }
    }
    return trace;
}

void
writeTraceFile(const WorkloadTrace& trace, const std::string& path)
{
    if (!writeFileAtomic(path, traceToCsv(trace)))
        raise({ErrorCode::Io, "cannot write file", {path, 0, ""}});
}

WorkloadTrace
readTraceFile(const std::string& path)
{
    return traceFromCsv(readWholeFile(path), path);
}

}  // namespace mapp::isa
