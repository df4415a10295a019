/**
 * @file
 * The run-report generator behind `mapp_cli report`: consumes the
 * sidecar files a run leaves behind — the metrics registry JSON
 * (`--metrics-out`), the prediction provenance JSONL
 * (`--predictions-out`) and the Chrome trace (`--trace-out`) — and
 * renders one self-contained markdown document: the pipeline phase
 * tree, the campaign members whose spans cost the most wall time,
 * latency percentiles (p50/p95/p99 from histogram snapshots),
 * the prediction-error distribution, the highest-error predictions
 * with their provenance, and any feature-drift flags.
 */

#ifndef MAPP_OBS_REPORT_H
#define MAPP_OBS_REPORT_H

#include <string>

#include "common/error.h"
#include "obs/metrics.h"

namespace mapp::obs {

/** Sidecar paths feeding one report; empty = section omitted. */
struct RunReportInputs
{
    std::string metricsPath;      ///< registry JSON (required)
    std::string predictionsPath;  ///< prediction JSONL (optional)
    std::string tracePath;        ///< Chrome-trace JSON (optional)
};

/**
 * Rebuild a RegistrySnapshot from its toJson() document. @return a
 * located Parse/Schema error when the document is not a metrics
 * sidecar.
 */
Result<RegistrySnapshot> snapshotFromJson(const std::string& text,
                                          const std::string& label);

/**
 * Render the markdown run report. Fails with a located error when the
 * metrics sidecar is missing or malformed; the optional sidecars
 * degrade to a note in their section instead.
 */
Result<std::string> renderRunReport(const RunReportInputs& inputs);

}  // namespace mapp::obs

#endif  // MAPP_OBS_REPORT_H
