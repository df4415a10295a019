/**
 * @file
 * The wire protocol of the resident prediction service: newline
 * delimited JSON, one request object in, exactly one response object
 * out. Responses are NOT strictly ordered: predictions answer when
 * their micro-batch flushes, so a synchronous op (ping, stats) sent
 * after a predict may be answered first — clients correlate by "id".
 * The same codec serves the Unix-domain socket transport and the
 * stdin/stdout transport.
 *
 * Requests ({"op": ..., "id": ...}; id is echoed verbatim):
 *   ping           liveness probe
 *   predict        one bag query: members "a"/"b" either as
 *                  "BENCH@BATCH" strings (features resolved from the
 *                  server's collector; optional "fairness" override)
 *                  or as raw feature objects {"cpu_time", "gpu_time",
 *                  "mix": [...]} with a required top-level "fairness".
 *                  Optional "deadline_ms" bounds the queue wait.
 *   predict_batch  "queries": array of the predict shapes above,
 *                  answered as one coalesced prediction batch
 *   quality        model-quality snapshot (MAPE, pairs, drift flags)
 *   stats          serve counters + queue depth + model epoch
 *   metrics        Prometheus text exposition of the whole registry
 *   reload         rebuild the model from the artifact cache and swap
 *                  it in without blocking in-flight batches
 *   shutdown       acknowledge, then drain the service and exit
 *
 * Responses: {"id", "ok": true, "op", ...} on success;
 * {"id", "ok": false, "error": <code>, "message"} on failure with
 * error codes parse | bad_request | queue_full | deadline_expired |
 * shutting_down | internal.
 */

#ifndef MAPP_SERVE_PROTOCOL_H
#define MAPP_SERVE_PROTOCOL_H

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"

namespace mapp::serve {

/** Request verbs of the serve protocol. */
enum class RequestOp {
    Ping,
    Predict,
    PredictBatch,
    Quality,
    Stats,
    Metrics,
    Reload,
    Shutdown,
};

/** The op verb as its wire spelling. */
std::string_view requestOpName(RequestOp op);

/**
 * One bag query as it arrived: either member references (resolved to
 * features by the server's collector) or a fully specified raw query.
 */
struct QuerySpec
{
    bool byMembers = false;

    /** Member form ("SIFT@40"); valid when byMembers. */
    predictor::BagMember a;
    predictor::BagMember b;

    /**
     * Raw form: features filled from the request when !byMembers; the
     * member form fills it at resolve time. raw.fairness is only
     * meaningful when fairnessProvided (member-form requests may omit
     * it and have the server measure Equation 2).
     */
    predictor::BagQuery raw;
    bool fairnessProvided = false;
};

/** One parsed request line. */
struct Request
{
    RequestOp op = RequestOp::Ping;
    std::string id;          ///< echoed verbatim; may be empty
    double deadlineMs = 0.0; ///< 0 = no per-request deadline
    std::vector<QuerySpec> queries;  ///< predict: 1, predict_batch: n
};

/**
 * Parse one request line in a single pass, straight into the Request
 * (no JSON DOM; unknown members are checked and skipped, a repeated
 * member keeps its first value). Malformed JSON, an unknown op, a bad
 * member spec or a raw query with missing/non-finite fields all return
 * a located ErrorCode::Parse error — the transport turns it into an
 * "ok": false response instead of dropping the connection.
 */
Result<Request> parseRequest(std::string_view line,
                             const std::string& source_label = "client");

/** {"id",...,"ok":false,"error":code,"message":...} (no newline). */
std::string errorResponse(const std::string& id, std::string_view code,
                          std::string_view message);

/** Success ack carrying only the op (ping, shutdown). */
std::string ackResponse(const std::string& id, RequestOp op);

/**
 * Predict success: scalar "predicted_seconds" for a single-query
 * predict, an array for predict_batch, plus the serving model's epoch
 * and the request's queue wait in microseconds.
 */
std::string predictResponse(const std::string& id, RequestOp op,
                            std::span<const double> predictedSeconds,
                            std::uint64_t epoch, double queueUs);

/** Reload success: the new model epoch. */
std::string reloadResponse(const std::string& id, std::uint64_t epoch);

/** A generic success response with pre-rendered JSON fields. */
std::string objectResponse(const std::string& id, RequestOp op,
                           const std::string& renderedFields);

}  // namespace mapp::serve

#endif  // MAPP_SERVE_PROTOCOL_H
