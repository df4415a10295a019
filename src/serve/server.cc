#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/json_util.h"
#include "predictor/quality.h"

namespace mapp::serve {

namespace {

/** Human message for a JobResult error code. */
std::string_view
jobErrorMessage(const std::string& code)
{
    if (code == "queue_full")
        return "request queue is full; retry later";
    if (code == "deadline_expired")
        return "deadline expired before the batch flushed";
    if (code == "shutting_down")
        return "service is draining";
    if (code == "bad_request")
        return "request carried no queries";
    return "prediction failed; see server log";
}

/** Protocol error code for a parse-boundary ErrorCode. */
std::string_view
requestErrorCode(ErrorCode code)
{
    return code == ErrorCode::Parse ? "parse" : "bad_request";
}

/**
 * Largest request line either transport buffers. A client that streams
 * this much without a newline is not speaking the protocol; the
 * transport answers one parse error and hangs up rather than growing
 * without bound.
 */
constexpr std::size_t kMaxLineBytes = 8u << 20;

}  // namespace

/** One accepted socket client: its fd, write lock and reader thread. */
struct Server::Connection
{
    int fd = -1;
    std::mutex writeMutex;  ///< serializes responses; guards fd close
    bool closed = false;    ///< under writeMutex
    std::thread reader;

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /**
     * Write one response line. Late micro-batch callbacks may land
     * after the client vanished; a closed connection swallows them
     * (the client cannot read the answer anyway).
     */
    void respond(std::string line)
    {
        line += '\n';
        std::lock_guard<std::mutex> lock(writeMutex);
        if (closed)
            return;
        std::size_t sent = 0;
        while (sent < line.size()) {
            // MSG_NOSIGNAL: a disconnected peer must be an EPIPE
            // error, not a process-killing SIGPIPE.
            const auto n =
                ::send(fd, line.data() + sent, line.size() - sent,
                       MSG_NOSIGNAL);
            if (n <= 0)
                return;
            sent += static_cast<std::size_t>(n);
        }
    }
};

Server::Server(PredictionService& service,
               predictor::DataCollector& collector)
    : service_(service), collector_(collector)
{
    if (::pipe(stopPipe_) != 0)
        fatal(std::string("serve: cannot create stop pipe: ") +
              std::strerror(errno));
}

Server::~Server()
{
    requestStop();
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        for (auto& connection : connections_)
            if (connection->reader.joinable())
                connection->reader.join();
        connections_.clear();
    }
    ::close(stopPipe_[0]);
    ::close(stopPipe_[1]);
}

void
Server::requestStop()
{
    if (stopRequested_.exchange(true))
        return;
    const char wake = 1;
    // Best effort: the pipe only exists to interrupt a blocked poll().
    [[maybe_unused]] const auto n = ::write(stopPipe_[1], &wake, 1);
}

Result<std::vector<predictor::BagQuery>>
Server::resolveQueries(const std::vector<QuerySpec>& specs)
{
    std::vector<predictor::BagQuery> rows;
    rows.reserve(specs.size());
    for (const auto& spec : specs) {
        if (!spec.byMembers) {
            rows.push_back(spec.raw);
            continue;
        }
        // Member form: resolve exactly like the one-shot CLI predict —
        // canonical bag order, collector-cached per-app features, and
        // the measured Equation-2 fairness unless the client overrode
        // it. This keeps serve answers bit-identical to cold predicts.
        const auto bag =
            predictor::BagSpec{spec.a, spec.b}.canonical();
        try {
            predictor::BagQuery query;
            query.a = collector_.appFeatures(bag.a);
            query.b = collector_.appFeatures(bag.b);
            query.fairness = spec.fairnessProvided
                                 ? spec.raw.fairness
                                 : collector_.measureFairness(bag);
            rows.push_back(std::move(query));
        } catch (const std::exception& e) {
            return Error(ErrorCode::InvalidArgument, e.what(),
                         {bag.label(), 0, ""});
        }
    }
    return rows;
}

std::string
Server::handleQuality(const Request& request)
{
    const auto snapshot = obs::defaultRegistry().snapshot();
    std::string fields = "\"mape_pct\":";
    const double* mape = snapshot.findGauge("predictor.quality.mape_pct");
    obs::appendJsonNumber(fields, mape != nullptr ? *mape : 0.0);
    fields += ",\"pairs\":" +
              std::to_string(
                  predictor::ModelQualityMonitor::global().pairsSeen());
    fields += ",\"drift\":[";
    bool first = true;
    for (const auto& flag :
         predictor::ModelQualityMonitor::global().driftFlags()) {
        if (!first)
            fields += ',';
        first = false;
        fields += "{\"feature\":";
        obs::appendJsonString(fields, flag.feature);
        fields += ",\"oor_frac\":";
        obs::appendJsonNumber(fields, flag.outOfRangeFraction);
        fields += ",\"rows\":" + std::to_string(flag.rowsSeen) + "}";
    }
    fields += ']';
    return objectResponse(request.id, RequestOp::Quality, fields);
}

std::string
Server::handleStats(const Request& request)
{
    const auto snapshot = obs::defaultRegistry().snapshot();
    const auto counter = [&snapshot](const char* name) {
        const auto* v = snapshot.findCounter(name);
        return v != nullptr ? *v : std::uint64_t{0};
    };
    std::string fields;
    fields += "\"epoch\":" + std::to_string(service_.epoch());
    fields += ",\"queued_rows\":" +
              std::to_string(service_.queuedRows());
    fields += ",\"requests\":" +
              std::to_string(counter("serve.requests"));
    fields += ",\"predictions\":" +
              std::to_string(counter("serve.predictions"));
    fields += ",\"batches\":" + std::to_string(counter("serve.batches"));
    fields += ",\"rejected_full\":" +
              std::to_string(counter("serve.rejected_full"));
    fields += ",\"deadline_expired\":" +
              std::to_string(counter("serve.deadline_expired"));
    fields += ",\"reloads\":" + std::to_string(counter("serve.reloads"));
    return objectResponse(request.id, RequestOp::Stats, fields);
}

std::string
Server::handleMetrics(const Request& request)
{
    std::string fields = "\"prometheus\":";
    obs::appendJsonString(
        fields, obs::writePrometheus(obs::defaultRegistry().snapshot()));
    return objectResponse(request.id, RequestOp::Metrics, fields);
}

std::string
Server::handleReload(const Request& request)
{
    try {
        return reloadResponse(request.id, service_.reload());
    } catch (const std::exception& e) {
        return errorResponse(request.id, "internal", e.what());
    }
}

void
Server::handleLine(std::string_view line,
                   const std::function<void(std::string)>& respond)
{
    auto parsed = parseRequest(line);
    if (!parsed) {
        respond(errorResponse("",
                              requestErrorCode(parsed.error().code()),
                              parsed.error().toString()));
        return;
    }
    Request request = std::move(parsed).value();
    switch (request.op) {
      case RequestOp::Ping:
        respond(ackResponse(request.id, request.op));
        return;
      case RequestOp::Quality:
        respond(handleQuality(request));
        return;
      case RequestOp::Stats:
        respond(handleStats(request));
        return;
      case RequestOp::Metrics:
        respond(handleMetrics(request));
        return;
      case RequestOp::Reload:
        respond(handleReload(request));
        return;
      case RequestOp::Shutdown:
        respond(ackResponse(request.id, request.op));
        sawShutdownOp_.store(true, std::memory_order_relaxed);
        requestStop();
        return;
      case RequestOp::Predict:
      case RequestOp::PredictBatch:
        break;
    }

    // Feature resolution may simulate unseen members; it runs on the
    // transport thread so a cold member never stalls the batch worker.
    auto rows = resolveQueries(request.queries);
    if (!rows) {
        respond(errorResponse(request.id, "bad_request",
                              rows.error().toString()));
        return;
    }
    const RequestOp op = request.op;
    const std::string id = request.id;
    service_.submit(
        std::move(rows).value(), request.deadlineMs,
        [respond, id, op](JobResult result) {
            if (result.ok)
                respond(predictResponse(id, op, result.predictedSeconds,
                                        result.epoch, result.queueUs));
            else
                respond(errorResponse(id, result.error,
                                      jobErrorMessage(result.error)));
        });
}

StopCause
Server::serveStdio()
{
    auto writeMutex = std::make_shared<std::mutex>();
    const std::function<void(std::string)> respond =
        [writeMutex](std::string line) {
            line += '\n';
            std::lock_guard<std::mutex> lock(*writeMutex);
            std::fwrite(line.data(), 1, line.size(), stdout);
            std::fflush(stdout);
        };

    std::string buffer;
    char chunk[4096];
    while (!stopRequested_.load(std::memory_order_relaxed)) {
        struct pollfd fds[2] = {
            {STDIN_FILENO, POLLIN, 0},
            {stopPipe_[0], POLLIN, 0},
        };
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn(std::string("serve: poll failed: ") +
                 std::strerror(errno));
            break;
        }
        if ((fds[1].revents & POLLIN) != 0)
            break;  // requestStop() woke us
        const auto n = ::read(STDIN_FILENO, chunk, sizeof chunk);
        if (n <= 0)
            break;  // EOF (or a read error: treat the same)
        buffer.append(chunk, static_cast<std::size_t>(n));
        if (buffer.size() > kMaxLineBytes) {
            respond(errorResponse("", "parse",
                                  "request line exceeds the size cap"));
            break;
        }
        std::size_t pos = 0;
        while ((pos = buffer.find('\n')) != std::string::npos &&
               !stopRequested_.load(std::memory_order_relaxed)) {
            const std::string line = buffer.substr(0, pos);
            buffer.erase(0, pos + 1);
            if (!line.empty())
                handleLine(line, respond);
        }
    }

    // Answer everything already admitted before the transport dies:
    // every pending callback fires inside drain(), and the respond
    // lambda keeps the write mutex alive via shared_ptr.
    service_.drain();
    if (sawShutdownOp_.load(std::memory_order_relaxed))
        return StopCause::Shutdown;
    return stopRequested_.load(std::memory_order_relaxed)
               ? StopCause::Signal
               : StopCause::Eof;
}

void
Server::connectionLoop(std::shared_ptr<Connection> connection)
{
    const std::function<void(std::string)> respond =
        [connection](std::string line) {
            connection->respond(std::move(line));
        };
    std::string buffer;
    char chunk[4096];
    for (;;) {
        const auto n =
            ::recv(connection->fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            break;  // client closed, or stop path shut the socket down
        buffer.append(chunk, static_cast<std::size_t>(n));
        if (buffer.size() > kMaxLineBytes) {
            respond(errorResponse("", "parse",
                                  "request line exceeds the size cap"));
            break;
        }
        std::size_t pos = 0;
        while ((pos = buffer.find('\n')) != std::string::npos) {
            const std::string line = buffer.substr(0, pos);
            buffer.erase(0, pos + 1);
            if (!line.empty())
                handleLine(line, respond);
        }
    }
}

StopCause
Server::serveSocket(const std::string& path)
{
    const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        fatal(std::string("serve: cannot create socket: ") +
              std::strerror(errno));

    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.size() >= sizeof(address.sun_path)) {
        ::close(listenFd);
        fatal("serve: socket path too long: " + path);
    }
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());  // stale socket from a previous run
    if (::bind(listenFd, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0 ||
        ::listen(listenFd, 64) != 0) {
        const std::string why = std::strerror(errno);
        ::close(listenFd);
        fatal("serve: cannot bind " + path + ": " + why);
    }
    inform("serving on " + path);

    while (!stopRequested_.load(std::memory_order_relaxed)) {
        struct pollfd fds[2] = {
            {listenFd, POLLIN, 0},
            {stopPipe_[0], POLLIN, 0},
        };
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn(std::string("serve: poll failed: ") +
                 std::strerror(errno));
            break;
        }
        if ((fds[1].revents & POLLIN) != 0)
            break;
        const int clientFd = ::accept(listenFd, nullptr, nullptr);
        if (clientFd < 0)
            continue;
        auto connection = std::make_shared<Connection>();
        connection->fd = clientFd;
        {
            std::lock_guard<std::mutex> lock(connectionsMutex_);
            connections_.push_back(connection);
        }
        connection->reader = std::thread(
            [this, connection] { connectionLoop(connection); });
    }

    ::close(listenFd);
    // Wake blocked readers, join them, then drain so every admitted
    // job still answers on its (now read-closed) connection.
    std::vector<std::shared_ptr<Connection>> connections;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        connections.swap(connections_);
    }
    for (auto& connection : connections)
        ::shutdown(connection->fd, SHUT_RD);
    for (auto& connection : connections)
        if (connection->reader.joinable())
            connection->reader.join();
    service_.drain();
    for (auto& connection : connections) {
        std::lock_guard<std::mutex> lock(connection->writeMutex);
        connection->closed = true;
        ::close(connection->fd);
        connection->fd = -1;
    }
    ::unlink(path.c_str());
    return sawShutdownOp_.load(std::memory_order_relaxed)
               ? StopCause::Shutdown
               : StopCause::Signal;
}

}  // namespace mapp::serve
