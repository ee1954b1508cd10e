#include "serve/server.hh"

#include <chrono>

#include "data/binary_io.hh"

namespace wct::serve
{

namespace
{

Response
errorResponse(const Request &request, Status status,
              std::string message)
{
    Response response;
    response.op = request.op;
    response.id = request.id;
    response.status = status;
    response.error = std::move(message);
    return response;
}

} // namespace

Server::Server(ServerConfig config)
    : config_(config), queue_(std::max<std::size_t>(
                           1, config.queueDepth)),
      engine_(queue_, metrics_, config.maxBatch)
{
    if (config_.startEngine)
        startEngine();
}

void
Server::startEngine()
{
    if (engineStarted_.exchange(true, std::memory_order_acq_rel))
        return;
    engine_.start();
}

Server::~Server()
{
    engine_.stop();
}

bool
Server::loadModel(const std::string &path, const std::string &alias,
                  ModelInfo *info, std::string *err)
{
    const bool ok = registry_.loadFile(path, alias, info, err);
    metrics_.countModelLoad(ok);
    return ok;
}

bool
Server::loadModelFromStore(const ArtifactStore &store,
                           const std::string &keyHex,
                           const std::string &alias, ModelInfo *info,
                           std::string *err)
{
    const bool ok =
        registry_.loadFromStore(store, keyHex, alias, info, err);
    metrics_.countModelLoad(ok);
    return ok;
}

std::string
Server::handleFrame(std::string_view frame)
{
    const EnvelopeScan scan =
        scanEnvelope(frame, std::string_view(kWireMagic, 8),
                     kWireFormatVersion, kMaxFramePayload);
    if (scan.state != EnvelopeScan::Complete)
        return malformedResponse(
            "bad frame envelope (magic, version, or checksum)");
    return handlePayload(scan.payload);
}

std::string
Server::handlePayload(std::string_view payload)
{
    std::string decode_err;
    auto request = decodeRequest(payload, &decode_err);
    if (!request)
        return malformedResponse(decode_err);
    return encodeResponse(handleRequest(std::move(*request)));
}

std::string
Server::malformedResponse(const std::string &reason)
{
    metrics_.countMalformedFrame();
    Response response;
    response.op = Opcode::Predict; // true opcode unknown
    response.id = 0;
    response.status = Status::MalformedFrame;
    response.error = reason;
    metrics_.countResponse(
        static_cast<std::uint8_t>(response.status));
    return encodeResponse(response);
}

Response
Server::handleRequest(Request &&request)
{
    metrics_.countRequest(static_cast<std::uint8_t>(request.op));
    Response response;
    switch (request.op) {
      case Opcode::Predict:
      case Opcode::Classify:
        response = admitInference(std::move(request));
        break;
      case Opcode::LoadModel: {
        if (!config_.allowRemoteLoad) {
            response = errorResponse(request, Status::Error,
                                     "loadModel is disabled on this "
                                     "server");
            break;
        }
        ModelInfo info;
        std::string err;
        if (loadModel(request.path, request.alias, &info, &err)) {
            response.op = request.op;
            response.id = request.id;
            response.status = Status::Ok;
            response.modelKey = info.key;
            response.target = info.target;
            response.numLeaves = info.numLeaves;
        } else {
            response = errorResponse(request, Status::Error, err);
        }
        break;
      }
      case Opcode::Stats:
        response.op = request.op;
        response.id = request.id;
        response.status = Status::Ok;
        response.stats = stats();
        break;
      case Opcode::Shutdown:
        if (!config_.allowRemoteShutdown) {
            response = errorResponse(request, Status::Error,
                                     "shutdown is disabled on this "
                                     "server");
            break;
        }
        beginShutdown();
        response.op = request.op;
        response.id = request.id;
        response.status = Status::Ok;
        break;
    }
    metrics_.countResponse(
        static_cast<std::uint8_t>(response.status));
    return response;
}

std::uint64_t
Server::sloForOp(Opcode op) const
{
    switch (op) {
      case Opcode::Predict:
        return config_.sloPredictP99Us;
      case Opcode::Classify:
        return config_.sloClassifyP99Us;
      default:
        return 0;
    }
}

Response
Server::admitInference(Request &&request)
{
    if (shuttingDown())
        return errorResponse(request, Status::ShuttingDown,
                             "server is draining");

    // Latency-aware admission: when this op class's sliding-window
    // p99 has drifted past its SLO, new requests of the class are
    // shed up front — the classes that are still inside their SLO
    // keep queueing normally, and the shed class recovers as soon as
    // its window p99 comes back under the target.
    const std::uint64_t slo = sloForOp(request.op);
    if (slo > 0) {
        std::uint64_t samples = 0;
        const double p99 = metrics_.classWindowP99Us(
            static_cast<std::uint8_t>(request.op), &samples);
        if (samples >= config_.sloMinSamples &&
            p99 > static_cast<double>(slo)) {
            metrics_.countShed(
                static_cast<std::uint8_t>(request.op));
            return errorResponse(
                request, Status::Shed,
                std::string(opcodeName(request.op)) +
                    " p99 is over its latency SLO; shedding, retry "
                    "later");
        }
    }

    auto tree = registry_.find(request.modelKey);
    if (tree == nullptr)
        return errorResponse(
            request, Status::Error,
            request.modelKey.empty()
                ? "no model loaded"
                : "unknown model '" + request.modelKey + "'");
    if (request.schema != tree->schema())
        return errorResponse(
            request, Status::Error,
            "request schema does not match the schema model '" +
                (request.modelKey.empty() ? std::string("default")
                                          : request.modelKey) +
                "' was trained on");

    Job job;
    job.request = std::move(request);
    job.tree = std::move(tree);
    job.admitted = std::chrono::steady_clock::now();

    // Budget resolution: the client's ask, clamped by the server's
    // cap, falling back to the server's default. 0 = no deadline.
    std::uint64_t budget_ms = job.request.budgetMs;
    if (config_.maxDeadlineMs > 0 && budget_ms > config_.maxDeadlineMs)
        budget_ms = config_.maxDeadlineMs;
    if (budget_ms == 0)
        budget_ms = config_.defaultDeadlineMs;
    if (budget_ms > 0)
        job.deadline =
            job.admitted + std::chrono::milliseconds(budget_ms);

    std::future<Response> future = job.result.get_future();
    const Opcode op = job.request.op;
    const std::uint64_t id = job.request.id;
    const auto deadline = job.deadline;

    const PushResult pushed = queue_.push(std::move(job));
    if (pushed == PushResult::Overloaded) {
        metrics_.countRejectedOverload();
        Request stub;
        stub.op = op;
        stub.id = id;
        return errorResponse(stub, Status::Overloaded,
                             "admission queue is full; retry");
    }
    if (pushed == PushResult::Closed) {
        Request stub;
        stub.op = op;
        stub.id = id;
        return errorResponse(stub, Status::ShuttingDown,
                             "server is draining");
    }
    metrics_.recordQueueDepth(queue_.depth());
    Response response = future.get();

    // Deadline check before the response write: a result that became
    // ready only after the budget ran out is discarded — the client
    // asked for an answer by the deadline, and an expired request
    // never returns a stale result.
    if (deadline && response.status == Status::Ok &&
        std::chrono::steady_clock::now() > *deadline) {
        metrics_.countDeadlineExpired(static_cast<std::uint8_t>(op));
        Request stub;
        stub.op = op;
        stub.id = id;
        return errorResponse(stub, Status::DeadlineExceeded,
                             "deadline expired before the response "
                             "was written");
    }
    return response;
}

void
Server::beginShutdown()
{
    shuttingDown_.store(true, std::memory_order_release);
    queue_.close();
}

void
Server::drain()
{
    engine_.stop();
}

MetricsSnapshot
Server::stats() const
{
    return metrics_.snapshot(queue_.depth());
}

} // namespace wct::serve
