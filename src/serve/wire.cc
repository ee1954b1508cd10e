#include "serve/wire.hh"

#include "data/binary_io.hh"

namespace wct::serve
{

namespace
{

/** Sanity caps so a corrupt count never turns into a huge alloc.
 * The row cap is sized so a full predict response (16 bytes/row)
 * stays under kMaxFramePayload. */
constexpr std::uint64_t kMaxColumns = 1u << 16;
constexpr std::uint64_t kMaxRowsPerRequest = 1u << 23;
static_assert(kMaxRowsPerRequest * 16 < kMaxFramePayload,
              "a maximal predict response must fit in one frame");

std::string_view
magic()
{
    return std::string_view(kWireMagic, 8);
}

bool
fail(std::string *err, const char *message)
{
    if (err != nullptr)
        *err = message;
    return false;
}

bool
validOpcode(std::uint8_t op)
{
    return op >= 1 && op <= kNumOpcodes;
}

std::string
sealed(const ByteSink &sink)
{
    return sealEnvelope(magic(), kWireFormatVersion, {sink.bytes()});
}

} // namespace

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Predict:
        return "predict";
      case Opcode::Classify:
        return "classify";
      case Opcode::LoadModel:
        return "loadModel";
      case Opcode::Stats:
        return "stats";
      case Opcode::Shutdown:
        return "shutdown";
    }
    return "unknown";
}

const char *
statusName(Status status)
{
    switch (status) {
      case Status::Ok:
        return "ok";
      case Status::Error:
        return "error";
      case Status::Overloaded:
        return "overloaded";
      case Status::ShuttingDown:
        return "shuttingDown";
      case Status::MalformedFrame:
        return "malformedFrame";
      case Status::Shed:
        return "shed";
      case Status::DeadlineExceeded:
        return "deadlineExceeded";
    }
    return "unknown";
}

std::string
encodeRequest(const Request &request)
{
    ByteSink sink;
    sink.putU8(static_cast<std::uint8_t>(request.op));
    sink.putU64(request.id);
    sink.putU32(request.budgetMs);
    switch (request.op) {
      case Opcode::Predict:
      case Opcode::Classify: {
        sink.putString(request.modelKey);
        sink.putU64(request.schema.size());
        for (const std::string &name : request.schema)
            sink.putString(name);
        const std::size_t cols = request.schema.size();
        const std::size_t rows =
            cols == 0 ? 0 : request.rows.size() / cols;
        sink.putU64(rows);
        for (std::size_t i = 0; i < rows * cols; ++i)
            sink.putDouble(request.rows[i]);
        break;
      }
      case Opcode::LoadModel:
        sink.putString(request.path);
        sink.putString(request.alias);
        break;
      case Opcode::Stats:
      case Opcode::Shutdown:
        break;
    }
    return sealed(sink);
}

std::string
encodeResponse(const Response &response)
{
    ByteSink sink;
    sink.putU8(static_cast<std::uint8_t>(response.op));
    sink.putU64(response.id);
    sink.putU8(static_cast<std::uint8_t>(response.status));
    if (response.status != Status::Ok) {
        sink.putString(response.error);
        return sealed(sink);
    }
    switch (response.op) {
      case Opcode::Predict:
        sink.putU64(response.cpi.size());
        for (std::size_t i = 0; i < response.cpi.size(); ++i) {
            sink.putDouble(response.cpi[i]);
            sink.putU64(response.leaf[i]);
        }
        break;
      case Opcode::Classify:
        sink.putU64(response.leaf.size());
        for (std::uint64_t leaf : response.leaf)
            sink.putU64(leaf);
        break;
      case Opcode::LoadModel:
        sink.putString(response.modelKey);
        sink.putString(response.target);
        sink.putU64(response.numLeaves);
        break;
      case Opcode::Stats:
        appendSnapshot(sink, response.stats);
        break;
      case Opcode::Shutdown:
        break;
    }
    return sealed(sink);
}

std::optional<Request>
decodeRequest(std::string_view payload, std::string *err)
{
    ByteParser parser(payload);
    Request request;
    std::uint8_t op = 0;
    if (!parser.getU8(op) || !validOpcode(op) ||
        !parser.getU64(request.id) ||
        !parser.getU32(request.budgetMs)) {
        fail(err, "request: bad opcode header");
        return std::nullopt;
    }
    request.op = static_cast<Opcode>(op);
    switch (request.op) {
      case Opcode::Predict:
      case Opcode::Classify: {
        std::uint64_t cols = 0;
        if (!parser.getString(request.modelKey) ||
            !parser.getU64(cols) || cols == 0 || cols > kMaxColumns) {
            fail(err, "request: bad predict header");
            return std::nullopt;
        }
        request.schema.resize(cols);
        for (std::string &name : request.schema)
            if (!parser.getString(name) || name.empty()) {
                fail(err, "request: bad schema name");
                return std::nullopt;
            }
        std::uint64_t rows = 0;
        // The cells must actually be present in the payload; checking
        // before the resize keeps a short hostile frame from turning
        // its claimed row count into a giant allocation.
        if (!parser.getU64(rows) || rows > kMaxRowsPerRequest ||
            rows * cols > payload.size() / sizeof(double)) {
            fail(err, "request: bad row count");
            return std::nullopt;
        }
        request.rows.resize(rows * cols);
        for (double &v : request.rows)
            if (!parser.getDouble(v)) {
                fail(err, "request: truncated rows");
                return std::nullopt;
            }
        break;
      }
      case Opcode::LoadModel:
        if (!parser.getString(request.path) ||
            !parser.getString(request.alias) ||
            request.path.empty()) {
            fail(err, "request: bad loadModel body");
            return std::nullopt;
        }
        break;
      case Opcode::Stats:
      case Opcode::Shutdown:
        break;
    }
    if (!parser.atEnd()) {
        fail(err, "request: trailing bytes");
        return std::nullopt;
    }
    return request;
}

std::optional<Response>
decodeResponse(std::string_view payload, std::string *err)
{
    ByteParser parser(payload);
    Response response;
    std::uint8_t op = 0;
    std::uint8_t status = 0;
    if (!parser.getU8(op) || !validOpcode(op) ||
        !parser.getU64(response.id) || !parser.getU8(status) ||
        status >= kNumStatuses) {
        fail(err, "response: bad header");
        return std::nullopt;
    }
    response.op = static_cast<Opcode>(op);
    response.status = static_cast<Status>(status);
    if (response.status != Status::Ok) {
        if (!parser.getString(response.error) || !parser.atEnd()) {
            fail(err, "response: bad error body");
            return std::nullopt;
        }
        return response;
    }
    switch (response.op) {
      case Opcode::Predict: {
        std::uint64_t n = 0;
        if (!parser.getU64(n) || n > kMaxRowsPerRequest ||
            n > payload.size() / (2 * sizeof(double))) {
            fail(err, "response: bad predict count");
            return std::nullopt;
        }
        response.cpi.resize(n);
        response.leaf.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            if (!parser.getDouble(response.cpi[i]) ||
                !parser.getU64(response.leaf[i])) {
                fail(err, "response: truncated predictions");
                return std::nullopt;
            }
        break;
      }
      case Opcode::Classify: {
        std::uint64_t n = 0;
        if (!parser.getU64(n) || n > kMaxRowsPerRequest ||
            n > payload.size() / sizeof(std::uint64_t)) {
            fail(err, "response: bad classify count");
            return std::nullopt;
        }
        response.leaf.resize(n);
        for (auto &leaf : response.leaf)
            if (!parser.getU64(leaf)) {
                fail(err, "response: truncated classes");
                return std::nullopt;
            }
        break;
      }
      case Opcode::LoadModel:
        if (!parser.getString(response.modelKey) ||
            !parser.getString(response.target) ||
            !parser.getU64(response.numLeaves)) {
            fail(err, "response: bad loadModel body");
            return std::nullopt;
        }
        break;
      case Opcode::Stats:
        if (!parseSnapshot(parser, response.stats)) {
            fail(err, "response: bad stats body");
            return std::nullopt;
        }
        break;
      case Opcode::Shutdown:
        break;
    }
    if (!parser.atEnd()) {
        fail(err, "response: trailing bytes");
        return std::nullopt;
    }
    return response;
}

std::optional<std::string>
readFrame(std::istream &in)
{
    return readEnvelope(in, magic(), kWireFormatVersion,
                        kMaxFramePayload);
}

} // namespace wct::serve
