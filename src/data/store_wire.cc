#include "data/store_wire.hh"

namespace wct
{

namespace
{

std::string_view
storeMagic()
{
    return std::string_view(kStoreWireMagic, 8);
}

bool
fail(std::string *err, const char *reason)
{
    if (err != nullptr)
        *err = reason;
    return false;
}

bool
validOp(std::uint8_t raw)
{
    return raw >= static_cast<std::uint8_t>(StoreOp::Load) &&
           raw <= static_cast<std::uint8_t>(StoreOp::Remove);
}

/** Parse `kind:str key:u64` with the kind validated at the trust
 * boundary: a hostile kind must never become a file-name component
 * on either end of the connection. */
bool
parseArtifactId(ByteParser &parser, ArtifactId &id, std::string *err)
{
    if (!parser.getString(id.kind) || !parser.getU64(id.key))
        return fail(err, "truncated artifact id");
    if (!validArtifactKind(id.kind))
        return fail(err, "invalid artifact kind");
    return true;
}

void
appendArtifactId(ByteSink &sink, const ArtifactId &id)
{
    sink.putString(id.kind);
    sink.putU64(id.key);
}

/** Smallest possible wire footprint of one artifact id:
 * u64 string length + u64 key (an empty kind is invalid but still
 * occupies these 16 bytes). Claimed element counts are checked
 * against remaining()/this before any container is sized. */
constexpr std::size_t kMinIdBytes = 16;

} // namespace

const char *
storeOpName(StoreOp op)
{
    switch (op) {
    case StoreOp::Load:
        return "load";
    case StoreOp::Store:
        return "store";
    case StoreOp::Stat:
        return "stat";
    case StoreOp::List:
        return "list";
    case StoreOp::Gc:
        return "gc";
    case StoreOp::Ping:
        return "ping";
    case StoreOp::Shutdown:
        return "shutdown";
    case StoreOp::Remove:
        return "remove";
    }
    return "unknown";
}

const char *
storeStatusName(StoreStatus status)
{
    switch (status) {
    case StoreStatus::Ok:
        return "ok";
    case StoreStatus::Error:
        return "error";
    case StoreStatus::NotFound:
        return "not-found";
    case StoreStatus::ShuttingDown:
        return "shutting-down";
    case StoreStatus::MalformedFrame:
        return "malformed-frame";
    }
    return "unknown";
}

// Both encoders split an artifact payload, always the last field,
// from putString's layout: the sink takes its length and sealEnvelope
// appends its bytes, so they are copied once, into the frame.

std::string
encodeStoreRequest(const StoreRequest &request)
{
    ByteSink sink;
    std::string_view payload;
    sink.putU8(static_cast<std::uint8_t>(request.op));
    sink.putU64(request.id);
    switch (request.op) {
    case StoreOp::Load:
    case StoreOp::Stat:
    case StoreOp::Remove:
        appendArtifactId(sink, request.artifact);
        break;
    case StoreOp::Store:
        appendArtifactId(sink, request.artifact);
        sink.putU64(request.payload.size());
        payload = request.payload;
        break;
    case StoreOp::Gc:
        sink.putU64(request.graceSeconds);
        sink.putU64(request.live.size());
        for (const ArtifactId &id : request.live)
            appendArtifactId(sink, id);
        break;
    case StoreOp::List:
    case StoreOp::Ping:
    case StoreOp::Shutdown:
        break;
    }
    return sealEnvelope(storeMagic(), kStoreWireFormatVersion,
                        {sink.bytes(), payload});
}

std::string
encodeStoreResponse(const StoreResponse &response)
{
    ByteSink sink;
    std::string_view payload;
    sink.putU8(static_cast<std::uint8_t>(response.op));
    sink.putU64(response.id);
    sink.putU8(static_cast<std::uint8_t>(response.status));
    if (response.status != StoreStatus::Ok) {
        sink.putString(response.error);
    } else {
        switch (response.op) {
        case StoreOp::Load:
            sink.putU64(response.payload.size());
            payload = response.payload;
            break;
        case StoreOp::Stat:
            sink.putU64(response.fileBytes);
            break;
        case StoreOp::List:
            sink.putU64(response.artifacts.size());
            for (const ArtifactInfo &info : response.artifacts) {
                appendArtifactId(sink, info.id);
                sink.putU64(info.fileBytes);
            }
            break;
        case StoreOp::Gc:
            sink.putU64(response.removed.size());
            for (const ArtifactId &id : response.removed)
                appendArtifactId(sink, id);
            break;
        case StoreOp::Store:
        case StoreOp::Ping:
        case StoreOp::Shutdown:
        case StoreOp::Remove:
            break;
        }
    }
    return sealEnvelope(storeMagic(), kStoreWireFormatVersion,
                        {sink.bytes(), payload});
}

std::optional<StoreRequest>
decodeStoreRequest(std::string_view payload, std::string *err)
{
    ByteParser parser(payload);
    std::uint8_t op = 0;
    StoreRequest request;
    if (!parser.getU8(op) || !parser.getU64(request.id)) {
        fail(err, "truncated request header");
        return std::nullopt;
    }
    if (!validOp(op)) {
        fail(err, "unknown opcode");
        return std::nullopt;
    }
    request.op = static_cast<StoreOp>(op);

    switch (request.op) {
    case StoreOp::Load:
    case StoreOp::Stat:
    case StoreOp::Remove:
        if (!parseArtifactId(parser, request.artifact, err))
            return std::nullopt;
        break;
    case StoreOp::Store:
        if (!parseArtifactId(parser, request.artifact, err))
            return std::nullopt;
        if (!parser.getString(request.payload)) {
            fail(err, "truncated store payload");
            return std::nullopt;
        }
        break;
    case StoreOp::Gc: {
        std::uint64_t count = 0;
        if (!parser.getU64(request.graceSeconds) ||
            !parser.getU64(count)) {
            fail(err, "truncated gc header");
            return std::nullopt;
        }
        if (count > parser.remaining() / kMinIdBytes) {
            fail(err, "gc live-set count exceeds frame size");
            return std::nullopt;
        }
        request.live.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            ArtifactId id;
            if (!parseArtifactId(parser, id, err))
                return std::nullopt;
            request.live.push_back(std::move(id));
        }
        break;
    }
    case StoreOp::List:
    case StoreOp::Ping:
    case StoreOp::Shutdown:
        break;
    }
    if (!parser.atEnd()) {
        fail(err, "trailing bytes after request body");
        return std::nullopt;
    }
    return request;
}

std::optional<StoreResponse>
decodeStoreResponse(std::string_view payload, std::string *err)
{
    ByteParser parser(payload);
    std::uint8_t op = 0;
    std::uint8_t status = 0;
    StoreResponse response;
    if (!parser.getU8(op) || !parser.getU64(response.id) ||
        !parser.getU8(status)) {
        fail(err, "truncated response header");
        return std::nullopt;
    }
    if (!validOp(op)) {
        fail(err, "unknown opcode");
        return std::nullopt;
    }
    if (status >
        static_cast<std::uint8_t>(StoreStatus::MalformedFrame)) {
        fail(err, "unknown status");
        return std::nullopt;
    }
    response.op = static_cast<StoreOp>(op);
    response.status = static_cast<StoreStatus>(status);

    if (response.status != StoreStatus::Ok) {
        if (!parser.getString(response.error) || !parser.atEnd()) {
            fail(err, "malformed error response");
            return std::nullopt;
        }
        return response;
    }

    switch (response.op) {
    case StoreOp::Load:
        if (!parser.getString(response.payload)) {
            fail(err, "truncated load payload");
            return std::nullopt;
        }
        break;
    case StoreOp::Stat:
        if (!parser.getU64(response.fileBytes)) {
            fail(err, "truncated stat body");
            return std::nullopt;
        }
        break;
    case StoreOp::List: {
        std::uint64_t count = 0;
        if (!parser.getU64(count)) {
            fail(err, "truncated list header");
            return std::nullopt;
        }
        // kind-length + key + fileBytes per entry, checked before
        // sizing the vector.
        if (count > parser.remaining() / (kMinIdBytes + 8)) {
            fail(err, "list count exceeds frame size");
            return std::nullopt;
        }
        response.artifacts.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            ArtifactInfo info;
            if (!parseArtifactId(parser, info.id, err))
                return std::nullopt;
            std::uint64_t bytes = 0;
            if (!parser.getU64(bytes)) {
                fail(err, "truncated list entry");
                return std::nullopt;
            }
            info.fileBytes = bytes;
            response.artifacts.push_back(std::move(info));
        }
        break;
    }
    case StoreOp::Gc: {
        std::uint64_t count = 0;
        if (!parser.getU64(count)) {
            fail(err, "truncated gc header");
            return std::nullopt;
        }
        if (count > parser.remaining() / kMinIdBytes) {
            fail(err, "gc removed count exceeds frame size");
            return std::nullopt;
        }
        response.removed.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            ArtifactId id;
            if (!parseArtifactId(parser, id, err))
                return std::nullopt;
            response.removed.push_back(std::move(id));
        }
        break;
    }
    case StoreOp::Store:
    case StoreOp::Ping:
    case StoreOp::Shutdown:
    case StoreOp::Remove:
        break;
    }
    if (!parser.atEnd()) {
        fail(err, "trailing bytes after response body");
        return std::nullopt;
    }
    return response;
}

std::optional<std::string>
readStoreFrame(std::istream &in)
{
    return readEnvelope(in, storeMagic(), kStoreWireFormatVersion,
                        kMaxStoreFramePayload);
}

} // namespace wct
