/**
 * @file
 * WCTSTOR: the length-prefixed binary wire protocol of the remote
 * artifact store (`wct store serve` and the RemoteStore backend).
 *
 * Every message — request or response — is one checksummed envelope
 * (data/binary_io.hh) under magic "WCTSTOR\0" and its own version,
 * the framing the serving wire uses. The payload starts with a
 * one-byte opcode and a caller-chosen request id that the response
 * echoes, then an opcode-specific body:
 *
 *   request  := opcode:u8 id:u64 body
 *   response := opcode:u8 id:u64 status:u8 body
 *
 *   load body (request):      kind:str key:u64
 *   load body (response):     payload:str
 *   store body (request):     kind:str key:u64 payload:str
 *   store body (response):    empty
 *   stat body (request):      kind:str key:u64
 *   stat body (response):     fileBytes:u64
 *   remove bodies:            like stat request / empty response
 *   list body (request):      empty
 *   list body (response):     n:u64 (kind:str key:u64 bytes:u64)*n
 *   gc body (request):        grace:u64 n:u64 (kind:str key:u64)*n
 *   gc body (response):       n:u64 (kind:str key:u64)*n   # removed
 *   ping / shutdown bodies:   empty
 *
 * Error responses (status != Ok) carry a message string instead of a
 * body. Decoders never terminate the process: a malformed payload
 * yields nullopt and the daemon answers with StoreStatus::
 * MalformedFrame, keeping a bad client from taking the store down.
 * Artifact kinds are validated at decode (validArtifactKind) so a
 * hostile kind like "../../etc/x" can never become a file-name
 * component, and claimed list counts are checked against the bytes
 * actually present before any container is sized.
 */

#ifndef WCT_DATA_STORE_WIRE_HH
#define WCT_DATA_STORE_WIRE_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "data/artifact_store.hh"

namespace wct
{

/** Envelope magic of store frames (7 chars + NUL = 8 bytes). */
constexpr char kStoreWireMagic[] = "WCTSTOR";

/** Store wire format version; a mismatch rejects the whole frame. */
constexpr std::uint32_t kStoreWireFormatVersion = 1;

/**
 * Hard cap on one store frame's payload bytes, both directions.
 * Frames arrive from untrusted sockets, so readStoreFrame refuses a
 * claimed size above this before allocating anything. Matches the
 * serve wire's budget; artifacts larger than this stay local-only.
 */
constexpr std::uint64_t kMaxStoreFramePayload = 1ull << 28; // 256 MiB

/** Operation selector, first payload byte of every message. */
enum class StoreOp : std::uint8_t
{
    Load = 1,     ///< artifact payload out (NotFound when missing)
    Store = 2,    ///< artifact payload in
    Stat = 3,     ///< existence + size probe, no payload transfer
    List = 4,     ///< every artifact the daemon holds
    Gc = 5,       ///< sweep dead artifacts against a live set
    Ping = 6,     ///< liveness + protocol handshake
    Shutdown = 7, ///< stop the daemon (when it allows remote stop)
    Remove = 8,   ///< delete one artifact
};

/** Response status byte. */
enum class StoreStatus : std::uint8_t
{
    Ok = 0,
    Error = 1,          ///< request was understood but failed
    NotFound = 2,       ///< load/stat/remove of a missing artifact
    ShuttingDown = 3,   ///< daemon is draining; no new work
    MalformedFrame = 4, ///< request frame did not decode
};

/** Human-readable opcode name (for logs). */
const char *storeOpName(StoreOp op);

/** Human-readable status name. */
const char *storeStatusName(StoreStatus status);

/** One decoded store request message. */
struct StoreRequest
{
    StoreOp op = StoreOp::Ping;
    std::uint64_t id = 0;

    ArtifactId artifact;  ///< Load / Store / Stat / Remove
    std::string payload;  ///< Store
    std::vector<ArtifactId> live; ///< Gc
    std::uint64_t graceSeconds = 0; ///< Gc
};

/** One decoded store response message. */
struct StoreResponse
{
    StoreOp op = StoreOp::Ping;
    std::uint64_t id = 0;
    StoreStatus status = StoreStatus::Ok;
    std::string error; ///< set when status != Ok

    std::string payload;                 ///< Load
    std::uint64_t fileBytes = 0;         ///< Stat
    std::vector<ArtifactInfo> artifacts; ///< List
    std::vector<ArtifactId> removed;     ///< Gc
};

/** Encode a request as one complete envelope frame. */
std::string encodeStoreRequest(const StoreRequest &request);

/** Encode a response as one complete envelope frame. */
std::string encodeStoreResponse(const StoreResponse &response);

/**
 * Decode a request payload (the envelope's contents). nullopt on a
 * malformed payload, with the reason in `err` when non-null.
 */
std::optional<StoreRequest>
decodeStoreRequest(std::string_view payload,
                   std::string *err = nullptr);

/** Decode a response payload; nullopt on malformed. */
std::optional<StoreResponse>
decodeStoreResponse(std::string_view payload,
                    std::string *err = nullptr);

/** Read one store frame from a stream and return its payload;
 * nullopt on EOF or any envelope refusal, under
 * kMaxStoreFramePayload. */
std::optional<std::string> readStoreFrame(std::istream &in);

} // namespace wct

#endif // WCT_DATA_STORE_WIRE_HH
