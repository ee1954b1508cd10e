/**
 * @file
 * Length-prefixed binary wire protocol of the serving subsystem.
 *
 * Every message — request or response — is one checksummed envelope
 * (data/binary_io.hh) under magic "WCTSERV\0" and its own version,
 * so framing and corruption checks are not reinvented here. The
 * payload starts with a one-byte opcode and a caller-chosen request
 * id that the response echoes, then an opcode-specific body:
 *
 *   request  := opcode:u8 id:u64 budgetMs:u32 body
 *   response := opcode:u8 id:u64 status:u8 body
 *
 * budgetMs (wire v2) is the client's per-request deadline budget in
 * milliseconds; 0 means "no budget" and leaves any server-side
 * default in charge. The server caps it (ServerConfig::maxDeadlineMs)
 * and answers Status::DeadlineExceeded — never a stale result — when
 * the budget expires before the response is written.
 *
 *   predict/classify body (request):
 *       modelKey:str ncols:u64 colname:str... nrows:u64
 *       cell:f64 * (nrows*ncols)      # row-major, training schema
 *   predict body (response):  n:u64 (cpi:f64 leaf:u64)*n
 *   classify body (response): n:u64 (leaf:u64)*n
 *   loadModel body (request): path:str alias:str
 *   loadModel body (response): key:str target:str leaves:u64
 *   stats body (response):    metrics snapshot (serve/metrics.hh)
 *   shutdown bodies:          empty
 *
 * Leaf ids on the wire are the paper's 1-based LM numbers. Error
 * responses (status != Ok) carry a message string instead of a body.
 * Decoders never terminate the process: a malformed frame yields
 * nullopt and the server answers with a Status::MalformedFrame
 * response, keeping a bad client from taking the service down.
 */

#ifndef WCT_SERVE_WIRE_HH
#define WCT_SERVE_WIRE_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "serve/metrics.hh"

namespace wct::serve
{

/** Envelope magic of serving frames (7 chars + NUL = 8 bytes). */
constexpr char kWireMagic[] = "WCTSERV";

/** Wire format version; a mismatch rejects the whole frame.
 * v2: request header grew the budgetMs:u32 deadline field and the
 * response status byte grew Shed / DeadlineExceeded. */
constexpr std::uint32_t kWireFormatVersion = 2;

/**
 * Hard cap on one frame's payload bytes, both directions. Frames are
 * read from untrusted sockets, so readFrame refuses a claimed size
 * above this before allocating anything — a hostile 20-byte header
 * cannot turn into a giant allocation. Sized to fit the largest
 * legal predict response (kMaxRowsPerRequest rows of cpi+leaf) with
 * room to spare.
 */
constexpr std::uint64_t kMaxFramePayload = 1ull << 28; // 256 MiB

/** Operation selector, first payload byte of every message. */
enum class Opcode : std::uint8_t
{
    Predict = 1,   ///< rows in, (CPI, leaf) per row out
    Classify = 2,  ///< rows in, leaf number per row out
    LoadModel = 3, ///< load/reload a serialized tree into the registry
    Stats = 4,     ///< metrics snapshot out
    Shutdown = 5,  ///< stop admitting, drain, stop the server
};

/** Response status byte. */
enum class Status : std::uint8_t
{
    Ok = 0,
    Error = 1,          ///< request was understood but failed
    Overloaded = 2,     ///< admission queue full; retry later
    ShuttingDown = 3,   ///< server is draining; no new work
    MalformedFrame = 4, ///< request frame did not decode
    Shed = 5,           ///< op class over its latency SLO; retry later
    DeadlineExceeded = 6, ///< request budget expired before the result
};

/** Human-readable opcode name (for logs and the stats dump). */
const char *opcodeName(Opcode op);

/** Human-readable status name. */
const char *statusName(Status status);

/** One decoded request message. */
struct Request
{
    Opcode op = Opcode::Predict;
    std::uint64_t id = 0;

    /** Per-request deadline budget in milliseconds; 0 = none (the
     * server may still impose its configured default). */
    std::uint32_t budgetMs = 0;

    // Predict / Classify.
    std::string modelKey; ///< registry key or alias; "" = default
    std::vector<std::string> schema; ///< column names of `rows`
    std::vector<double> rows;        ///< row-major, schema arity

    // LoadModel.
    std::string path;  ///< file to (re)load
    std::string alias; ///< registry alias; "" derives from the path

    std::size_t
    numRows() const
    {
        return schema.empty() ? 0 : rows.size() / schema.size();
    }
};

/** One decoded response message. */
struct Response
{
    Opcode op = Opcode::Predict;
    std::uint64_t id = 0;
    Status status = Status::Ok;
    std::string error; ///< set when status != Ok

    // Predict / Classify.
    std::vector<double> cpi;        ///< Predict only
    std::vector<std::uint64_t> leaf; ///< 1-based LM numbers

    // LoadModel.
    std::string modelKey;
    std::string target;
    std::uint64_t numLeaves = 0;

    // Stats.
    MetricsSnapshot stats;
};

/** Encode a request as one complete envelope frame. */
std::string encodeRequest(const Request &request);

/** Encode a response as one complete envelope frame. */
std::string encodeResponse(const Response &response);

/**
 * Decode a request payload (the envelope's contents). nullopt on a
 * malformed payload, with the reason in `err` when non-null.
 */
std::optional<Request> decodeRequest(std::string_view payload,
                                     std::string *err = nullptr);

/** Decode a response payload; nullopt on malformed. */
std::optional<Response> decodeResponse(std::string_view payload,
                                       std::string *err = nullptr);

/** Read one frame from a stream and return its payload; nullopt on
 * EOF or any envelope refusal, under kMaxFramePayload. */
std::optional<std::string> readFrame(std::istream &in);

} // namespace wct::serve

#endif // WCT_SERVE_WIRE_HH
