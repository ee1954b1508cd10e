/**
 * @file
 * Fuzz harness for the artifact store daemon: every input is one raw
 * client byte stream written into a live `wct store serve` transport
 * (SocketServer with WCTSTOR framing, StoreService dispatch, a real
 * ArtifactStore underneath) — the full "hostile clients never kill
 * the fleet store" surface.
 *
 * Each input also runs through the codec invariants directly: a
 * payload decodeStoreRequest/decodeStoreResponse accepts must
 * re-encode to a payload that decodes to the same message (decoders
 * reject anything the encoders did not produce, so accept implies
 * canonical).
 *
 * After the hostile session, the availability probe: a fresh,
 * well-behaved client pings the daemon, publishes a *fresh* artifact
 * under a counter-derived key, and loads it back byte-identical. The
 * probe never reuses an address a previous (mutated) input could
 * have poisoned, so it fails only when hostile bytes actually wedged
 * a worker, leaked the connection slot, or corrupted dispatch. The
 * fixture daemon runs with remote shutdown disabled — a mutated
 * Shutdown frame must not end the run.
 */

#include "fuzz/driver/driver.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "data/binary_io.hh"
#include "data/remote_store.hh"
#include "data/store_wire.hh"
#include "serve/socket.hh"
#include "serve/store_service.hh"
#include "util/logging.hh"

namespace
{

using namespace wct;
using namespace wct::serve;

namespace fs = std::filesystem;

/** Everything the harness keeps alive across inputs. */
struct LiveStoreDaemon
{
    std::string dir;
    StoreService service;
    SocketServer socket;
    std::string path;

    explicit LiveStoreDaemon(const std::string &artifactDir,
                             const std::string &sockPath)
        : dir(artifactDir),
          service(ArtifactStore(artifactDir), serviceConfig()),
          socket(service, socketConfig(sockPath)), path(sockPath)
    {
        std::string err;
        if (!socket.start(&err)) {
            std::fprintf(stderr, "harness: start failed: %s\n",
                         err.c_str());
            std::abort();
        }
    }

    /** At exit: stop the daemon (which unlinks its socket), then
     * remove its artifact directory. */
    ~LiveStoreDaemon()
    {
        socket.stop();
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    static StoreServiceConfig
    serviceConfig()
    {
        StoreServiceConfig config;
        config.allowRemoteShutdown = false; // one mutated shutdown
                                            // must not end the run
        return config;
    }

    static SocketConfig
    socketConfig(const std::string &sockPath)
    {
        SocketConfig config;
        config.unixPath = sockPath;
        config.maxConnections = 8;
        config.frameMagic = std::string(kStoreWireMagic, 8);
        config.frameVersion = kStoreWireFormatVersion;
        config.maxFramePayload = kMaxStoreFramePayload;
        return config;
    }
};

LiveStoreDaemon &
daemon()
{
    static const std::string base =
        "/tmp/wct_fuzz_store." + std::to_string(::getpid());
    static const bool made = fs::create_directories(base + ".dir");
    (void)made;
    static LiveStoreDaemon live(base + ".dir", base + ".sock");
    return live;
}

/** Accept-implies-canonical: decode, re-encode, decode again. */
void
codecInvariants(const std::uint8_t *data, std::size_t size)
{
    const std::string_view payload(
        reinterpret_cast<const char *>(data), size);

    if (const auto request = decodeStoreRequest(payload)) {
        const std::string frame = encodeStoreRequest(*request);
        std::istringstream in(frame);
        const auto reread = readStoreFrame(in);
        WCT_FUZZ_ASSERT(reread.has_value());
        const auto again = decodeStoreRequest(*reread);
        WCT_FUZZ_ASSERT(again.has_value());
        WCT_FUZZ_ASSERT(again->op == request->op);
        WCT_FUZZ_ASSERT(again->id == request->id);
        WCT_FUZZ_ASSERT(again->artifact.kind == request->artifact.kind);
        WCT_FUZZ_ASSERT(again->artifact.key == request->artifact.key);
        WCT_FUZZ_ASSERT(again->payload == request->payload);
        WCT_FUZZ_ASSERT(again->live.size() == request->live.size());
        WCT_FUZZ_ASSERT(again->graceSeconds == request->graceSeconds);
    }
    if (const auto response = decodeStoreResponse(payload)) {
        const std::string frame = encodeStoreResponse(*response);
        std::istringstream in(frame);
        const auto reread = readStoreFrame(in);
        WCT_FUZZ_ASSERT(reread.has_value());
        const auto again = decodeStoreResponse(*reread);
        WCT_FUZZ_ASSERT(again.has_value());
        WCT_FUZZ_ASSERT(again->op == response->op);
        WCT_FUZZ_ASSERT(again->status == response->status);
        WCT_FUZZ_ASSERT(again->payload == response->payload);
        WCT_FUZZ_ASSERT(again->artifacts.size() ==
                        response->artifacts.size());
        WCT_FUZZ_ASSERT(again->removed.size() ==
                        response->removed.size());
    }
}

/** Write the raw bytes as a client would, then drain to EOF. */
void
rawSession(const std::string &path, const std::uint8_t *data,
           std::size_t size)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    WCT_FUZZ_ASSERT(fd >= 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    WCT_FUZZ_ASSERT(path.size() < sizeof addr.sun_path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return; // transient (cap churn); the probe below still runs
    }
    // Bound every read so a wedged daemon cannot hang the harness
    // here; wedging is detected by the probe, not by this drain.
    timeval timeout = {2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof timeout);
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n =
            ::send(fd, data + done, size - done, MSG_NOSIGNAL);
        if (n <= 0)
            break; // daemon dropped the connection mid-write: fine

        done += static_cast<std::size_t>(n);
        // Mid-transfer disconnect coverage: roughly one input in
        // eight hangs up after the first chunk without half-closing.
        if ((size ^ done) % 8 == 0 && done < size)
            break;
    }
    ::shutdown(fd, SHUT_WR);
    char sink[4096];
    while (::read(fd, sink, sizeof sink) > 0) {
    }
    ::close(fd);
}

/**
 * Interleaved partial-frame coverage for the reactor's reassembly
 * buffers (same shape as fuzz_serve_session): the input is dealt out
 * round-robin in small chunks across three simultaneous connections,
 * so the event loop holds several half-built WCTSTOR frames at once;
 * one connection aborts hard mid-stream with a partial frame still
 * buffered server-side.
 */
void
interleavedSession(const std::string &path, const std::uint8_t *data,
                   std::size_t size)
{
    constexpr std::size_t kConns = 3;
    int fds[kConns];
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    WCT_FUZZ_ASSERT(path.size() < sizeof addr.sun_path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const timeval timeout = {2, 0};
    for (std::size_t c = 0; c < kConns; ++c) {
        fds[c] = ::socket(AF_UNIX, SOCK_STREAM, 0);
        WCT_FUZZ_ASSERT(fds[c] >= 0);
        if (::connect(fds[c],
                      reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fds[c]);
            fds[c] = -1; // transient (cap churn); keep going
            continue;
        }
        ::setsockopt(fds[c], SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof timeout);
    }

    std::size_t off = 0, turn = 0;
    while (off < size) {
        // Chunk length comes from the input itself so the mutator
        // controls where frames split across writes.
        const std::size_t chunk =
            std::min<std::size_t>(1 + data[off] % 37, size - off);
        const std::size_t c = turn++ % kConns;
        if (fds[c] >= 0 &&
            ::send(fds[c], data + off, chunk, MSG_NOSIGNAL) <= 0) {
            ::close(fds[c]); // daemon dropped it mid-write: fine
            fds[c] = -1;
        }
        off += chunk;
        // The abort connection hangs up as soon as it has bytes
        // buffered daemon-side, likely mid-frame.
        if (turn == kConns + 1 && fds[kConns - 1] >= 0) {
            ::close(fds[kConns - 1]);
            fds[kConns - 1] = -1;
        }
    }
    for (std::size_t c = 0; c < kConns; ++c) {
        if (fds[c] < 0)
            continue;
        ::shutdown(fds[c], SHUT_WR);
        char sink[4096];
        while (::read(fds[c], sink, sizeof sink) > 0) {
        }
        ::close(fds[c]);
    }
}

/**
 * The availability probe: ping, publish a fresh artifact, read it
 * back. The key is counter-derived so no earlier mutated Store can
 * have planted bytes at this address.
 */
void
probeStillServing(const std::string &path)
{
    static std::uint64_t counter = 0;
    ++counter;

    std::string err;
    const auto endpoint = parseStoreUrl("unix:" + path, &err);
    WCT_FUZZ_ASSERT(endpoint.has_value());
    auto client = StoreClient::connect(*endpoint, &err);
    WCT_FUZZ_ASSERT(client.has_value());

    StoreRequest ping;
    ping.op = StoreOp::Ping;
    ping.id = counter;
    const auto pong = client->call(ping, &err);
    WCT_FUZZ_ASSERT(pong.has_value());
    WCT_FUZZ_ASSERT(pong->status == StoreStatus::Ok);
    WCT_FUZZ_ASSERT(pong->id == ping.id);

    const std::string payload =
        "probe payload #" + std::to_string(counter);
    const ArtifactId id{"probe", fnv1a64(payload)};
    StoreRequest store;
    store.op = StoreOp::Store;
    store.id = counter + (1ull << 32);
    store.artifact = id;
    store.payload = payload;
    const auto stored = client->call(store, &err);
    WCT_FUZZ_ASSERT(stored.has_value());
    WCT_FUZZ_ASSERT(stored->status == StoreStatus::Ok);

    StoreRequest load;
    load.op = StoreOp::Load;
    load.id = counter + (2ull << 32);
    load.artifact = id;
    const auto loaded = client->call(load, &err);
    WCT_FUZZ_ASSERT(loaded.has_value());
    WCT_FUZZ_ASSERT(loaded->status == StoreStatus::Ok);
    WCT_FUZZ_ASSERT(loaded->payload == payload);
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    [[maybe_unused]] static const bool quiet = setLogQuiet(true);
    LiveStoreDaemon &live = daemon();
    codecInvariants(data, size);
    rawSession(live.path, data, size);
    interleavedSession(live.path, data, size);
    probeStillServing(live.path);
    return 0;
}
