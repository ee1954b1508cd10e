/**
 * @file
 * Fuzz harness for a live serving session: every input is one raw
 * client byte stream written into a real SocketServer connection
 * (accept thread, per-connection worker, FdStreambuf framing,
 * Server dispatch, response write-back) — the full "bad clients never
 * kill the server" surface, not just the codec underneath it.
 *
 * Per input: connect to the in-process AF_UNIX server, write the
 * bytes, half-close, and drain whatever responses come back until the
 * server closes the connection. Then the availability invariant: a
 * fresh, well-behaved client sends a stats request and must get an Ok
 * response — if hostile bytes wedged a worker, leaked the connection
 * slot, or killed the server, this probe fails the run.
 */

#include "fuzz/driver/driver.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "mtree/model_tree.hh"
#include "mtree/serialize.hh"
#include "serve/server.hh"
#include "serve/socket.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace
{

using namespace wct;
using namespace wct::serve;

/** Everything the harness keeps alive across inputs. */
struct LiveService
{
    Server server;
    SocketServer socket;
    std::string path;

    explicit LiveService(const std::string &sockPath)
        : server(serverConfig()), socket(server, socketConfig(sockPath)),
          path(sockPath)
    {
        // A real model makes mutated predict/classify frames reach
        // the batch engine instead of stopping at "model not found".
        Dataset data({"x0", "x1", "y"});
        Rng rng(42);
        for (int i = 0; i < 300; ++i) {
            const double x0 = rng.uniform(0.0, 1.0);
            const double x1 = rng.uniform(0.0, 1.0);
            data.addRow({x0, x1, x0 <= 0.5 ? 1.0 + x1 : 4.0 - x1});
        }
        const ModelTree tree = ModelTree::train(data, "y");
        const std::string model = path + ".mtree";
        writeModelTreeFile(tree, model);
        std::string err;
        if (!server.loadModel(model, "default", nullptr, &err)) {
            std::fprintf(stderr, "harness: loadModel failed: %s\n",
                         err.c_str());
            std::abort();
        }
        if (!socket.start(&err)) {
            std::fprintf(stderr, "harness: start failed: %s\n",
                         err.c_str());
            std::abort();
        }
    }

    /** At exit: stop the server (which unlinks its socket), then
     * remove the model file. */
    ~LiveService()
    {
        socket.stop();
        std::remove((path + ".mtree").c_str());
    }

    static ServerConfig
    serverConfig()
    {
        ServerConfig config;
        config.queueDepth = 16;
        config.maxBatch = 4;
        config.allowRemoteLoad = false;
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
        return config;
    }
};

LiveService &
service()
{
    static LiveService live("/tmp/wct_fuzz_serve." +
                            std::to_string(::getpid()) + ".sock");
    return live;
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
    // Bound every read so a wedged server cannot hang the harness
    // here; wedging is detected by the probe, not by this drain.
    timeval timeout = {2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof timeout);
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n =
            ::send(fd, data + done, size - done, MSG_NOSIGNAL);
        if (n <= 0)
            break; // server dropped the connection mid-write: fine
        done += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    char sink[4096];
    while (::read(fd, sink, sizeof sink) > 0) {
    }
    ::close(fd);
}

/**
 * Interleaved partial-frame coverage for the reactor's reassembly
 * buffers: the input is dealt out round-robin in small chunks across
 * three simultaneous connections, so each connection receives its own
 * (usually mid-frame) subsequence while the event loop holds several
 * half-built frames at once. One connection aborts hard — close with
 * no half-close and no drain — mid-stream, exercising teardown of a
 * connection whose buffer still holds a partial frame.
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
            ::close(fds[c]); // server dropped it mid-write: fine
            fds[c] = -1;
        }
        off += chunk;
        // The abort connection hangs up as soon as it has bytes
        // buffered server-side, likely mid-frame.
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

/** The availability probe: a well-formed client must still be served. */
void
probeStillServing(const std::string &path)
{
    std::string err;
    auto client = ServeClient::connectUnix(path, &err);
    WCT_FUZZ_ASSERT(client.has_value());
    Request request;
    request.op = Opcode::Stats;
    request.id = 7;
    const auto response = client->call(request, &err);
    WCT_FUZZ_ASSERT(response.has_value());
    WCT_FUZZ_ASSERT(response->status == Status::Ok);
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    [[maybe_unused]] static const bool quiet = setLogQuiet(true);
    LiveService &live = service();
    rawSession(live.path, data, size);
    interleavedSession(live.path, data, size);
    probeStillServing(live.path);
    return 0;
}
