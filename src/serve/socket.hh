/**
 * @file
 * Socket transport for frame-oriented services: a Unix-domain or
 * loopback-TCP acceptor in front of a FrameHandler — the model
 * server (WCTSERV frames) and the artifact store daemon (WCTSTOR
 * frames) share this transport; only the envelope magic/version/cap
 * in SocketConfig differs.
 *
 * The transport is an event loop, not thread-per-connection: one
 * reactor thread owns the epoll set — accept, nonblocking reads,
 * incremental frame reassembly per connection, and response writes —
 * and a small fixed worker pool runs FrameHandler::handlePayload for
 * complete frames. Concurrency is bounded by dispatchThreads (work),
 * not by connection count (threads); maxConnections remains the
 * connection-level backpressure: beyond the cap a connection is
 * accepted and immediately closed, which a client observes as EOF
 * and treats like overload.
 *
 * Frame reassembly is incremental: after every read the reactor asks
 * binary_io's scanEnvelope whether the buffered bytes are an
 * incomplete, malformed or complete envelope (data/binary_io.hh
 * gives the layout and when each field is checked; a hostile size is
 * refused before any payload byte is awaited). A malformed frame
 * earns one MalformedFrame response and the connection is dropped
 * (framing cannot resync inside a byte stream). Each connection has
 * at most one frame in flight — while the handler runs, the reactor
 * stops reading that connection (TCP flow control is the buffer
 * bound) — so responses keep the strict request order of the old
 * one-thread-per-connection loop.
 *
 * Shutdown: once the handler enters draining (a shutdown frame or
 * stop()), the reactor stops accepting, lets busy connections finish
 * their in-flight response (the shutdown ack drains to its client
 * before the close), flushes and closes everything, and exits; the
 * worker pool is joined after its queue closes.
 */

#ifndef WCT_SERVE_SOCKET_HH
#define WCT_SERVE_SOCKET_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/frame_handler.hh"
#include "serve/wire.hh"

namespace wct::serve
{

/** Listener configuration: exactly one of unixPath / tcpPort. */
struct SocketConfig
{
    /** Unix-domain socket path; non-empty selects AF_UNIX. */
    std::string unixPath;

    /** TCP port on 127.0.0.1; 0 picks an ephemeral port. Used only
     * when unixPath is empty. */
    int tcpPort = 0;

    /** Listen backlog. */
    int backlog = 16;

    /** Concurrent connection cap; excess connections see EOF. */
    std::size_t maxConnections = 32;

    /** Dispatch worker threads running the FrameHandler. These may
     * block (inference admission waits on the job's future), so they
     * are dedicated threads, not borrowed from the compute pool. */
    std::size_t dispatchThreads = 4;

    /** Envelope framing of this listener. Defaults are the serving
     * wire; the store daemon swaps in the WCTSTOR values
     * (data/store_wire.hh). */
    std::string frameMagic = std::string(kWireMagic, 8);
    std::uint32_t frameVersion = kWireFormatVersion;
    std::uint64_t maxFramePayload = kMaxFramePayload;
};

/** Accepts connections and pumps frames into a FrameHandler. */
class SocketServer
{
  public:
    SocketServer(FrameHandler &handler, SocketConfig config);

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /** Stops if still running. */
    ~SocketServer();

    /** Bind + listen + start the reactor and worker pool; false +
     * err on failure (address in use, bad path, ...). */
    bool start(std::string *err);

    /** Stop accepting, drain in-flight responses, join everything. */
    void stop();

    /**
     * Block until the handler enters shutdown (e.g. a client sent a
     * shutdown frame) and every connection drained, then stop().
     */
    void waitForShutdown();

    /** Actual TCP port after start() (ephemeral binds); 0 for Unix. */
    int boundPort() const { return boundPort_; }

  private:
    /** Per-connection reactor state. Owned (touched) exclusively by
     * the reactor thread; workers reference connections only by id
     * through the completion queue, and ids are never reused, so a
     * completion for a closed connection is simply dropped. */
    struct Conn
    {
        int fd = -1;
        std::string in;         ///< received, not yet framed
        std::string out;        ///< encoded responses to write
        std::size_t outOff = 0; ///< flushed prefix of `out`
        bool busy = false;      ///< one frame is in the handler
        bool readClosed = false;
        bool closeAfterFlush = false;
        bool registered = false;     ///< fd is in the epoll set
        std::uint32_t interest = 0;  ///< current epoll event mask
    };

    /** A complete frame headed for the worker pool. */
    struct Work
    {
        std::uint64_t conn = 0;
        std::string payload;
    };

    /** A handler result headed back to the reactor. */
    struct Completion
    {
        std::uint64_t conn = 0;
        std::string frame;
    };

    void reactorLoop();
    void workerLoop();
    void wakeReactor();

    void handleAccept(bool draining);
    void handleReadable(std::uint64_t id, Conn &conn);
    void parseFrames(std::uint64_t id, Conn &conn);
    void markMalformed(Conn &conn, const char *reason);
    bool flushConn(Conn &conn); ///< false = close the connection now
    void pump(std::uint64_t id, Conn &conn);
    void updateInterest(std::uint64_t id, Conn &conn);
    void closeConn(std::uint64_t id);
    void drainCompletions();
    void beginDrainPass();

    FrameHandler &handler_;
    SocketConfig config_;
    int listenFd_ = -1;
    int boundPort_ = 0;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    std::atomic<bool> stopping_{false};

    std::thread reactorThread_;
    std::vector<std::thread> workers_;

    std::unordered_map<std::uint64_t, Conn> conns_;
    std::uint64_t nextConnId_ = 2; ///< 0 = listen fd, 1 = wake fd

    std::mutex workMutex_;
    std::condition_variable workCv_;
    std::deque<Work> work_;
    bool workClosed_ = false;

    std::mutex completionMutex_;
    std::deque<Completion> completions_;

    std::mutex finishedMutex_;
    std::condition_variable finishedCv_;
    bool finished_ = false; ///< reactor loop exited
};

/**
 * Blocking client for `wct query` and the tests: connect, then one
 * call() per request frame. Not thread-safe (one in-flight call).
 */
class ServeClient
{
  public:
    ~ServeClient();
    ServeClient(ServeClient &&other) noexcept;
    ServeClient &operator=(ServeClient &&other) noexcept;

    /** Connect to a Unix-domain server socket. */
    static std::optional<ServeClient>
    connectUnix(const std::string &path, std::string *err);

    /** Connect to a loopback TCP server socket. */
    static std::optional<ServeClient> connectTcp(int port,
                                                 std::string *err);

    /**
     * Arm a socket-level deadline: a call that waits longer than
     * `ms` milliseconds for its response fails instead of parking
     * forever, and lastCallTimedOut() reports it (`wct query
     * --timeout`). 0 disarms.
     */
    void setTimeoutMs(std::uint64_t ms);

    /** Send one request and wait for its response. */
    std::optional<Response> call(const Request &request,
                                 std::string *err);

    /** True when the most recent call() failed on the socket
     * deadline armed by setTimeoutMs (EAGAIN on the read). */
    bool lastCallTimedOut() const { return timedOut_; }

  private:
    explicit ServeClient(int fd) : fd_(fd) {}

    int fd_ = -1;
    bool timedOut_ = false;
};

} // namespace wct::serve

#endif // WCT_SERVE_SOCKET_HH
