#include "serve/socket.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <new>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "data/binary_io.hh"
#include "util/socket_io.hh"

namespace wct::serve
{

namespace
{

/** epoll user-data tags of the two non-connection descriptors;
 * connection ids start at 2 and are never reused. */
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;

/** The one diagnostic a connection gets before it is dropped for a
 * frame scanEnvelope refused or a stream cut mid-frame. */
constexpr char kBadEnvelope[] =
    "bad frame envelope (magic, version, size, or checksum)";

} // namespace

SocketServer::SocketServer(FrameHandler &handler, SocketConfig config)
    : handler_(handler), config_(std::move(config))
{
}

SocketServer::~SocketServer()
{
    stop();
}

bool
SocketServer::start(std::string *err)
{
    if (!config_.unixPath.empty())
        listenFd_ =
            listenUnix(config_.unixPath, config_.backlog, err);
    else
        listenFd_ = listenTcp(config_.tcpPort, config_.backlog,
                              &boundPort_, err);
    if (listenFd_ < 0)
        return false;

    epollFd_ = ::epoll_create1(0);
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK);
    if (epollFd_ < 0 || wakeFd_ < 0 ||
        !setNonBlocking(listenFd_)) {
        if (err != nullptr)
            *err = std::string("cannot set up event loop: ") +
                   std::strerror(errno);
        closeFd(epollFd_);
        closeFd(wakeFd_);
        closeFd(listenFd_);
        epollFd_ = wakeFd_ = listenFd_ = -1;
        return false;
    }
    epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenTag;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev);

    const std::size_t workers =
        std::max<std::size_t>(1, config_.dispatchThreads);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    reactorThread_ = std::thread([this] { reactorLoop(); });
    return true;
}

void
SocketServer::wakeReactor()
{
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wakeFd_, &one, sizeof one);
}

void
SocketServer::workerLoop()
{
    for (;;) {
        Work work;
        {
            std::unique_lock lock(workMutex_);
            workCv_.wait(lock, [this] {
                return workClosed_ || !work_.empty();
            });
            if (work_.empty())
                return; // closed and drained
            work = std::move(work_.front());
            work_.pop_front();
        }
        std::string frame;
        try {
            frame = handler_.handlePayload(work.payload);
        } catch (const std::bad_alloc &) {
            // Even capped frames can fail to allocate under memory
            // pressure; one client's frame must drop its
            // connection, not the server.
            frame = handler_.malformedResponse(
                "out of memory handling frame");
        }
        {
            std::lock_guard lock(completionMutex_);
            completions_.push_back({work.conn, std::move(frame)});
        }
        wakeReactor();
    }
}

void
SocketServer::handleAccept(bool draining)
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN: the backlog is drained
        // Registration is synchronous with accept, so a client whose
        // previous call completed is guaranteed to occupy its slot
        // before the next connection is considered against the cap.
        if (draining || conns_.size() >= config_.maxConnections ||
            !setNonBlocking(fd)) {
            closeFd(fd); // client sees EOF: connection backpressure
            continue;
        }
        const std::uint64_t id = nextConnId_++;
        Conn &conn = conns_[id];
        conn.fd = fd;
        updateInterest(id, conn);
    }
}

void
SocketServer::markMalformed(Conn &conn, const char *reason)
{
    // One diagnostic response, then drop: framing cannot resync
    // inside a byte stream. Whatever was buffered is garbage now.
    try {
        conn.out += handler_.malformedResponse(reason);
    } catch (const std::bad_alloc &) {
        // Can't even build the response; just close after what is
        // already queued.
    }
    conn.in.clear();
    conn.readClosed = true;
    conn.closeAfterFlush = true;
}

void
SocketServer::parseFrames(std::uint64_t id, Conn &conn)
{
    // Incremental reassembly: scanEnvelope checks each field as soon
    // as its bytes are in, so a hostile prefix fails fast and a
    // claimed size above the cap is refused before buffering a
    // "frame" that would never end.
    while (!conn.busy && !conn.closeAfterFlush) {
        const EnvelopeScan scan =
            scanEnvelope(conn.in, config_.frameMagic,
                         config_.frameVersion, config_.maxFramePayload);
        if (scan.state == EnvelopeScan::Incomplete)
            break; // wait for more bytes
        if (scan.state == EnvelopeScan::Malformed) {
            markMalformed(conn, kBadEnvelope);
            break;
        }
        Work work{id, std::string(scan.payload)};
        conn.in.erase(0, scan.frameBytes);
        conn.busy = true; // flow control: no reads until completion
        {
            std::lock_guard lock(workMutex_);
            work_.push_back(std::move(work));
        }
        workCv_.notify_one();
    }
}

bool
SocketServer::flushConn(Conn &conn)
{
    while (conn.outOff < conn.out.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data() + conn.outOff,
                   conn.out.size() - conn.outOff, MSG_NOSIGNAL);
        if (n > 0) {
            conn.outOff += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true; // kernel buffer full: EPOLLOUT will resume
        return false; // peer is gone; drop the connection
    }
    conn.out.clear();
    conn.outOff = 0;
    return true;
}

void
SocketServer::handleReadable(std::uint64_t id, Conn &conn)
{
    char buffer[65536];
    while (!conn.busy && !conn.readClosed && !conn.closeAfterFlush) {
        const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
        if (n > 0) {
            try {
                conn.in.append(buffer,
                               static_cast<std::size_t>(n));
            } catch (const std::bad_alloc &) {
                markMalformed(conn,
                              "out of memory handling frame");
                return;
            }
            // Parsing as bytes arrive engages per-connection flow
            // control the moment a complete frame is dispatched.
            parseFrames(id, conn);
            continue;
        }
        if (n == 0) {
            conn.readClosed = true;
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        conn.readClosed = true; // hard error: treat as EOF
        return;
    }
}

void
SocketServer::pump(std::uint64_t id, Conn &conn)
{
    if (!conn.busy && !conn.closeAfterFlush) {
        parseFrames(id, conn);
        // A clean EOF between frames is a normal disconnect; EOF
        // with a partial frame buffered earns the one diagnostic
        // response (the stream was truncated mid-frame).
        if (!conn.busy && !conn.closeAfterFlush && conn.readClosed) {
            if (!conn.in.empty())
                markMalformed(conn, kBadEnvelope);
            else
                conn.closeAfterFlush = true;
        }
    }
    if (!flushConn(conn)) {
        closeConn(id);
        return;
    }
    if (conn.closeAfterFlush && !conn.busy &&
        conn.outOff >= conn.out.size()) {
        closeConn(id);
        return;
    }
    updateInterest(id, conn);
}

void
SocketServer::updateInterest(std::uint64_t id, Conn &conn)
{
    std::uint32_t want = 0;
    if (!conn.busy && !conn.readClosed && !conn.closeAfterFlush)
        want |= EPOLLIN;
    if (conn.outOff < conn.out.size())
        want |= EPOLLOUT;

    epoll_event ev = {};
    ev.events = want;
    ev.data.u64 = id;
    if (!conn.registered) {
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, conn.fd, &ev) == 0) {
            conn.registered = true;
            conn.interest = want;
        }
        return;
    }
    if (want == 0 && conn.readClosed) {
        // Nothing to read or write and the peer can only HUP us
        // (delivered even on an empty mask): drop the fd from the
        // set so a busy connection with a vanished peer does not
        // spin the loop until its completion arrives.
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn.fd, nullptr);
        conn.registered = false;
        conn.interest = 0;
        return;
    }
    if (want != conn.interest &&
        ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
        conn.interest = want;
}

void
SocketServer::closeConn(std::uint64_t id)
{
    const auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    if (it->second.registered)
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
    closeFd(it->second.fd);
    conns_.erase(it);
}

void
SocketServer::drainCompletions()
{
    std::deque<Completion> done;
    {
        std::lock_guard lock(completionMutex_);
        done.swap(completions_);
    }
    for (Completion &completion : done) {
        const auto it = conns_.find(completion.conn);
        if (it == conns_.end())
            continue; // connection died while the handler ran
        Conn &conn = it->second;
        conn.busy = false;
        try {
            if (conn.out.empty())
                conn.out = std::move(completion.frame); // not a copy
            else
                conn.out += completion.frame;
        } catch (const std::bad_alloc &) {
            closeConn(completion.conn);
            continue;
        }
        if (stopping_.load(std::memory_order_acquire) ||
            handler_.shuttingDown()) {
            // The response just queued (e.g. the shutdown ack) still
            // flushes to its client before the close.
            conn.readClosed = true;
            conn.in.clear();
            conn.closeAfterFlush = true;
        }
        pump(completion.conn, conn);
    }
}

void
SocketServer::beginDrainPass()
{
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto &[id, conn] : conns_)
        ids.push_back(id);
    for (const std::uint64_t id : ids) {
        const auto it = conns_.find(id);
        if (it == conns_.end())
            continue;
        Conn &conn = it->second;
        if (conn.busy)
            continue; // its completion will close it
        conn.readClosed = true;
        pump(id, conn);
    }
}

void
SocketServer::reactorLoop()
{
    bool accepting = true;
    std::vector<epoll_event> events(64);
    for (;;) {
        const bool draining =
            stopping_.load(std::memory_order_acquire) ||
            handler_.shuttingDown();
        if (draining && accepting) {
            ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
            accepting = false;
        }
        if (draining) {
            beginDrainPass();
            if (conns_.empty())
                break;
        }
        const int ready =
            ::epoll_wait(epollFd_, events.data(),
                         static_cast<int>(events.size()),
                         /*timeout_ms=*/100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < ready; ++i) {
            const std::uint64_t id = events[i].data.u64;
            const std::uint32_t got = events[i].events;
            if (id == kListenTag) {
                handleAccept(draining);
                continue;
            }
            if (id == kWakeTag) {
                std::uint64_t drained = 0;
                [[maybe_unused]] const ssize_t n = ::read(
                    wakeFd_, &drained, sizeof drained);
                continue;
            }
            const auto it = conns_.find(id);
            if (it == conns_.end())
                continue; // closed earlier in this same batch
            Conn &conn = it->second;
            if (got & EPOLLERR) {
                closeConn(id);
                continue;
            }
            if (got & (EPOLLIN | EPOLLHUP))
                handleReadable(id, conn);
            pump(id, conn);
        }
        drainCompletions();
    }
    for (auto &[id, conn] : conns_) {
        if (conn.registered)
            ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn.fd, nullptr);
        closeFd(conn.fd);
    }
    conns_.clear();
    {
        std::lock_guard lock(finishedMutex_);
        finished_ = true;
    }
    finishedCv_.notify_all();
}

void
SocketServer::stop()
{
    if (listenFd_ < 0)
        return;
    stopping_.store(true, std::memory_order_release);
    wakeReactor();
    if (reactorThread_.joinable())
        reactorThread_.join();
    {
        std::lock_guard lock(workMutex_);
        workClosed_ = true;
    }
    workCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
    closeFd(epollFd_);
    epollFd_ = -1;
    closeFd(wakeFd_);
    wakeFd_ = -1;
    closeFd(listenFd_);
    listenFd_ = -1;
    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());
}

void
SocketServer::waitForShutdown()
{
    if (listenFd_ < 0)
        return;
    // The reactor exits on its own once the handler starts draining
    // and the last connection flushed its final response.
    {
        std::unique_lock lock(finishedMutex_);
        finishedCv_.wait(lock, [this] { return finished_; });
    }
    stop();
}

ServeClient::~ServeClient()
{
    closeFd(fd_);
}

ServeClient::ServeClient(ServeClient &&other) noexcept
    : fd_(other.fd_), timedOut_(other.timedOut_)
{
    other.fd_ = -1;
}

ServeClient &
ServeClient::operator=(ServeClient &&other) noexcept
{
    if (this != &other) {
        closeFd(fd_);
        fd_ = other.fd_;
        timedOut_ = other.timedOut_;
        other.fd_ = -1;
    }
    return *this;
}

std::optional<ServeClient>
ServeClient::connectUnix(const std::string &path, std::string *err)
{
    const int fd = wct::connectUnix(path, err);
    if (fd < 0)
        return std::nullopt;
    return ServeClient(fd);
}

std::optional<ServeClient>
ServeClient::connectTcp(int port, std::string *err)
{
    const int fd = wct::connectTcp(port, err);
    if (fd < 0)
        return std::nullopt;
    return ServeClient(fd);
}

void
ServeClient::setTimeoutMs(std::uint64_t ms)
{
    setSocketTimeoutMs(fd_, ms);
}

std::optional<Response>
ServeClient::call(const Request &request, std::string *err)
{
    timedOut_ = false;
    if (!sendAll(fd_, encodeRequest(request))) {
        if (err != nullptr)
            *err = "write failed (server closed the connection?)";
        return std::nullopt;
    }
    FdStreambuf buf(fd_);
    std::istream in(&buf);
    errno = 0;
    const auto payload = readFrame(in);
    if (!payload) {
        // A socket deadline armed by setTimeoutMs surfaces as EAGAIN
        // on the read underneath the failed frame.
        timedOut_ = errno == EAGAIN || errno == EWOULDBLOCK;
        if (err != nullptr)
            *err = timedOut_
                       ? "timed out waiting for the response"
                       : "no response (connection closed or corrupt "
                         "frame)";
        return std::nullopt;
    }
    std::string decode_err;
    auto response = decodeResponse(*payload, &decode_err);
    if (!response) {
        if (err != nullptr)
            *err = decode_err;
        return std::nullopt;
    }
    return response;
}

} // namespace wct::serve
