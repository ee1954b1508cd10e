#include "util/socket_io.hh"

#include <cerrno>
#include <cstdint>
#include <cstring>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace wct
{

FdStreambuf::FdStreambuf(int fd) : fd_(fd)
{
    setg(inBuf_, inBuf_, inBuf_);
}

FdStreambuf::int_type
FdStreambuf::underflow()
{
    if (gptr() < egptr())
        return traits_type::to_int_type(*gptr());
    ssize_t n;
    do {
        n = ::read(fd_, inBuf_, sizeof inBuf_);
    } while (n < 0 && errno == EINTR);
    if (n <= 0)
        return traits_type::eof();
    setg(inBuf_, inBuf_, inBuf_ + n);
    return traits_type::to_int_type(*gptr());
}

bool
sendAll(int fd, std::string_view bytes)
{
    while (!bytes.empty()) {
        ssize_t n;
        do {
            // MSG_NOSIGNAL: a peer that already closed must surface
            // as an EPIPE error here, not as a process-wide SIGPIPE.
            n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return false;
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

void
closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void
setSocketTimeoutMs(int fd, std::uint64_t ms)
{
    timeval tv = {};
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

int
listenUnix(const std::string &path, int backlog, std::string *err)
{
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        if (err != nullptr)
            *err = "unix socket path too long: " + path;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err != nullptr)
            *err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    ::unlink(path.c_str()); // stale socket from a previous run
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(fd, backlog) != 0) {
        if (err != nullptr)
            *err = "cannot listen on '" + path +
                   "': " + std::strerror(errno);
        closeFd(fd);
        return -1;
    }
    return fd;
}

int
listenTcp(int port, int backlog, int *bound_port, std::string *err)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err != nullptr)
            *err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(fd, backlog) != 0) {
        if (err != nullptr)
            *err = "cannot listen on 127.0.0.1:" +
                   std::to_string(port) + ": " +
                   std::strerror(errno);
        closeFd(fd);
        return -1;
    }
    sockaddr_in actual = {};
    socklen_t len = sizeof actual;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&actual),
                      &len) == 0)
        *bound_port = ntohs(actual.sin_port);
    return fd;
}

int
connectUnix(const std::string &path, std::string *err)
{
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        if (err != nullptr)
            *err = "unix socket path too long: " + path;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        if (err != nullptr)
            *err = "cannot connect to '" + path +
                   "': " + std::strerror(errno);
        closeFd(fd);
        return -1;
    }
    return fd;
}

int
connectTcp(int port, std::string *err)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        if (err != nullptr)
            *err = "cannot connect to 127.0.0.1:" +
                   std::to_string(port) + ": " +
                   std::strerror(errno);
        closeFd(fd);
        return -1;
    }
    return fd;
}

} // namespace wct
