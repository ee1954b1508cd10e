/**
 * @file
 * Shared POSIX socket primitives: a buffered std::streambuf over a
 * file descriptor plus listen/connect helpers for Unix-domain and
 * loopback-TCP sockets.
 *
 * These started life inside the serving transport (src/serve/
 * socket.cc) and were hoisted here unchanged when the remote
 * artifact store (src/data/remote_store.cc) needed the same
 * primitives — wct_data cannot depend on wct_serve, so the lowest
 * layer owns them. Everything is deliberately blocking and
 * thread-agnostic; callers own the descriptor lifecycle (closeFd)
 * and any shutdown choreography.
 */

#ifndef WCT_UTIL_SOCKET_IO_HH
#define WCT_UTIL_SOCKET_IO_HH

#include <cstddef>
#include <cstdint>
#include <streambuf>
#include <string>
#include <string_view>

namespace wct
{

/**
 * Minimal buffered std::streambuf that reads a socket descriptor, so
 * the envelope readers of data/binary_io.hh work on a connection
 * exactly as they do on a file. Reads block; shutdown is delivered
 * by ::shutdown on the fd, which turns the parked read into EOF.
 * Does not own the fd.
 */
class FdStreambuf : public std::streambuf
{
  public:
    explicit FdStreambuf(int fd);

  protected:
    int_type underflow() override;

  private:
    int fd_;
    char inBuf_[8192];
};

/**
 * Send all of `bytes` on a blocking socket; false once a send fails
 * (the peer is gone, or a timeout armed by setSocketTimeoutMs
 * expired). Uses MSG_NOSIGNAL, so a peer that already closed
 * surfaces as an EPIPE error, not a process-wide SIGPIPE.
 */
bool sendAll(int fd, std::string_view bytes);

/** Close a descriptor if it is valid (>= 0); no-op otherwise. */
void closeFd(int fd);

/** Put a descriptor in O_NONBLOCK mode; false on failure. */
bool setNonBlocking(int fd);

/**
 * Arm SO_RCVTIMEO/SO_SNDTIMEO on a (blocking) socket so a stalled
 * peer surfaces as an EAGAIN read/write failure after `ms`
 * milliseconds instead of parking the caller forever. 0 disarms.
 */
void setSocketTimeoutMs(int fd, std::uint64_t ms);

/**
 * Bind + listen on a Unix-domain socket path (unlinking any stale
 * socket from a previous run). Returns the listening fd, or -1 with
 * the reason in `err` when non-null.
 */
int listenUnix(const std::string &path, int backlog,
               std::string *err);

/**
 * Bind + listen on 127.0.0.1:port (0 picks an ephemeral port, which
 * is reported through `bound_port`). Returns the listening fd, or -1
 * with the reason in `err` when non-null.
 */
int listenTcp(int port, int backlog, int *bound_port,
              std::string *err);

/** Connect to a Unix-domain socket; -1 + err on failure. */
int connectUnix(const std::string &path, std::string *err);

/** Connect to 127.0.0.1:port; -1 + err on failure. */
int connectTcp(int port, std::string *err);

} // namespace wct

#endif // WCT_UTIL_SOCKET_IO_HH
