// Thin POSIX TCP helpers shared by the server and client: RAII fd
// ownership, listen/connect with error strings instead of errno spelunking
// at every call site, and non-blocking mode toggles for the poll loop.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace psw::net {

// Owns one file descriptor; closes it on destruction. Move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(UniqueFd&& o) noexcept : fd_(o.release()) {}
  UniqueFd& operator=(UniqueFd&& o) noexcept {
    if (this != &o) reset(o.release());
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Binds and listens on addr:port (IPv4 dotted quad; port 0 = ephemeral).
// Returns an invalid fd and fills *error on failure.
UniqueFd tcp_listen(const std::string& addr, uint16_t port, int backlog,
                    std::string* error);

// The locally bound port of a listening socket (resolves port 0).
uint16_t local_port(int fd);

// Blocking connect to host:port (IPv4 dotted quad). A nonzero
// recv_buffer_bytes requests a small SO_RCVBUF before connecting (so it
// affects the negotiated window) — tests use this to provoke backpressure
// without shipping hundreds of megabytes through loopback. A non-null
// connect_errno receives the failing errno (0 on success) so callers can
// classify transient refusals (server not up yet) from permanent failures;
// `retryable_connect_errno` encodes that classification in one place.
UniqueFd tcp_connect(const std::string& host, uint16_t port, std::string* error,
                     int recv_buffer_bytes = 0, int* connect_errno = nullptr);

// True for errnos worth retrying with backoff: the address is fine but the
// peer is not (yet) accepting — ECONNREFUSED, ECONNRESET, ETIMEDOUT,
// EHOSTUNREACH, ENETUNREACH, EAGAIN.
bool retryable_connect_errno(int err);

// Starts a non-blocking connect: returns the socket (already O_NONBLOCK,
// TCP_NODELAY) with *in_progress = true when the connect is pending
// (EINPROGRESS; poll for writability, then finish_nonblocking_connect) and
// false when it completed immediately. Invalid fd + *error on failure.
UniqueFd tcp_connect_start(const std::string& host, uint16_t port,
                           std::string* error, bool* in_progress);

// After writability on a pending non-blocking connect: returns the
// SO_ERROR value (0 = connected).
int finish_nonblocking_connect(int fd);

bool set_nonblocking(int fd, bool on);

// Sets SO_RCVTIMEO so a blocking read cannot hang forever (0 disables).
bool set_recv_timeout_ms(int fd, double timeout_ms);

}  // namespace psw::net
