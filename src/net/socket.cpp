#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace psw::net {

namespace {

void set_error(std::string* error, const char* what) {
  if (error) *error = std::string(what) + ": " + std::strerror(errno);
}

bool parse_addr(const std::string& addr, uint16_t port, sockaddr_in* out,
                std::string* error) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  if (inet_pton(AF_INET, addr.c_str(), &out->sin_addr) != 1) {
    if (error) *error = "invalid IPv4 address '" + addr + "'";
    return false;
  }
  return true;
}

}  // namespace

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

UniqueFd tcp_listen(const std::string& addr, uint16_t port, int backlog,
                    std::string* error) {
  sockaddr_in sa;
  if (!parse_addr(addr, port, &sa, error)) return UniqueFd();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_error(error, "socket");
    return UniqueFd();
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    set_error(error, "bind");
    return UniqueFd();
  }
  if (::listen(fd.get(), backlog) != 0) {
    set_error(error, "listen");
    return UniqueFd();
  }
  return fd;
}

uint16_t local_port(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) return 0;
  return ntohs(sa.sin_port);
}

namespace {

// Creates a TCP_NODELAY socket and connects it to host:port; a nonblocking
// socket may leave the connect pending (*in_progress).
UniqueFd connect_socket(const std::string& host, uint16_t port, std::string* error,
                        int* connect_errno, int recv_buffer_bytes,
                        bool nonblocking, bool* in_progress) {
  int ignored = 0;
  if (connect_errno == nullptr) connect_errno = &ignored;
  *connect_errno = 0;
  *in_progress = false;
  sockaddr_in sa;
  if (!parse_addr(host, port, &sa, error)) return UniqueFd();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid() || (nonblocking && !set_nonblocking(fd.get(), true))) {
    *connect_errno = errno;
    set_error(error, fd.valid() ? "fcntl" : "socket");
    return UniqueFd();
  }
  if (recv_buffer_bytes > 0) {
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &recv_buffer_bytes,
                 sizeof(recv_buffer_bytes));
  }
  // Frames are written whole; batching small messages behind Nagle only
  // adds latency to the request/reply path.
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    if (nonblocking && errno == EINPROGRESS) {
      *in_progress = true;
      return fd;
    }
    *connect_errno = errno;
    set_error(error, "connect");
    return UniqueFd();
  }
  return fd;  // connected (immediately, for a nonblocking loopback connect)
}

}  // namespace

UniqueFd tcp_connect(const std::string& host, uint16_t port, std::string* error,
                     int recv_buffer_bytes, int* connect_errno) {
  bool in_progress = false;
  return connect_socket(host, port, error, connect_errno, recv_buffer_bytes,
                        /*nonblocking=*/false, &in_progress);
}

bool retryable_connect_errno(int err) {
  return err == ECONNREFUSED || err == ECONNRESET || err == ETIMEDOUT ||
         err == EHOSTUNREACH || err == ENETUNREACH || err == EAGAIN;
}

UniqueFd tcp_connect_start(const std::string& host, uint16_t port,
                           std::string* error, bool* in_progress) {
  return connect_socket(host, port, error, nullptr, 0, /*nonblocking=*/true,
                        in_progress);
}

int finish_nonblocking_connect(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

bool set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? flags | O_NONBLOCK : flags & ~O_NONBLOCK;
  return ::fcntl(fd, F_SETFL, want) == 0;
}

bool set_recv_timeout_ms(int fd, double timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1e3);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_ms - static_cast<double>(tv.tv_sec) * 1e3) * 1e3);
  }
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

}  // namespace psw::net
