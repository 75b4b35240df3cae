#include "net/transport.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/timer.hpp"

namespace psw::net {

namespace {

// The free input tail every recv() gets; below it the buffer compacts
// (moving the unread remainder, at most one partial frame) or grows.
constexpr size_t kRecvChunk = 64 * 1024;
// iovec slots per sendmsg call: 32 queued messages per syscall is plenty —
// a deeper backlog just means the next call sends more.
constexpr int kMaxIov = 64;

}  // namespace

void Transport::reset() {
  fd_.reset();
  connecting_ = failed_ = false;
  in_begin_ = in_end_ = 0;
  discard_output();
}

bool Transport::start_connect(const std::string& host, uint16_t port,
                              std::string* error) {
  reset();
  fd_ = tcp_connect_start(host, port, error, &connecting_);
  return fd_.valid();
}

bool Transport::finish_connect(short revents) {
  if (!connecting_ || !(revents & (POLLOUT | POLLERR | POLLHUP))) return true;
  connecting_ = false;
  return finish_nonblocking_connect(fd_.get()) == 0;
}

void Transport::make_room() {
  if (in_begin_ == in_end_) in_begin_ = in_end_ = 0;
  if (in_.size() - in_end_ >= kRecvChunk) return;
  if (in_begin_ > 0) {
    std::memmove(in_.data(), in_.data() + in_begin_, in_end_ - in_begin_);
    in_end_ -= in_begin_;
    in_begin_ = 0;
  }
  if (in_.size() - in_end_ < kRecvChunk) {
    in_.resize(std::max(2 * in_.size(), in_end_ + kRecvChunk));
  }
}

IoStatus Transport::receive(uint64_t* bytes_in) {
  size_t got = 0;
  int flags = 0;
  for (;;) {
    make_room();
    const size_t room = in_.size() - in_end_;
    const ssize_t n = ::recv(fd_.get(), in_.data() + in_end_, room, flags);
    if (n > 0) {
      in_end_ += static_cast<size_t>(n);
      got += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < room) break;
      flags = MSG_DONTWAIT;  // a full tail: more may be waiting
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (got > 0) break;  // any EOF or error shows again on the next call
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return IoStatus::kWouldBlock;
    }
    if (n == 0) errno = 0;
    return IoStatus::kClosed;
  }
  if (bytes_in) *bytes_in += got;
  last_activity_ = Clock::now();
  return IoStatus::kOk;
}

WireStatus Transport::next(WireView* out) {
  size_t consumed = 0;
  const WireStatus status = decode_message(in_.data() + in_begin_,
                                           in_end_ - in_begin_, out, &consumed);
  in_begin_ += consumed;
  return status;
}

bool Transport::read_frames(uint64_t* bytes_in,
                            FunctionRef<bool(const WireView&)> handle,
                            WireStatus* framing) {
  *framing = WireStatus::kOk;
  if (receive(bytes_in) == IoStatus::kClosed) return false;
  for (;;) {
    WireView msg;
    const WireStatus status = next(&msg);
    if (status == WireStatus::kNeedMore) return true;
    if (status != WireStatus::kOk) {
      *framing = status;
      return false;
    }
    if (!handle(msg)) return false;
  }
}

SendItem& Transport::send(MsgType type, PooledBuffer&& payload) {
  SendItem& item = sendq_.emplace_back();
  encode_header(type, payload.vec().data(), payload.vec().size(),
                item.header.data());
  queued_bytes_ += kHeaderSize + payload.vec().size();
  item.payload = std::move(payload);
  return item;
}

void Transport::forward(const WireView& msg, BufferPool& pool,
                        std::atomic<uint64_t>* copied_bytes) {
  PooledBuffer payload = pool.acquire(msg.payload.size());
  payload.vec().assign(msg.payload.begin(), msg.payload.end());
  if (copied_bytes) copied_bytes->fetch_add(msg.payload.size());
  SendItem& item = sendq_.emplace_back();
  std::memcpy(item.header.data(), msg.header, kHeaderSize);
  queued_bytes_ += kHeaderSize + msg.payload.size();
  item.payload = std::move(payload);
}

IoStatus Transport::flush(uint64_t* bytes_out, obs::SpanRecorder* recorder) {
  if (failed_) return IoStatus::kClosed;
  if (connecting_) return IoStatus::kWouldBlock;
  while (!sendq_.empty()) {
    // Each item contributes its inline header and its pooled payload as
    // separate iovecs; `sent` resumes a partially written item.
    iovec iov[kMaxIov];
    int niov = 0;
    for (SendItem& s : sendq_) {
      if (niov + 2 > kMaxIov) break;
      std::vector<uint8_t>& body = s.payload.vec();
      if (s.sent < kHeaderSize) {
        iov[niov++] = {s.header.data() + s.sent, kHeaderSize - s.sent};
        if (!body.empty()) iov[niov++] = {body.data(), body.size()};
      } else {
        const size_t body_off = s.sent - kHeaderSize;
        iov[niov++] = {body.data() + body_off, body.size() - body_off};
      }
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<decltype(mh.msg_iovlen)>(niov);
    const ssize_t n = ::sendmsg(fd_.get(), &mh, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return IoStatus::kWouldBlock;
    }
    if (n <= 0) {
      failed_ = true;  // the peer is gone: every later flush says so
      discard_output();
      return IoStatus::kClosed;
    }
    if (bytes_out) *bytes_out += static_cast<uint64_t>(n);
    queued_bytes_ -= static_cast<size_t>(n);
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      SendItem& front = sendq_.front();
      const size_t remaining = kHeaderSize + front.payload.vec().size() - front.sent;
      if (left < remaining) {
        front.sent += left;
        break;
      }
      left -= remaining;
      if (front.trace.sampled() && recorder != nullptr) {
        recorder->record(front.trace,
                         {front.trace.trace_hi, front.trace.trace_lo,
                          obs::next_span_id(), front.send_parent,
                          obs::SpanKind::kSend, front.queued_ns, steady_now_ns(),
                          front.payload.vec().size()});
      }
      sendq_.pop_front();  // returns the payload to its pool
    }
  }
  return IoStatus::kOk;
}

void Transport::discard_output() {
  sendq_.clear();  // every pooled payload goes back to its pool
  queued_bytes_ = 0;
}

bool Transport::idle(double timeout_ms, Clock::time_point now) const {
  return timeout_ms > 0 && sendq_.empty() &&
         std::chrono::duration<double, std::milli>(now - last_activity_).count() >
             timeout_ms;
}

void accept_pending(int listener, size_t open, size_t max_open,
                    std::atomic<uint64_t>* rejected,
                    FunctionRef<void(UniqueFd)> adopt) {
  for (;;) {
    UniqueFd fd(::accept(listener, nullptr, nullptr));
    if (!fd.valid()) return;  // EAGAIN or transient error: back to poll
    if (open >= max_open) {
      rejected->fetch_add(1);
      continue;
    }
    set_nonblocking(fd.get(), true);
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ++open;
    adopt(std::move(fd));
  }
}

bool WakePipe::open(std::string* error) {
  int fds[2];
  if (::pipe(fds) != 0) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  rd.reset(fds[0]);
  wr.reset(fds[1]);
  set_nonblocking(fds[0], true);
  set_nonblocking(fds[1], true);
  return true;
}

void WakePipe::drain() const {
  uint8_t sink[64];
  while (::read(rd.get(), sink, sizeof(sink)) > 0) {
  }
}

void WakePipe::wake(int write_fd) {
  if (write_fd < 0) return;
  const uint8_t byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(write_fd, &byte, 1);
}

}  // namespace psw::net
