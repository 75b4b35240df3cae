// The socket plumbing every PSWN endpoint shares. NetServer, the cluster
// Router (client, upstream and shard-control faces) and the blocking
// NetClient hold one Transport per connection and keep only their policy:
//
//   input   recv() lands straight in the tail of one buffer; frames decode
//           in place as WireViews behind a read offset, and the unread
//           remainder (one partial frame at most) moves to the front only
//           when the free tail drops below one receive chunk.
//   output  {16-byte header, PooledBuffer payload} items drained by
//           scatter-gather sendmsg, resuming after partial writes.
//           forward() keeps a decoded message's header verbatim (its CRC
//           was checked on receipt) and copies the payload once.
//
// The poll set, the accept loop (connection cap, TCP_NODELAY) and the
// wake pipe live here too: each system call has one call site.
#pragma once

#include <poll.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "util/buffer_pool.hpp"
#include "util/function_ref.hpp"

namespace psw::net {

// Outcome of one Transport::receive() or flush().
enum class IoStatus {
  kOk,          // receive: bytes arrived; flush: the queue drained
  kWouldBlock,  // receive: none were available (on a blocking socket, the
                // receive timeout expired); flush: the kernel buffer is full
  kClosed,      // EOF or a hard socket error; errno holds it (0 for EOF)
};

// One queued outbound message.
struct SendItem {
  std::array<uint8_t, kHeaderSize> header;
  PooledBuffer payload;
  size_t sent = 0;  // bytes of header+payload already accepted by the kernel
  // A sampled item records a kSend span (queued -> fully handed to the
  // kernel) when it drains, if flush() is given a recorder.
  obs::TraceContext trace;
  uint64_t send_parent = 0;
  int64_t queued_ns = 0;
};

class Transport {
 public:
  using Clock = std::chrono::steady_clock;

  Transport() = default;
  explicit Transport(UniqueFd fd) : fd_(std::move(fd)) {}

  int fd() const { return fd_.get(); }
  bool open() const { return fd_.valid(); }
  // Closes the socket and drops buffered input and queued output.
  void reset();

  // Starts a non-blocking connect. Output may be queued at once; flush()
  // holds it until the connect completes.
  bool start_connect(const std::string& host, uint16_t port, std::string* error);
  bool connecting() const { return connecting_; }
  // Completes a pending connect once poll reports `revents` for it; false
  // when the connect failed.
  bool finish_connect(short revents);

  // The poll events this connection waits for.
  short poll_events() const {
    if (connecting_) return POLLOUT;
    return static_cast<short>(POLLIN | (sendq_.empty() ? 0 : POLLOUT));
  }

  // Reads what the socket holds into the input buffer: the first recv()
  // may block (blocking sockets), later ones in the same call do not.
  // Adds the bytes read to *bytes_in (if given). kClosed is reported only
  // when no byte arrived, so frames sent just before a close still decode.
  IoStatus receive(uint64_t* bytes_in);
  // Decodes the next buffered frame in place; the view is valid until the
  // next receive().
  WireStatus next(WireView* out);
  // receive(), then passes each decoded frame to `handle` while it returns
  // true. False once the connection is done: EOF or a hard error, a frame
  // `handle` refused, or a framing error (named in *framing, which stays
  // kOk otherwise).
  bool read_frames(uint64_t* bytes_in, FunctionRef<bool(const WireView&)> handle,
                   WireStatus* framing);

  // Stamps the header of `payload` and queues it.
  SendItem& send(MsgType type, PooledBuffer&& payload);
  // Encodes `msg` into a pooled payload sized by encoded_size() and queues it.
  template <typename Msg>
  SendItem& send(MsgType type, const Msg& msg, BufferPool& pool) {
    PooledBuffer payload = pool.acquire(msg.encoded_size());
    msg.encode(&payload.vec());
    return send(type, std::move(payload));
  }
  // Queues a decoded message unchanged: its header bytes verbatim and one
  // copy of its payload in a pooled buffer. Adds the bytes copied to
  // *copied_bytes (if given).
  void forward(const WireView& msg, BufferPool& pool,
               std::atomic<uint64_t>* copied_bytes);
  // Sends queued output until the queue drains or the kernel pushes back,
  // adding the bytes sent to *bytes_out (if given). kClosed drops the
  // backlog, and every later flush reports it again.
  IoStatus flush(uint64_t* bytes_out, obs::SpanRecorder* recorder = nullptr);
  void discard_output();
  bool output_empty() const { return sendq_.empty(); }
  size_t queued_bytes() const { return queued_bytes_; }

  // True when nothing is queued and no byte has arrived for `timeout_ms`
  // (never, when timeout_ms <= 0).
  bool idle(double timeout_ms, Clock::time_point now) const;

 private:
  void make_room();

  UniqueFd fd_;
  bool connecting_ = false;
  bool failed_ = false;  // a send hit a hard error
  Clock::time_point last_activity_ = Clock::now();
  std::vector<uint8_t> in_;  // [in_begin_, in_end_) is received, undecoded
  size_t in_begin_ = 0;
  size_t in_end_ = 0;
  std::deque<SendItem> sendq_;
  size_t queued_bytes_ = 0;  // unsent bytes across sendq_
};

// The pollfd array of one poll-loop pass.
class PollSet {
 public:
  void clear() { fds_.clear(); }
  // Slots count up from 0 in add() order.
  void add(int fd, short events) { fds_.push_back({fd, events, 0}); }
  short revents(size_t slot) const { return fds_[slot].revents; }
  void wait(int timeout_ms) { ::poll(fds_.data(), fds_.size(), timeout_ms); }

 private:
  std::vector<pollfd> fds_;
};

// Accepts every pending connection on a non-blocking listener. Each socket
// is made non-blocking with TCP_NODELAY and handed to `adopt` while fewer
// than `max_open` connections are open (`open` counts the existing ones);
// beyond that it is closed at once and counted in *rejected.
void accept_pending(int listener, size_t open, size_t max_open,
                    std::atomic<uint64_t>* rejected,
                    FunctionRef<void(UniqueFd)> adopt);

// Self-pipe that wakes a poll loop from other threads.
struct WakePipe {
  UniqueFd rd;  // polled for POLLIN
  UniqueFd wr;

  // (Re)creates the pipe, closing any previous one.
  bool open(std::string* error);
  // Empties the pipe after the poll loop saw it readable.
  void drain() const;
  // Writes one wakeup byte to a pipe's write end; a full pipe already
  // holds a pending wakeup, so EAGAIN is fine.
  static void wake(int write_fd);
};

}  // namespace psw::net
