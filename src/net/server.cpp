#include "net/server.hpp"

#include <sys/socket.h>

#include "obs/export.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace psw::net {

namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;
constexpr size_t kMaxStreamsPerConnection = 16;
// Codec blob header bytes (u16 w, u16 h, u8 codec, u8 reserved); the raw
// fallback bounds the blob at this plus width*height*4.
constexpr size_t kCodecHeader = 6;

}  // namespace

// Callbacks capture this by shared_ptr: a completion firing after stop()
// (or after ~NetServer) lands in a closed queue, never in freed memory.
struct NetServer::CompletionQueue {
  explicit CompletionQueue(serve::RenderService& s) : service(s) {}

  // Lock protocol: one mutex covers the items and the closed flag (checked
  // before every push, so items never land after close). The queue owns
  // the wake pipe that signals the poll thread, so a late pusher always
  // writes to a pipe whose read end is still open.
  serve::RenderService& service;  // runs every callback, so outlives them
  Mutex mutex;
  std::vector<CompletionItem> items PSW_GUARDED_BY(mutex);
  bool closed PSW_GUARDED_BY(mutex) = false;
  WakePipe pipe;

  // Hands a frame nobody will deliver back to the service's frame pool.
  void drop(CompletionItem& item) {
    if (!item.result.image.empty()) {
      service.recycle_frame(std::move(item.result.image));
    }
  }

  void push(CompletionItem&& item) {
    MutexLock lock(mutex);
    if (closed) return drop(item);
    items.push_back(std::move(item));
    WakePipe::wake(pipe.wr.get());
  }

  void close_and_clear() {
    MutexLock lock(mutex);
    closed = true;
    for (CompletionItem& item : items) drop(item);
    items.clear();
  }
};

NetServer::NetServer(serve::RenderService& service, NetServerOptions options)
    : service_(service),
      options_(options),
      pool_(BufferPool::Options{options.pool_buffers_per_class,
                                options.pool_retained_bytes,
                                options.pool_poison}),
      queue_(std::make_shared<CompletionQueue>(service)) {
  options_.stream_window = std::max(1, options_.stream_window);
  options_.max_pending_frames = std::max<size_t>(1, options_.max_pending_frames);
}

NetServer::~NetServer() { stop(); }

bool NetServer::start(std::string* error) {
  if (thread_.joinable()) {
    if (error) *error = "server already started";
    return false;
  }
  listener_ = tcp_listen(options_.bind_address, options_.port, options_.backlog, error);
  if (!listener_.valid()) return false;
  port_ = local_port(listener_.get());
  set_nonblocking(listener_.get(), true);
  // A restart after stop() needs a live queue: the old one was closed for
  // good in stop() (completion callbacks from the previous run may still
  // hold references to it, and must keep landing in a *closed* queue), so
  // each start gets a fresh queue rather than reopening the retired one.
  auto queue = std::make_shared<CompletionQueue>(service_);
  if (!queue->pipe.open(error)) {
    listener_.reset();
    return false;
  }
  queue_ = std::move(queue);

  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { poll_loop(); });
  return true;
}

void NetServer::stop() {
  queue_->close_and_clear();
  stopping_.store(true, std::memory_order_release);
  WakePipe::wake(queue_->pipe.wr.get());
  if (thread_.joinable()) thread_.join();
  listener_.reset();
}

void NetServer::export_metrics(obs::MetricSink& sink) const {
  sink.begin("service");
  service_.export_metrics(sink);
  sink.end();
  sink.begin("net");
  metrics_.export_to(sink);
  sink.end();
  serve::export_pool(sink, "net_pool", pool_.stats());
  obs::export_recorder(sink, options_.recorder);
}

std::string NetServer::metrics_json() const {
  return obs::render_json([&](obs::MetricSink& s) { export_metrics(s); });
}

std::string NetServer::prometheus_text() const {
  return obs::render_prometheus([&](obs::MetricSink& s) { export_metrics(s); });
}

std::string NetServer::trace_dump_json() const {
  return obs::trace_dump_json(options_.recorder, options_.trace_node);
}

void NetServer::poll_loop() {
  PollSet poll;
  while (!stopping_.load(std::memory_order_acquire)) {
    poll.clear();
    poll.add(listener_.get(), POLLIN);
    poll.add(queue_->pipe.rd.get(), POLLIN);
    for (auto& [id, conn] : conns_) poll.add(conn.link.fd(), conn.link.poll_events());
    poll.wait(50);
    if (stopping_.load(std::memory_order_acquire)) break;

    if (poll.revents(1) & POLLIN) queue_->pipe.drain();
    drain_completions();
    // Slots follow conns_ order: nothing below adds or removes a
    // connection before the accept that ends this pass's reads.
    size_t slot = 2;
    for (auto& [id, conn] : conns_) {
      const short revents = poll.revents(slot++);
      if (revents & (POLLERR | POLLNVAL)) {
        conn.closing = true;
        conn.link.discard_output();
      } else if (revents & (POLLIN | POLLHUP)) {
        read_ready(conn);
      }
    }
    if (poll.revents(0) & POLLIN) {
      accept_pending(listener_.get(), conns_.size(),
                     static_cast<size_t>(options_.max_connections),
                     &metrics_.connections_rejected, [this](UniqueFd fd) {
                       if (options_.socket_send_buffer_bytes > 0) {
                         ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF,
                                      &options_.socket_send_buffer_bytes,
                                      sizeof(options_.socket_send_buffer_bytes));
                       }
                       Connection conn;
                       conn.id = next_conn_id_++;
                       conn.link = Transport(std::move(fd));
                       metrics_.connections_accepted.fetch_add(1);
                       conns_.emplace(conn.id, std::move(conn));
                     });
    }

    // Opportunistic flush for every connection with queued bytes (replies
    // generated this iteration go out without waiting for the next poll),
    // then finish connections that have flushed their goodbye, and those
    // idle with nothing outstanding.
    const Transport::Clock::time_point now = Transport::Clock::now();
    std::vector<uint64_t> done;
    for (auto& [id, conn] : conns_) {
      write_ready(conn);
      if (conn.closing && conn.link.output_empty()) {
        done.push_back(id);
      } else if (conn.streams.empty() && conn.outstanding_requests == 0 &&
                 conn.link.idle(options_.idle_timeout_ms, now)) {
        metrics_.idle_timeouts.fetch_add(1);
        done.push_back(id);
      }
    }
    for (const uint64_t id : done) close_connection(id);
  }
  // Poll thread owns the connections; drop them on the way out so their
  // fds close on this thread.
  while (!conns_.empty()) close_connection(conns_.begin()->first);
}

void NetServer::read_ready(Connection& conn) {
  uint64_t bytes = 0;
  WireStatus framing = WireStatus::kOk;
  const bool open = conn.link.read_frames(
      &bytes,
      [&](const WireView& msg) { return !conn.closing && handle_message(conn, msg); },
      &framing);
  metrics_.bytes_in.fetch_add(bytes);
  if (framing != WireStatus::kOk) {
    // A framing error loses message boundaries; the only safe answer is a
    // typed goodbye and a close.
    metrics_.protocol_errors.fetch_add(1);
    send_error(conn, 0, serve::ServeStatus::kError,
               std::string("wire error: ") + to_string(framing));
  }
  if (!open) conn.closing = true;  // flush what we owe, then close
}

void NetServer::write_ready(Connection& conn) {
  uint64_t bytes = 0;
  const IoStatus status = conn.link.flush(&bytes, options_.recorder);
  metrics_.bytes_out.fetch_add(bytes);
  if (status == IoStatus::kClosed) {
    conn.closing = true;  // peer is gone; the cleanup pass reaps us
  } else if (conn.link.output_empty()) {
    pump_streams(conn);  // streams gated on the buffer bound encode again
  }
}

bool NetServer::handle_message(Connection& conn, const WireView& msg) {
  if (!conn.got_hello && msg.type != MsgType::kHello) {
    metrics_.protocol_errors.fetch_add(1);
    send_error(conn, 0, serve::ServeStatus::kError, "expected hello first");
    return false;
  }
  switch (msg.type) {
    case MsgType::kHello: {
      // The header version is checked by decode_message; the hello carries
      // the version the *client* intends to speak, which may differ.
      std::string rejection;
      if (!check_hello(msg.payload, &rejection)) break;
      if (!rejection.empty()) {
        metrics_.protocol_errors.fetch_add(1);
        send_error(conn, 0, serve::ServeStatus::kError, rejection);
        return false;  // flush the typed error, then close
      }
      conn.got_hello = true;
      conn.link.send(MsgType::kHelloAck, HelloMsg{kProtocolVersion, "pswvr-netserve"},
                     pool_);
      return true;
    }
    case MsgType::kRenderRequest: {
      RenderRequestMsg req;
      if (!RenderRequestMsg::decode(msg.payload, &req)) break;
      handle_render_request(conn, req);
      return true;
    }
    case MsgType::kStreamRequest: {
      StreamRequestMsg req;
      if (!StreamRequestMsg::decode(msg.payload, &req)) break;
      handle_stream_request(conn, req);
      return true;
    }
    case MsgType::kMetricsRequest:
      conn.link.send(MsgType::kMetricsReply, metrics_reply(*this, msg.payload),
                     pool_);
      return true;
    case MsgType::kBye:
      return false;  // flush pending output, then close
    default:
      break;  // server-to-client types arriving here are protocol errors
  }
  metrics_.protocol_errors.fetch_add(1);
  send_error(conn, 0, serve::ServeStatus::kError,
             std::string("bad message: ") + to_string(msg.type));
  return false;
}

void NetServer::handle_render_request(Connection& conn, const RenderRequestMsg& req) {
  metrics_.requests_received.fetch_add(1);
  serve::RenderRequest render;
  render.session_id = req.session_id;
  render.volume = req.volume;
  render.camera = req.camera;
  render.trace = req.trace;
  maybe_head_sample(&render.trace);
  render.trace_tag = req.request_id;
  if (req.deadline_ms > 0) {
    render.deadline = serve::Clock::now() + std::chrono::microseconds(static_cast<int64_t>(
                                                req.deadline_ms * 1e3));
  }
  const obs::TraceContext trace = render.trace;  // survives the move below
  const serve::ServeStatus admission =
      submit(std::move(render), conn.id, /*stream_id=*/0, req.request_id,
             req.session_id, /*seq=*/0);
  if (admission != serve::ServeStatus::kOk) {
    send_error(conn, req.request_id, admission, to_string(admission), trace);
    return;
  }
  ++conn.outstanding_requests;
}

void NetServer::handle_stream_request(Connection& conn, const StreamRequestMsg& req) {
  if (conn.streams.size() >= kMaxStreamsPerConnection ||
      conn.streams.count(req.stream_id) != 0) {
    metrics_.protocol_errors.fetch_add(1);
    send_error(conn, req.stream_id, serve::ServeStatus::kError,
               conn.streams.count(req.stream_id) ? "duplicate stream id"
                                                 : "too many streams");
    return;
  }
  metrics_.streams_opened.fetch_add(1);
  Stream stream;
  stream.request = req;
  // A head-sampled stream traces every pushed frame under one trace id,
  // exactly as a client-sampled stream would.
  maybe_head_sample(&stream.request.trace);
  auto [it, inserted] = conn.streams.emplace(req.stream_id, std::move(stream));
  pump_one_stream(conn, it->second);
  if (it->second.ended) conn.streams.erase(it);
}

serve::ServeStatus NetServer::submit(serve::RenderRequest&& render,
                                     uint64_t conn_id, uint64_t stream_id,
                                     uint64_t request_id, uint64_t session_id,
                                     uint32_t seq) {
  return service_.submit_async(
      std::move(render), [queue = queue_, conn_id, stream_id, request_id,
                          session_id, seq](serve::FrameResult r) {
        queue->push({conn_id, stream_id, request_id, session_id, seq, std::move(r)});
      });
}

void NetServer::drain_completions() {
  {
    MutexLock lock(queue_->mutex);
    completions_.swap(queue_->items);
  }
  for (CompletionItem& item : completions_) apply_completion(std::move(item));
  completions_.clear();  // keeps its capacity for the next swap
}

void NetServer::apply_completion(CompletionItem&& item) {
  // A frame whose connection or stream is gone goes back to the pool.
  const auto orphan = [&] {
    metrics_.orphaned_completions.fetch_add(1);
    queue_->drop(item);
  };
  const auto cit = conns_.find(item.conn_id);
  if (cit == conns_.end()) return orphan();
  Connection& conn = cit->second;

  if (item.stream_id == 0) {
    // One-shot request/reply.
    --conn.outstanding_requests;
    if (item.result.status != serve::ServeStatus::kOk) {
      send_error(conn, item.request_id, item.result.status,
                 to_string(item.result.status), item.result.trace);
      return;
    }
    send_frame(conn, conn.session_encoders[item.session_id], item, 0);
    return;
  }

  const auto sit = conn.streams.find(item.stream_id);
  if (sit == conn.streams.end()) return orphan();
  Stream& stream = sit->second;
  --stream.in_flight;
  if (item.result.status == serve::ServeStatus::kOk) {
    stream.ready.push_back(std::move(item));
    // Backpressure: a slow consumer gets the newest frames; the oldest
    // rendered-but-undelivered frame is shed, before it ever reaches the
    // encoder (so the delta chain only contains delivered frames). Its
    // image goes straight back to the render service's frame pool.
    while (stream.ready.size() > options_.max_pending_frames) {
      service_.recycle_frame(std::move(stream.ready.front().result.image));
      stream.ready.pop_front();
      ++stream.dropped;
      ++stream.pending_dropped;
      metrics_.frames_dropped.fetch_add(1);
    }
  } else {
    // The service shed or failed this frame: it will never be delivered.
    ++stream.dropped;
    ++stream.pending_dropped;
    metrics_.frames_dropped.fetch_add(1);
  }
  pump_one_stream(conn, stream);
  if (stream.ended) conn.streams.erase(sit);
}

void NetServer::pump_streams(Connection& conn) {
  for (auto it = conn.streams.begin(); it != conn.streams.end();) {
    pump_one_stream(conn, it->second);
    it = it->second.ended ? conn.streams.erase(it) : std::next(it);
  }
}

void NetServer::pump_one_stream(Connection& conn, Stream& stream) {
  if (stream.ended) return;
  const StreamRequestMsg& req = stream.request;

  // Keep up to stream_window frames inside the render service. kQueueFull
  // is transient (retried on the next pump); any other admission failure
  // (shutdown) means the remaining frames will never render.
  while (stream.in_flight < static_cast<uint32_t>(options_.stream_window) &&
         stream.next_submit < req.frames) {
    serve::RenderRequest render;
    render.session_id = req.session_id;
    render.volume = req.volume;
    render.trace = req.trace;
    render.trace_tag = stream.next_submit;  // frame seq correlates the spans
    render.camera = Camera::orbit(
        {req.volume.nx, req.volume.ny, req.volume.nz},
        req.start_yaw + stream.next_submit * req.step_deg * kDeg, req.pitch);
    const serve::ServeStatus admission =
        submit(std::move(render), conn.id, req.stream_id, /*request_id=*/0,
               req.session_id, stream.next_submit);
    if (admission == serve::ServeStatus::kOk) {
      ++stream.in_flight;
      ++stream.next_submit;
      continue;
    }
    if (admission == serve::ServeStatus::kQueueFull) break;
    const uint32_t remaining = req.frames - stream.next_submit;
    stream.dropped += remaining;
    stream.pending_dropped += remaining;
    metrics_.frames_dropped.fetch_add(remaining);
    stream.next_submit = req.frames;
    break;
  }

  // Encode and enqueue ready frames while the send buffer has room.
  while (!stream.ready.empty() &&
         conn.link.queued_bytes() < options_.max_send_buffer_bytes) {
    CompletionItem item = std::move(stream.ready.front());
    stream.ready.pop_front();
    send_frame(conn, stream.encoder, item, std::exchange(stream.pending_dropped, 0));
    ++stream.sent;
  }

  if (stream.next_submit >= req.frames && stream.in_flight == 0 &&
      stream.ready.empty()) {
    conn.link.send(MsgType::kStreamEnd,
                   StreamEndMsg{req.stream_id, stream.sent, stream.dropped}, pool_);
    metrics_.streams_completed.fetch_add(1);
    stream.ended = true;
  }
}

void NetServer::send_frame(Connection& conn, FrameEncoder& encoder,
                           CompletionItem& item, uint32_t dropped_before) {
  const serve::FrameTiming& timing = item.result.timing;
  FrameMsg frame;
  frame.request_id = item.request_id;
  frame.stream_id = item.stream_id;
  frame.seq = item.seq;
  frame.dropped_before = dropped_before;
  frame.render_ms = timing.composite_ms + timing.warp_ms;
  frame.total_ms = timing.total_ms;
  frame.cache_hit = timing.cache_hit ? 1 : 0;
  // Single-buffer frame path: metadata, a blob-length placeholder, then the
  // codec encoding appended in place and the length patched — the blob never
  // exists outside the wire payload, and the payload buffer is pooled. The
  // acquire hint covers the raw-fallback worst case so a warm pool means no
  // allocation and no mid-encode regrowth.
  const bool traced = item.result.trace.sampled();
  const size_t raw_bytes = item.result.image.pixel_count() * 4;
  size_t acquire_hint = FrameMsg::kMetaSize + 4 + kCodecHeader + raw_bytes;
  if (traced) {
    // Sampled frames carry their stage spans in the trace tail; covering
    // the tail (plus the encode span added below) in the acquire hint keeps
    // even the sampled path free of mid-append regrowth.
    frame.trace = item.result.trace;
    frame.spans = std::move(item.result.spans);
    acquire_hint +=
        kTraceTailHeaderSize + (frame.spans.size() + 1) * kWireSpanSize;
  }
  PooledBuffer payload = pool_.acquire(acquire_hint);
  frame.encode_meta(&payload.vec());
  const size_t blob_len_at = payload.vec().size();
  put_u32(&payload.vec(), 0);  // patched once the blob size is known
  const int64_t encode_start = traced ? steady_now_ns() : 0;
  encoder.encode_append(item.result.image, &payload.vec());
  const size_t blob_bytes = payload.vec().size() - blob_len_at - 4;
  put_u32_at(&payload.vec(), blob_len_at, static_cast<uint32_t>(blob_bytes));
  uint64_t request_span = 0;
  if (traced) {
    // The codec encode gets its own span under the whole-request span the
    // scheduler recorded (the wire parent when the scheduler recorded none).
    for (const obs::SpanRecord& s : frame.spans) {
      if (s.kind == obs::SpanKind::kRequest) request_span = s.span_id;
    }
    if (request_span == 0) request_span = frame.trace.parent_span;
    const obs::SpanRecord enc{frame.trace.trace_hi, frame.trace.trace_lo,
                              obs::next_span_id(),   request_span,
                              obs::SpanKind::kFrameEncode, encode_start,
                              steady_now_ns(),       blob_bytes};
    if (options_.recorder != nullptr) options_.recorder->record(frame.trace, enc);
    frame.spans.push_back(enc);
    // The tail travels wall-anchored so router- and shard-side dumps share
    // one time axis with the client.
    for (obs::SpanRecord& s : frame.spans) {
      s.t_start_ns = steady_to_wall_ns(s.t_start_ns);
      s.t_end_ns = steady_to_wall_ns(s.t_end_ns);
    }
    frame.encode_trace_tail(&payload.vec());
  }
  metrics_.frames_sent.fetch_add(1);
  metrics_.frame_raw_bytes.fetch_add(raw_bytes);
  metrics_.frame_wire_bytes.fetch_add(blob_bytes);
  service_.recycle_frame(std::move(item.result.image));
  SendItem& queued = conn.link.send(MsgType::kFrame, std::move(payload));
  if (traced) {
    queued.trace = frame.trace;
    queued.send_parent = request_span;
    queued.queued_ns = steady_now_ns();
  }
}

void NetServer::send_error(Connection& conn, uint64_t request_id,
                           serve::ServeStatus status, const std::string& message,
                           const obs::TraceContext& trace) {
  // The trace correlates the client-visible error with the trace.
  conn.link.send(MsgType::kError,
                 ErrorMsg{request_id, static_cast<uint16_t>(status), message, trace},
                 pool_);
  metrics_.errors_sent.fetch_add(1);
}

void NetServer::maybe_head_sample(obs::TraceContext* trace) {
  if (trace->sampled() || options_.trace_sample == 0) return;
  if (++trace_candidates_ % options_.trace_sample != 0) return;
  *trace = obs::make_sampled_trace();
}

void NetServer::close_connection(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // Rendered-but-unsent frames still hold pool-born images; hand them back
  // so a churn of short-lived streams doesn't bleed the frame pool.
  for (auto& [sid, stream] : it->second.streams) {
    for (CompletionItem& item : stream.ready) queue_->drop(item);
  }
  conns_.erase(it);
  metrics_.connections_closed.fetch_add(1);
}

}  // namespace psw::net
