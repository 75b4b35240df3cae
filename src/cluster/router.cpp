#include "cluster/router.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "obs/export.hpp"
#include "util/timer.hpp"

namespace psw::cluster {

using net::IoStatus;
using net::MsgType;
using net::WireStatus;
using serve::Clock;

Router::Router(std::vector<ShardSpec> shards, RouterOptions options)
    : specs_(std::move(shards)),
      options_(std::move(options)),
      metrics_(specs_.size()),
      ring_(options_.vnodes),
      published_state_(new std::atomic<int>[specs_.size()]),
      drain_want_(new std::atomic<bool>[specs_.size()]) {
  shards_.resize(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    shards_[i].spec = specs_[i];
    published_state_[i].store(static_cast<int>(ShardState::kConnecting));
    drain_want_[i].store(false);
  }
  {
    MutexLock lock(snapshot_mutex_);
    shard_metrics_.resize(specs_.size());
  }
}

Router::~Router() { stop(); }

bool Router::start(std::string* error) {
  if (running()) return true;
  listener_ = net::tcp_listen(options_.bind_address, options_.port,
                              options_.backlog, error);
  if (!listener_.valid()) return false;
  net::set_nonblocking(listener_.get(), true);
  port_ = net::local_port(listener_.get());
  if (!wake_.open(error)) {
    listener_.reset();
    return false;
  }

  stopping_.store(false);
  const Clock::time_point now = Clock::now();
  for (Shard& s : shards_) {
    s.next_reconnect = now;  // connect control channels immediately
    s.backoff_ms = options_.reconnect_backoff_ms;
  }
  thread_ = std::thread([this] { poll_loop(); });
  return true;
}

void Router::stop() {
  if (!running()) return;
  stopping_.store(true);
  net::WakePipe::wake(wake_.wr.get());
  thread_.join();
  while (!conns_.empty()) close_client(conns_.begin()->first);
  for (Shard& s : shards_) s.ctl.reset();  // reconnects say hello afresh
  listener_.reset();
}

bool Router::wait_healthy(size_t n, double timeout_ms) const {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(static_cast<int64_t>(timeout_ms));
  for (;;) {
    size_t healthy = 0;
    for (size_t i = 0; i < specs_.size(); ++i) {
      const ShardState s = shard_state(i);
      if (s == ShardState::kHealthy || s == ShardState::kDraining) ++healthy;
    }
    if (healthy >= n) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool Router::set_drain(const std::string& shard_id, bool draining) {
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].id == shard_id) {
      // relaxed: a one-word request flag; the poll thread re-reads it on
      // its next iteration and the pipe write below provides the wakeup.
      drain_want_[i].store(draining, std::memory_order_relaxed);
      net::WakePipe::wake(wake_.wr.get());
      return true;
    }
  }
  return false;
}

void Router::export_metrics(obs::MetricSink& sink) const {
  std::vector<ShardSnapshot> snaps(specs_.size());
  {
    MutexLock lock(snapshot_mutex_);
    for (size_t i = 0; i < specs_.size(); ++i) {
      snaps[i].metrics_json = shard_metrics_[i];
    }
  }
  for (size_t i = 0; i < specs_.size(); ++i) {
    snaps[i].id = specs_[i].id;
    snaps[i].weight = specs_[i].weight;
    snaps[i].state = shard_state(i);
    snaps[i].in_ring = snaps[i].state == ShardState::kHealthy;
  }
  metrics_.export_to(sink, snaps);
  obs::export_recorder(sink, options_.recorder);
}

std::string Router::metrics_json() const {
  return obs::render_json([&](obs::MetricSink& s) { export_metrics(s); });
}

std::string Router::prometheus_text() const {
  return obs::render_prometheus([&](obs::MetricSink& s) { export_metrics(s); });
}

std::string Router::trace_dump_json() const {
  return obs::trace_dump_json(options_.recorder, options_.trace_node);
}

// --------------------------------------------------------------------------
// Poll loop
// --------------------------------------------------------------------------

void Router::poll_loop() {
  struct Slot {
    enum class Kind { kClient, kUpstream, kCtl } kind;
    uint64_t conn_id = 0;
    size_t shard = 0;
  };
  net::PollSet poll;
  std::vector<Slot> slots;

  while (!stopping_.load()) {
    const Clock::time_point now = Clock::now();

    // Apply administrative drain requests.
    for (size_t i = 0; i < shards_.size(); ++i) {
      // relaxed: see set_drain — the flag is a standalone request word.
      const bool want = drain_want_[i].load(std::memory_order_relaxed);
      if (want != shards_[i].draining) {
        shards_[i].draining = want;
        rebuild_ring();
        publish_state(i);
      }
    }

    // Advance shard control channels: reconnects, probes, probe timeouts.
    for (Shard& s : shards_) advance_shard(s, now);

    // Build the poll set.
    poll.clear();
    slots.clear();
    poll.add(listener_.get(), POLLIN);
    poll.add(wake_.rd.get(), POLLIN);
    for (auto& [id, conn] : conns_) {
      poll.add(conn.link.fd(), conn.link.poll_events());
      slots.push_back({Slot::Kind::kClient, id, 0});
      for (auto& [shard, up] : conn.upstreams) {
        poll.add(up.link.fd(), up.link.poll_events());
        slots.push_back({Slot::Kind::kUpstream, id, shard});
      }
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i].ctl.open()) continue;
      poll.add(shards_[i].ctl.fd(), shards_[i].ctl.poll_events());
      slots.push_back({Slot::Kind::kCtl, 0, i});
    }

    poll.wait(50);
    if (stopping_.load()) break;

    if (poll.revents(1) & POLLIN) wake_.drain();
    if (poll.revents(0) & POLLIN) {
      net::accept_pending(listener_.get(), conns_.size(),
                          static_cast<size_t>(options_.max_connections),
                          &metrics_.clients_rejected, [this](net::UniqueFd fd) {
                            ClientConn conn;
                            conn.id = next_conn_id_++;
                            conn.link = net::Transport(std::move(fd));
                            metrics_.clients_accepted.fetch_add(1);
                            conns_.emplace(conn.id, std::move(conn));
                          });
    }

    std::set<uint64_t> dead_clients;
    std::set<size_t> dead_shards;  // via data-path upstream loss

    for (size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      const short revents = poll.revents(i + 2);
      if (revents == 0) continue;
      const auto it = conns_.find(slot.conn_id);

      switch (slot.kind) {
        case Slot::Kind::kClient: {
          if (it == conns_.end()) break;
          if (revents & POLLIN) {
            client_read(it->second);
          } else if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
            dead_clients.insert(slot.conn_id);
          }
          break;
        }
        case Slot::Kind::kUpstream: {
          if (it == conns_.end()) break;
          ClientConn& conn = it->second;
          const auto uit = conn.upstreams.find(slot.shard);
          if (uit == conn.upstreams.end()) break;
          Upstream& up = uit->second;
          if (!up.link.finish_connect(revents)) up.broken = true;
          if (!up.link.connecting() && !up.broken && (revents & POLLIN)) {
            upstream_read(conn, up);
          }
          if (up.broken) dead_shards.insert(up.shard);
          break;
        }
        case Slot::Kind::kCtl: {
          Shard& s = shards_[slot.shard];
          if (!s.ctl.open()) break;
          if (!s.ctl.finish_connect(revents)) {
            ctl_failure(s, "connect failed");
            break;
          }
          if (!s.ctl.connecting() && (revents & POLLIN)) shard_ctl_read(s);
          break;
        }
      }
    }

    // Flush everything with pending output (newly queued bytes included),
    // then retire clients that failed, finished, or sat idle with nothing
    // outstanding.
    for (auto& [id, conn] : conns_) {
      bool outstanding = false;
      for (auto& [shard, up] : conn.upstreams) {
        if (!up.broken && up.link.flush(nullptr) == IoStatus::kClosed) {
          up.broken = true;
          dead_shards.insert(shard);
        }
        outstanding |= !up.inflight_requests.empty() || !up.active_streams.empty();
      }
      const bool open = conn.link.flush(nullptr) != IoStatus::kClosed;
      // A reader this slow would make the router buffer frames without
      // bound (forwarded delta frames cannot be dropped: the codec chain
      // breaks). Cut the connection instead.
      const bool slow = conn.link.queued_bytes() > options_.max_send_buffer_bytes;
      if (slow) metrics_.protocol_errors.fetch_add(1);
      if (!open || slow || (conn.closing && conn.link.output_empty()) ||
          (!outstanding && conn.link.idle(options_.idle_timeout_ms, now))) {
        dead_clients.insert(id);
      }
    }
    for (Shard& s : shards_) {
      if (s.ctl.flush(nullptr) == IoStatus::kClosed) {
        ctl_failure(s, "control write failed");
      }
    }

    // Data-path losses eject the shard (which notifies every affected
    // client), then dead clients go away.
    for (const size_t shard : dead_shards) {
      eject_shard(shard, "upstream connection lost");
    }
    for (const uint64_t id : dead_clients) close_client(id);
  }
}

// --------------------------------------------------------------------------
// Client face
// --------------------------------------------------------------------------

void Router::client_read(ClientConn& conn) {
  WireStatus framing = WireStatus::kOk;
  const bool open = conn.link.read_frames(
      nullptr,
      [&](const net::WireView& msg) { return handle_client_message(conn, msg); },
      &framing);
  if (framing != WireStatus::kOk) {
    metrics_.protocol_errors.fetch_add(1);
    send_client_error(conn, 0, serve::ServeStatus::kError,
                      std::string("wire error: ") + net::to_string(framing));
  }
  if (!open) conn.closing = true;
}

bool Router::handle_client_message(ClientConn& conn, const net::WireView& msg) {
  if (!conn.got_hello && msg.type != MsgType::kHello) {
    metrics_.protocol_errors.fetch_add(1);
    send_client_error(conn, 0, serve::ServeStatus::kError, "expected hello first");
    return false;
  }
  switch (msg.type) {
    case MsgType::kHello: {
      std::string rejection;
      if (!net::check_hello(msg.payload, &rejection)) break;
      if (!rejection.empty()) {
        metrics_.hello_rejects.fetch_add(1);
        send_client_error(conn, 0, serve::ServeStatus::kError, rejection);
        return false;
      }
      conn.got_hello = true;
      send_hello(conn.link, MsgType::kHelloAck);
      return true;
    }
    case MsgType::kRenderRequest:
    case MsgType::kStreamRequest:
      route_request(conn, msg);
      return true;
    case MsgType::kMetricsRequest:
      metrics_.metrics_served.fetch_add(1);
      conn.link.send(MsgType::kMetricsReply, net::metrics_reply(*this, msg.payload),
                     pool_);
      return true;
    case MsgType::kBye:
      return false;  // flush, then close (upstreams close with the client)
    default:
      break;
  }
  metrics_.protocol_errors.fetch_add(1);
  send_client_error(conn, 0, serve::ServeStatus::kError,
                    std::string("bad message: ") + to_string(msg.type));
  return false;
}

bool Router::pick_shard(ClientConn& conn, uint64_t session_id,
                        const serve::VolumeKey& volume,
                        uint64_t error_request_id,
                        const obs::TraceContext& trace, size_t* shard_out) {
  // Affinity first: the pinned shard holds this session's delta-codec and
  // renderer-profile state, so the pin survives ring churn (including
  // drain) as long as the shard itself is alive.
  const auto pin = conn.session_pins.find(session_id);
  if (pin != conn.session_pins.end()) {
    if (shards_[pin->second].healthy) {
      *shard_out = pin->second;
      return true;
    }
    conn.session_pins.erase(pin);
    conn.lost_pins.insert(session_id);
  }

  if (ring_.empty()) {
    metrics_.unavailable_rejections.fetch_add(1);
    send_client_error(conn, error_request_id, serve::ServeStatus::kUnavailable,
                      "no healthy shard available", trace);
    return false;
  }

  const uint64_t h = HashRing::hash_key(volume.canonical());
  const std::vector<size_t> ring_candidates = ring_.pick(h, options_.replicate);
  size_t best = ring_shard_map_[ring_candidates[0]];
  int64_t best_load = std::numeric_limits<int64_t>::max();
  for (const size_t ring_idx : ring_candidates) {
    const size_t shard = ring_shard_map_[ring_idx];
    const ShardCounters& c = *metrics_.shards[shard];
    const int64_t load =
        c.inflight_requests.load() + c.active_streams.load();
    if (load < best_load) {
      best_load = load;
      best = shard;
    }
  }

  if (conn.lost_pins.erase(session_id) > 0) {
    metrics_.reroutes.fetch_add(1);
    if (trace.sampled()) {
      std::fprintf(stderr,
                   "[router] session %llu rerouted to shard %s trace=%s\n",
                   static_cast<unsigned long long>(session_id),
                   shards_[best].spec.id.c_str(),
                   obs::trace_id_hex(trace).c_str());
    }
  }
  conn.session_pins[session_id] = best;
  *shard_out = best;
  return true;
}

Router::Upstream* Router::upstream_for(ClientConn& conn, size_t shard) {
  auto it = conn.upstreams.find(shard);
  if (it != conn.upstreams.end() && it->second.link.open() && !it->second.broken) {
    return &it->second;
  }
  conn.upstreams.erase(shard);

  Upstream up;
  up.shard = shard;
  if (!up.link.start_connect(shards_[shard].spec.host, shards_[shard].spec.port,
                             nullptr)) {
    return nullptr;
  }
  send_hello(up.link, MsgType::kHello);
  auto [pos, inserted] = conn.upstreams.emplace(shard, std::move(up));
  return &pos->second;
}

void Router::route_request(ClientConn& conn, const net::WireView& msg) {
  // Both request kinds carry an id, a session, a volume and a trace; they
  // differ only in which proxy table and counters track them.
  const bool stream = msg.type == MsgType::kStreamRequest;
  net::RenderRequestMsg render;
  net::StreamRequestMsg open;
  const bool ok = stream ? net::StreamRequestMsg::decode(msg.payload, &open)
                         : net::RenderRequestMsg::decode(msg.payload, &render);
  if (!ok) {
    metrics_.protocol_errors.fetch_add(1);
    send_client_error(conn, 0, serve::ServeStatus::kError,
                      stream ? "bad stream request" : "bad render request");
    return;
  }
  const uint64_t id = stream ? open.stream_id : render.request_id;
  const uint64_t session = stream ? open.session_id : render.session_id;
  const serve::VolumeKey& volume = stream ? open.volume : render.volume;
  const obs::TraceContext& trace = stream ? open.trace : render.trace;
  size_t shard = 0;
  if (!pick_shard(conn, session, volume, id, trace, &shard)) return;
  Upstream* up = upstream_for(conn, shard);
  if (up == nullptr) {
    metrics_.unavailable_rejections.fetch_add(1);
    send_client_error(conn, id, serve::ServeStatus::kUnavailable,
                      "shard " + shards_[shard].spec.id + " unreachable", trace);
    return;
  }
  ShardCounters& c = *metrics_.shards[shard];
  if (stream) {
    up->active_streams[id] = ProxyEntry{trace, steady_now_ns()};
    metrics_.streams_routed.fetch_add(1);
    c.routed_streams.fetch_add(1);
    c.active_streams.fetch_add(1);
  } else {
    up->inflight_requests[id] = ProxyEntry{trace, steady_now_ns()};
    metrics_.requests_routed.fetch_add(1);
    c.routed_requests.fetch_add(1);
    c.inflight_requests.fetch_add(1);
  }
  up->link.forward(msg, pool_, &metrics_.payload_copy_bytes);
}

void Router::send_client_error(ClientConn& conn, uint64_t request_id,
                               serve::ServeStatus status,
                               const std::string& message,
                               const obs::TraceContext& trace) {
  // The trace correlates router-originated errors with the trace.
  conn.link.send(
      MsgType::kError,
      net::ErrorMsg{request_id, static_cast<uint16_t>(status), message, trace},
      pool_);
}

void Router::record_proxy_span(const ProxyEntry& entry, uint64_t tag) {
  if (options_.recorder == nullptr || !entry.trace.sampled()) return;
  // The router forwards the payload verbatim, so the shard's request span
  // parents to the same wire parent — the proxy span sits beside it under
  // the client root, wrapping it in time.
  const obs::SpanRecord s{entry.trace.trace_hi, entry.trace.trace_lo,
                          obs::next_span_id(),  entry.trace.parent_span,
                          obs::SpanKind::kRouterProxy, entry.start_ns,
                          steady_now_ns(),      tag};
  options_.recorder->record(entry.trace, s);
}

void Router::close_client(uint64_t conn_id) {
  // Upstream sockets close with the client; the shard sees EOF and reaps
  // its per-connection state, exactly as with a direct client.
  if (conns_.erase(conn_id) > 0) metrics_.clients_closed.fetch_add(1);
}

// --------------------------------------------------------------------------
// Upstream face
// --------------------------------------------------------------------------

void Router::upstream_read(ClientConn& conn, Upstream& up) {
  WireStatus framing = WireStatus::kOk;
  up.broken = !up.link.read_frames(
      nullptr,
      [&](const net::WireView& msg) { return handle_upstream_message(conn, up, msg); },
      &framing);
  if (framing != WireStatus::kOk) metrics_.protocol_errors.fetch_add(1);
}

bool Router::handle_upstream_message(ClientConn& conn, Upstream& up,
                                     const net::WireView& msg) {
  ShardCounters& c = *metrics_.shards[up.shard];
  switch (msg.type) {
    case MsgType::kHelloAck:
      return true;  // consumed by the proxy, not forwarded
    case MsgType::kFrame: {
      // Peek the fixed-offset metadata (wire.hpp FrameMsg layout) without
      // touching the codec blob; the frame forwards verbatim either way.
      net::ByteReader r(msg.payload);
      const uint64_t request_id = r.read_u64();
      r.read_u64();  // stream_id
      r.read_u32();  // seq
      r.read_u32();  // dropped_before
      r.read_f64();  // render_ms
      const double total_ms = r.read_f64();
      if (r.ok()) {
        c.frame_latency_ms.record_ms(total_ms);
        const auto rit = up.inflight_requests.find(request_id);
        if (request_id != 0 && rit != up.inflight_requests.end()) {
          record_proxy_span(rit->second, request_id);
          up.inflight_requests.erase(rit);
          c.inflight_requests.fetch_sub(1);
        }
      }
      metrics_.frames_forwarded.fetch_add(1);
      c.forwarded_frames.fetch_add(1);
      break;
    }
    case MsgType::kStreamEnd: {
      net::StreamEndMsg end;
      if (net::StreamEndMsg::decode(msg.payload, &end)) {
        const auto sit = up.active_streams.find(end.stream_id);
        if (sit != up.active_streams.end()) {
          // One proxy span covers the whole stream: forwarded -> stream end.
          record_proxy_span(sit->second, end.stream_id);
          up.active_streams.erase(sit);
          c.active_streams.fetch_sub(1);
        }
      }
      break;
    }
    case MsgType::kError: {
      net::ErrorMsg err;
      if (net::ErrorMsg::decode(msg.payload, &err) && err.request_id != 0) {
        if (up.inflight_requests.erase(err.request_id) > 0) {
          c.inflight_requests.fetch_sub(1);
        }
        if (up.active_streams.erase(err.request_id) > 0) {
          c.active_streams.fetch_sub(1);
        }
      }
      c.forwarded_errors.fetch_add(1);
      break;
    }
    case MsgType::kBye:
      return false;  // shard is going away; the loss path takes over
    default:
      metrics_.protocol_errors.fetch_add(1);
      return false;
  }
  // Forward at once rather than at the end of the poll pass: a burst of
  // frames then holds one pooled payload at a time, not one per frame.
  conn.link.forward(msg, pool_, &metrics_.payload_copy_bytes);
  conn.link.flush(nullptr);
  return true;
}

void Router::upstream_lost(ClientConn& conn, Upstream& up, const std::string& why) {
  // Every in-flight request and open stream on this upstream dies with a
  // typed, per-id error — the client learns exactly which work was lost
  // and can retry; the session unpins so its next request re-places.
  const std::string& id = shards_[up.shard].spec.id;
  const auto fail_all = [&](std::map<uint64_t, ProxyEntry>& entries,
                            std::atomic<int64_t>& gauge, const char* what,
                            const char* lost) {
    for (const auto& [work_id, entry] : entries) {
      if (entry.trace.sampled()) {
        std::fprintf(stderr, "[router] shard %s lost %s %llu trace=%s: %s\n",
                     id.c_str(), what, static_cast<unsigned long long>(work_id),
                     obs::trace_id_hex(entry.trace).c_str(), why.c_str());
      }
      send_client_error(conn, work_id, serve::ServeStatus::kUnavailable,
                        "shard " + id + lost + why, entry.trace);
      gauge.fetch_sub(1);
    }
    entries.clear();
  };
  ShardCounters& c = *metrics_.shards[up.shard];
  fail_all(up.inflight_requests, c.inflight_requests, "request", " lost: ");
  fail_all(up.active_streams, c.active_streams, "stream", " lost mid-stream: ");
  for (auto it = conn.session_pins.begin(); it != conn.session_pins.end();) {
    if (it->second == up.shard) {
      conn.lost_pins.insert(it->first);
      it = conn.session_pins.erase(it);
    } else {
      ++it;
    }
  }
}

// --------------------------------------------------------------------------
// Shard lifecycle
// --------------------------------------------------------------------------

size_t Router::shard_index(const Shard& s) const {
  return static_cast<size_t>(&s - shards_.data());
}

void Router::advance_shard(Shard& s, Clock::time_point now) {
  if (!s.ctl.open()) {
    if (now < s.next_reconnect || stopping_.load()) return;
    s.hello_done = false;
    s.probe_outstanding = false;
    if (!s.ctl.start_connect(s.spec.host, s.spec.port, nullptr)) {
      ctl_failure(s, "connect failed");
      return;
    }
    send_hello(s.ctl, MsgType::kHello);  // the first probe follows the ack
    return;
  }
  if (s.ctl.connecting() || !s.hello_done) return;
  if (s.probe_outstanding) {
    if (now - s.probe_sent >
        std::chrono::duration<double, std::milli>(options_.probe_timeout_ms)) {
      ctl_failure(s, "probe timeout");
    }
    return;
  }
  if (now >= s.next_probe) send_probe(s, now);
}

void Router::send_probe(Shard& s, Clock::time_point now) {
  s.ctl.send(MsgType::kMetricsRequest, PooledBuffer());
  s.probe_outstanding = true;
  s.probe_sent = now;
}

void Router::shard_ctl_read(Shard& s) {
  WireStatus framing = WireStatus::kOk;
  bool refused = false;
  const auto handle = [&](const net::WireView& msg) {
    refused = !handle_ctl_message(s, msg);
    return !refused;
  };
  if (!s.ctl.read_frames(nullptr, handle, &framing)) {
    ctl_failure(s, framing == WireStatus::kOk && !refused
                       ? "control connection closed"
                       : "control protocol error");
  }
}

bool Router::handle_ctl_message(Shard& s, const net::WireView& msg) {
  switch (msg.type) {
    case MsgType::kHelloAck:
      s.hello_done = true;
      // Probe immediately: health (and the first metrics snapshot) should
      // not wait out a full probe interval.
      send_probe(s, Clock::now());
      return true;
    case MsgType::kMetricsReply: {
      net::MetricsReplyMsg reply;
      if (!net::MetricsReplyMsg::decode(msg.payload, &reply)) return false;
      const size_t idx = shard_index(s);
      s.probe_outstanding = false;
      s.consecutive_failures = 0;
      s.next_probe = Clock::now() + std::chrono::milliseconds(static_cast<int64_t>(
                                        options_.probe_interval_ms));
      s.backoff_ms = options_.reconnect_backoff_ms;
      metrics_.shards[idx]->probes_ok.fetch_add(1);
      {
        MutexLock lock(snapshot_mutex_);
        shard_metrics_[idx] = std::move(reply.json);
      }
      if (!s.healthy) mark_healthy(s);
      return true;
    }
    case MsgType::kError:  // e.g. a version rejection: this shard cannot serve us
    default:
      return false;
  }
}

void Router::disconnect_ctl(Shard& s) {
  s.ctl.reset();
  s.hello_done = false;
  s.probe_outstanding = false;
  s.next_reconnect = Clock::now() + std::chrono::milliseconds(
                                        static_cast<int64_t>(s.backoff_ms));
  s.backoff_ms = std::min(s.backoff_ms * 2.0, options_.reconnect_backoff_max_ms);
}

void Router::ctl_failure(Shard& s, const std::string& why) {
  const size_t idx = shard_index(s);
  metrics_.shards[idx]->probe_failures.fetch_add(1);
  ++s.consecutive_failures;
  disconnect_ctl(s);
  if (s.healthy && s.consecutive_failures >= options_.eject_after_failures) {
    eject_shard(idx, why);
  } else {
    publish_state(idx);
  }
}

void Router::eject_shard(size_t shard, const std::string& why) {
  Shard& s = shards_[shard];
  if (s.healthy) {
    s.healthy = false;
    disconnect_ctl(s);
    metrics_.shards[shard]->ejections.fetch_add(1);
    rebuild_ring();
    publish_state(shard);
  }
  // Tear down every upstream to this shard across all clients, even when
  // the shard was already out (a second data-path loss in one iteration
  // must still notify its client and drop the broken socket).
  for (auto& [id, conn] : conns_) {
    const auto it = conn.upstreams.find(shard);
    if (it == conn.upstreams.end()) continue;
    upstream_lost(conn, it->second, why);
    conn.upstreams.erase(it);
  }
}

void Router::mark_healthy(Shard& s) {
  const size_t idx = shard_index(s);
  const bool rejoin = metrics_.shards[idx]->ejections.load() > 0;
  s.healthy = true;
  s.consecutive_failures = 0;
  if (rejoin) metrics_.shards[idx]->rejoins.fetch_add(1);
  rebuild_ring();
  publish_state(idx);
}

void Router::rebuild_ring() {
  std::vector<RingNode> nodes;
  ring_shard_map_.clear();
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].healthy && !shards_[i].draining) {
      nodes.push_back({shards_[i].spec.id, shards_[i].spec.weight});
      ring_shard_map_.push_back(i);
    }
  }
  ring_.rebuild(nodes);
}

void Router::publish_state(size_t shard) {
  const Shard& s = shards_[shard];
  ShardState state;
  if (s.healthy) {
    state = s.draining ? ShardState::kDraining : ShardState::kHealthy;
  } else {
    state = metrics_.shards[shard]->ejections.load() > 0 ? ShardState::kEjected
                                                         : ShardState::kConnecting;
  }
  // relaxed: observer gauge; see shard_state().
  published_state_[shard].store(static_cast<int>(state), std::memory_order_relaxed);
}

void Router::send_hello(net::Transport& link, MsgType type) {
  link.send(type, net::HelloMsg{net::kProtocolVersion, options_.name}, pool_);
}

}  // namespace psw::cluster
