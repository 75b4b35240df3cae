// PSWN front-end router: the horizontal-scale layer in front of netserve.
//
// One poll thread speaks the versioned wire protocol on both faces. On the
// south face it accepts clients exactly like NetServer (hello handshake,
// typed errors, orderly bye). On the north face it proxies to N backend
// netserve shards over non-blocking upstream connections, one per
// (client, shard) pair — frames are forwarded verbatim, so each shard's
// per-connection delta-codec chains line up one-to-one with the client's
// decoders and no pixel is ever re-encoded in flight.
//
// Placement: a request names a volume; its canonical key hashes onto a
// weighted consistent-hash ring of the healthy, non-draining shards
// (cluster/hash_ring.hpp). Repeated requests for one volume therefore land
// on the same shard and its VolumeCache stays hot; `replicate` > 1 widens
// the candidate set to the first k distinct ring successors and the
// least-loaded candidate wins (k-way replication of hot volumes).
//
// Affinity: the first routed request pins its session to the chosen shard;
// every later request of that session follows the pin regardless of ring
// churn, because the shard holds the session's delta-encoder state and §4.2
// renderer profile. Only shard loss breaks a pin: in-flight requests and
// open streams get a typed kUnavailable error, and the session's next
// request re-places on the rebuilt ring (counted as a re-route).
//
// Health: a control connection per shard probes with kMetricsRequest every
// probe_interval_ms; the reply doubles as the shard's metrics snapshot for
// the aggregated cluster document. `eject_after_failures` consecutive
// probe failures (or any data-path loss) ejects the shard — ring rebuild,
// typed errors for its in-flight work — and reconnect-with-backoff later
// rejoins it. set_drain() is the administrative version: the shard leaves
// the ring (no new placements) but pinned sessions keep flowing.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/metrics.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/export.hpp"
#include "serve/request.hpp"
#include "util/buffer_pool.hpp"
#include "util/sync.hpp"

namespace psw::cluster {

struct ShardSpec {
  std::string id;                    // stable ring identity ("shard-0", ...)
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int weight = 1;
};

struct RouterOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; see Router::port()
  int backlog = 16;
  int max_connections = 64;
  int vnodes = 64;     // ring points per unit of shard weight
  int replicate = 1;   // k-way placement candidates (least-loaded wins)
  double probe_interval_ms = 250.0;
  double probe_timeout_ms = 2'000.0;   // unanswered probe counts as a failure
  int eject_after_failures = 3;
  double reconnect_backoff_ms = 50.0;  // control-channel retry, doubles...
  double reconnect_backoff_max_ms = 2'000.0;  // ...up to this cap
  size_t max_send_buffer_bytes = 32u << 20;   // per connection, either face
  double idle_timeout_ms = 30'000.0;  // client connections; 0 disables
  std::string name = "pswvr-router";
  // Distributed tracing: kRouterProxy spans of sampled proxied requests
  // land here (not owned; null disables recording — trace contexts still
  // forward verbatim). `trace_node` labels the router in trace dumps.
  obs::SpanRecorder* recorder = nullptr;
  std::string trace_node = "router";
};

class Router {
 public:
  Router(std::vector<ShardSpec> shards, RouterOptions options = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Binds, listens and starts the poll thread; shard control channels begin
  // connecting immediately. False (with *error) when the bind fails.
  bool start(std::string* error = nullptr);

  // Closes every connection (clients, upstreams, control) and joins the
  // poll thread. Idempotent.
  void stop();

  bool running() const { return thread_.joinable(); }
  uint16_t port() const { return port_; }
  const RouterMetrics& metrics() const { return metrics_; }
  // The pool behind every queued payload, on all three faces.
  PoolStats pool_stats() const { return pool_.stats(); }

  // Blocks until at least `n` shards are healthy (probed OK) or timeout.
  bool wait_healthy(size_t n, double timeout_ms) const;

  ShardState shard_state(size_t shard) const {
    return static_cast<ShardState>(
        // relaxed: state is a monotonically published gauge for observers;
        // no other memory is inferred from it.
        published_state_[shard].load(std::memory_order_relaxed));
  }

  // Administrative drain: true if the shard id exists. Applied by the poll
  // thread on its next wakeup (the call itself never blocks on it).
  bool set_drain(const std::string& shard_id, bool draining);

  // Lists the router's counters, the cluster rollups, every shard's
  // counters with its embedded metrics document, and the span recorder's
  // counters.
  void export_metrics(obs::MetricSink& sink) const;
  // That listing as the aggregated cluster metrics document (also served
  // to any client sending kMetricsRequest) and as the Prometheus text
  // exposition (kMetricsSelectorPrometheus).
  std::string metrics_json() const;
  std::string prometheus_text() const;

  // Span-dump JSON from the configured recorder (kMetricsSelectorTrace);
  // empty but well-formed without one.
  std::string trace_dump_json() const;

 private:
  // In-flight proxy bookkeeping, one entry per forwarded request or open
  // stream. Sampled entries carry the trace context, so frame receipt can
  // close a kRouterProxy span and a shard loss can correlate its typed
  // errors and log lines with the trace.
  struct ProxyEntry {
    obs::TraceContext trace;
    int64_t start_ns = 0;  // steady ns when the request was forwarded
  };

  // One proxied upstream connection: the shard-side half of one client.
  struct Upstream {
    size_t shard = 0;
    net::Transport link;  // queues the hello while the connect is pending
    bool broken = false;
    std::map<uint64_t, ProxyEntry> inflight_requests;  // by request id
    std::map<uint64_t, ProxyEntry> active_streams;     // by stream id
  };

  struct ClientConn {
    uint64_t id = 0;
    net::Transport link;
    bool got_hello = false;
    bool closing = false;  // flush queued output, then close
    std::map<size_t, Upstream> upstreams;       // by shard index
    std::map<uint64_t, size_t> session_pins;    // session -> shard index
    // Sessions whose pinned shard was lost; the next request re-places and
    // counts a re-route.
    std::set<uint64_t> lost_pins;
  };

  // Control/probe channel state per shard (poll thread only).
  struct Shard {
    ShardSpec spec;
    net::Transport ctl;
    bool hello_done = false;
    bool probe_outstanding = false;
    serve::Clock::time_point probe_sent{};
    serve::Clock::time_point next_probe{};
    serve::Clock::time_point next_reconnect{};
    double backoff_ms = 0.0;
    int consecutive_failures = 0;
    bool healthy = false;
    bool draining = false;
  };

  void poll_loop();

  // --- client face ---
  void client_read(ClientConn& conn);
  bool handle_client_message(ClientConn& conn, const net::WireView& msg);
  // Places a render or stream request and forwards it verbatim upstream.
  void route_request(ClientConn& conn, const net::WireView& msg);
  // Ring placement + affinity. Returns false (typed error already sent)
  // when no shard is eligible.
  bool pick_shard(ClientConn& conn, uint64_t session_id,
                  const serve::VolumeKey& volume, uint64_t error_request_id,
                  const obs::TraceContext& trace, size_t* shard_out);
  void send_client_error(ClientConn& conn, uint64_t request_id,
                         serve::ServeStatus status, const std::string& message,
                         const obs::TraceContext& trace = {});
  // Closes a kRouterProxy span (forwarded -> reply) for a sampled entry.
  void record_proxy_span(const ProxyEntry& entry, uint64_t tag);
  void close_client(uint64_t conn_id);

  // --- upstream face ---
  Upstream* upstream_for(ClientConn& conn, size_t shard);
  void upstream_read(ClientConn& conn, Upstream& up);
  bool handle_upstream_message(ClientConn& conn, Upstream& up,
                               const net::WireView& msg);
  // Typed kUnavailable for everything in flight on a lost upstream, then
  // unpins its sessions. Ejects the shard (data-path loss is a failure).
  void upstream_lost(ClientConn& conn, Upstream& up, const std::string& why);

  // --- shard lifecycle ---
  void advance_shard(Shard& s, serve::Clock::time_point now);
  void shard_ctl_read(Shard& s);
  bool handle_ctl_message(Shard& s, const net::WireView& msg);
  void send_probe(Shard& s, serve::Clock::time_point now);
  // Closes the control channel and schedules the reconnect with backoff.
  void disconnect_ctl(Shard& s);
  void ctl_failure(Shard& s, const std::string& why);
  void eject_shard(size_t shard, const std::string& why);
  void mark_healthy(Shard& s);
  void rebuild_ring();
  void publish_state(size_t shard);
  size_t shard_index(const Shard& s) const;

  // Queues a kHello (or, answering one, a kHelloAck) naming this router.
  void send_hello(net::Transport& link, net::MsgType type);

  std::vector<ShardSpec> specs_;
  RouterOptions options_;
  RouterMetrics metrics_;
  HashRing ring_;
  BufferPool pool_;

  net::UniqueFd listener_;
  net::WakePipe wake_;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  // Poll-thread-owned state. ring_shard_map_[ring node index] = shard
  // index, rebuilt alongside the ring (the ring only holds the eligible
  // subset of shards_).
  std::vector<Shard> shards_;
  std::vector<size_t> ring_shard_map_;
  std::map<uint64_t, ClientConn> conns_;
  uint64_t next_conn_id_ = 1;

  // Cross-thread surface. published_state_ mirrors each shard's lifecycle
  // for observers; drain_want_ carries set_drain() requests to the poll
  // thread; snapshot_mutex_ guards the per-shard metrics JSON copies the
  // prober refreshes and metrics_json() reads.
  std::unique_ptr<std::atomic<int>[]> published_state_;
  std::unique_ptr<std::atomic<bool>[]> drain_want_;
  mutable Mutex snapshot_mutex_;
  std::vector<std::string> shard_metrics_ PSW_GUARDED_BY(snapshot_mutex_);

  std::thread thread_;
};

}  // namespace psw::cluster
