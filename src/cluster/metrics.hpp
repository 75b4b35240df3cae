// Router-level counters and the aggregated cluster metrics document.
//
// Two layers of telemetry meet here. The router's own counters (clients,
// routed requests/streams, forwarded frames, re-routes, probe failures,
// ejections) are plain atomics written by the poll thread and readable from
// any thread. Per-shard service/net metrics arrive as the JSON documents the
// shards' own kMetricsReply returns to the health prober; the listing
// embeds each verbatim and rolls a few headline fields up into cluster-wide
// sums, while router-observed per-shard frame latencies (the server-side
// total_ms carried in every forwarded FrameMsg) are combined with
// LatencyHistogram::merge into one cluster latency distribution.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "util/histogram.hpp"

namespace psw::cluster {

// Lifecycle of one shard as the router sees it.
enum class ShardState : int {
  kConnecting = 0,  // control channel not yet established
  kHealthy,         // probed OK, taking placements
  kDraining,        // healthy but administratively out of the ring
  kEjected,         // failed out; reconnect with backoff in progress
};

const char* to_string(ShardState s);

// Counters for one shard. All relaxed: independent monotonic event counts
// and gauges — readers never infer cross-field ordering from them.
struct ShardCounters {
  std::atomic<uint64_t> routed_requests{0};
  std::atomic<uint64_t> routed_streams{0};
  std::atomic<uint64_t> forwarded_frames{0};
  std::atomic<uint64_t> forwarded_errors{0};
  std::atomic<uint64_t> probes_ok{0};
  std::atomic<uint64_t> probe_failures{0};
  std::atomic<uint64_t> ejections{0};
  std::atomic<uint64_t> rejoins{0};
  std::atomic<int64_t> inflight_requests{0};  // gauge: routed, not yet replied
  std::atomic<int64_t> active_streams{0};     // gauge: open stream proxies
  LatencyHistogram frame_latency_ms;  // server total_ms of forwarded frames

  void export_to(obs::MetricSink& sink) const;
};

// One shard's contribution to the aggregated document.
struct ShardSnapshot {
  std::string id;
  ShardState state = ShardState::kConnecting;
  int weight = 1;
  bool in_ring = false;
  std::string metrics_json;  // last kMetricsReply payload; may be empty
};

struct RouterMetrics {
  explicit RouterMetrics(size_t shard_count) {
    shards.reserve(shard_count);
    for (size_t i = 0; i < shard_count; ++i) {
      shards.push_back(std::make_unique<ShardCounters>());
    }
  }

  std::atomic<uint64_t> clients_accepted{0};
  std::atomic<uint64_t> clients_closed{0};
  std::atomic<uint64_t> clients_rejected{0};  // accept cap
  std::atomic<uint64_t> hello_rejects{0};     // unsupported hello version
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> requests_routed{0};
  std::atomic<uint64_t> streams_routed{0};
  std::atomic<uint64_t> frames_forwarded{0};
  std::atomic<uint64_t> metrics_served{0};     // aggregated endpoint hits
  std::atomic<uint64_t> reroutes{0};           // session re-pinned after loss
  std::atomic<uint64_t> unavailable_rejections{0};  // no eligible shard
  // Payload bytes copied while relaying messages (Transport::forward), in
  // both directions: one copy per relayed message.
  std::atomic<uint64_t> payload_copy_bytes{0};

  std::vector<std::unique_ptr<ShardCounters>> shards;

  // Lists the router counters with a merged cluster-wide latency
  // histogram, cluster rollups summed from the shard documents, and per
  // shard its counters, state and the embedded shard metrics document.
  void export_to(obs::MetricSink& sink, const std::vector<ShardSnapshot>& snaps) const;
};

}  // namespace psw::cluster
