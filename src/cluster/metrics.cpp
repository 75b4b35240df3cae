#include "cluster/metrics.hpp"

#include "obs/export.hpp"
#include "util/json_parse.hpp"

namespace psw::cluster {

const char* to_string(ShardState s) {
  switch (s) {
    case ShardState::kConnecting: return "connecting";
    case ShardState::kHealthy: return "healthy";
    case ShardState::kDraining: return "draining";
    case ShardState::kEjected: return "ejected";
  }
  return "?";
}

namespace {

// doc.service.<object>.<key> of one shard's metrics document; 0 if absent.
uint64_t service_u64(const JsonValue& doc, const char* object, const char* key) {
  const JsonValue* service = doc.find("service");
  const JsonValue* obj = service ? service->find(object) : nullptr;
  const JsonValue* v = obj ? obj->find(key) : nullptr;
  return v ? v->as_u64() : 0;
}

}  // namespace

void ShardCounters::export_to(obs::MetricSink& s) const {
  s.counter("routed_requests", "Requests routed to the shard", routed_requests.load());
  s.counter("routed_streams", "Streams routed to the shard", routed_streams.load());
  s.counter("forwarded_frames", "Frames forwarded from the shard", forwarded_frames.load());
  s.counter("forwarded_errors", "Errors forwarded from the shard", forwarded_errors.load());
  s.counter("probes_ok", "Health probes answered", probes_ok.load());
  s.counter("probe_failures", "Health probes failed", probe_failures.load());
  s.counter("ejections", "Shard ejections", ejections.load());
  s.counter("rejoins", "Shard rejoins after ejection", rejoins.load());
  s.gauge("inflight_requests", "Unanswered routed requests", int64_t{inflight_requests.load()});
  s.gauge("active_streams", "Open stream proxies", int64_t{active_streams.load()});
  s.histogram("frame_latency_ms", "Server total_ms of forwarded frames", frame_latency_ms);
}

void RouterMetrics::export_to(obs::MetricSink& s,
                              const std::vector<ShardSnapshot>& snaps) const {
  // Cluster rollups from the embedded shard documents, plus the merged
  // router-observed latency distribution.
  uint64_t completed = 0, cache_hits = 0, cache_misses = 0;
  uint64_t healthy = 0, in_ring = 0;
  LatencyHistogram merged;
  for (size_t i = 0; i < snaps.size(); ++i) {
    const ShardSnapshot& snap = snaps[i];
    JsonValue doc;
    if (json_parse(snap.metrics_json, &doc)) {
      completed += service_u64(doc, "completion", "completed");
      cache_hits += service_u64(doc, "volume_cache", "hits");
      cache_misses += service_u64(doc, "volume_cache", "misses");
    }
    if (snap.state == ShardState::kHealthy || snap.state == ShardState::kDraining) {
      ++healthy;
    }
    if (snap.in_ring) ++in_ring;
    if (i < shards.size()) merged.merge(shards[i]->frame_latency_ms);
  }

  s.begin("router");
  s.counter("clients_accepted", "Client connections accepted", clients_accepted.load());
  s.counter("clients_closed", "Client connections closed", clients_closed.load());
  s.counter("clients_rejected", "Clients refused at the accept cap", clients_rejected.load());
  s.counter("hello_rejects", "Hellos with an unsupported version", hello_rejects.load());
  s.counter("protocol_errors", "Framing/decode failures", protocol_errors.load());
  s.counter("requests_routed", "Render requests routed", requests_routed.load());
  s.counter("streams_routed", "Streams routed", streams_routed.load());
  s.counter("frames_forwarded", "Frames forwarded", frames_forwarded.load());
  s.counter("metrics_served", "Aggregated documents served", metrics_served.load());
  s.counter("reroutes", "Sessions re-pinned after shard loss", reroutes.load());
  s.counter("unavailable_rejections", "Rejected: no eligible shard",
            unavailable_rejections.load());
  s.counter("payload_copy_bytes", "Payload bytes copied in relays", payload_copy_bytes.load());
  s.histogram("frame_latency_ms", "Server total_ms of forwarded frames", merged);
  s.end();

  s.begin("cluster");
  s.gauge("shards", "Configured shards", uint64_t{snaps.size()});
  s.gauge("shards_healthy", "Shards probed healthy", healthy);
  s.gauge("shards_in_ring", "Shards taking placements", in_ring);
  s.counter("frames_completed", "Frames completed, summed over shards", completed);
  s.counter("cache_hits", "Volume cache hits, summed over shards", cache_hits);
  s.counter("cache_misses", "Volume cache misses, summed over shards", cache_misses);
  s.end();

  s.begin_list("shards");
  for (size_t i = 0; i < snaps.size(); ++i) {
    const ShardSnapshot& snap = snaps[i];
    s.begin_item("id", "shard", snap.id);
    s.raw("state", json_quote(to_string(snap.state)));
    s.gauge("weight", "Placement weight", int64_t{snap.weight});
    s.gauge("in_ring", "Shard takes placements", snap.in_ring);
    if (i < shards.size()) shards[i]->export_to(s);
    // The shard's own metrics document, embedded verbatim (null until the
    // first probe answers).
    s.raw("metrics", snap.metrics_json);
    s.end();
  }
  s.end_list();
}

}  // namespace psw::cluster
