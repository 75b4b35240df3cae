#include "cluster/metrics.hpp"

#include "util/json.hpp"
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

std::string aggregate_metrics_json(const RouterMetrics& m,
                                   const std::vector<ShardSnapshot>& shards) {
  // Cluster rollups from the embedded shard documents, plus the merged
  // router-observed latency distribution.
  uint64_t completed = 0, cache_hits = 0, cache_misses = 0;
  size_t healthy = 0, in_ring = 0;
  LatencyHistogram merged;
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardSnapshot& s = shards[i];
    JsonValue doc;
    if (json_parse(s.metrics_json, &doc)) {
      completed += service_u64(doc, "completion", "completed");
      cache_hits += service_u64(doc, "volume_cache", "hits");
      cache_misses += service_u64(doc, "volume_cache", "misses");
    }
    if (s.state == ShardState::kHealthy || s.state == ShardState::kDraining) {
      ++healthy;
    }
    if (s.in_ring) ++in_ring;
    if (i < m.shards.size()) merged.merge(m.shards[i]->frame_latency_ms);
  }

  JsonWriter w;
  w.begin_object();
  w.key("router").begin_object()
      .field("clients_accepted", m.clients_accepted.load())
      .field("clients_closed", m.clients_closed.load())
      .field("clients_rejected", m.clients_rejected.load())
      .field("hello_rejects", m.hello_rejects.load())
      .field("protocol_errors", m.protocol_errors.load())
      .field("requests_routed", m.requests_routed.load())
      .field("streams_routed", m.streams_routed.load())
      .field("frames_forwarded", m.frames_forwarded.load())
      .field("metrics_served", m.metrics_served.load())
      .field("reroutes", m.reroutes.load())
      .field("unavailable_rejections", m.unavailable_rejections.load());
  w.key("frame_latency_ms");
  merged.write_json(w);
  w.end_object();

  w.key("cluster").begin_object()
      .field("shards", static_cast<uint64_t>(shards.size()))
      .field("shards_healthy", static_cast<uint64_t>(healthy))
      .field("shards_in_ring", static_cast<uint64_t>(in_ring))
      .field("frames_completed", completed)
      .field("cache_hits", cache_hits)
      .field("cache_misses", cache_misses)
      .end_object();

  w.key("shards").begin_array();
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardSnapshot& s = shards[i];
    w.begin_object()
        .field("id", s.id)
        .field("state", to_string(s.state))
        .field("weight", s.weight)
        .field("in_ring", s.in_ring);
    if (i < m.shards.size()) {
      const ShardCounters& c = *m.shards[i];
      w.field("routed_requests", c.routed_requests.load())
          .field("routed_streams", c.routed_streams.load())
          .field("forwarded_frames", c.forwarded_frames.load())
          .field("forwarded_errors", c.forwarded_errors.load())
          .field("probes_ok", c.probes_ok.load())
          .field("probe_failures", c.probe_failures.load())
          .field("ejections", c.ejections.load())
          .field("rejoins", c.rejoins.load())
          .field("inflight_requests", c.inflight_requests.load())
          .field("active_streams", c.active_streams.load());
      w.key("frame_latency_ms");
      c.frame_latency_ms.write_json(w);
    }
    // The shard's own metrics document, embedded verbatim (null until the
    // first probe answers).
    w.key("metrics").raw(s.metrics_json.empty() ? "null" : s.metrics_json);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace psw::cluster
