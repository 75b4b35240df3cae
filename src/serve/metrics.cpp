#include "serve/metrics.hpp"

#include "obs/export.hpp"

namespace psw::serve {

const char* to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kQueueFull: return "queue-full";
    case ServeStatus::kDeadlineMissed: return "deadline-missed";
    case ServeStatus::kShutdown: return "shutdown";
    case ServeStatus::kError: return "error";
    case ServeStatus::kUnavailable: return "unavailable";
  }
  return "?";
}

void ServiceMetrics::note_queue_depth(int64_t depth) {
  // relaxed: monotonic high-watermark statistic — the CAS loop retries on
  // races, and no reader infers ordering of other memory from it.
  int64_t prev = queue_depth_max.load(std::memory_order_relaxed);
  while (depth > prev && !queue_depth_max.compare_exchange_weak(
                             prev, depth, std::memory_order_relaxed)) {
  }
}

bool ServiceMetrics::reconciles() const {
  const uint64_t sub = submitted.load();
  const uint64_t acc = accepted.load();
  const uint64_t rej = rejected_queue_full.load() + rejected_deadline.load() +
                       rejected_shutdown.load();
  const uint64_t done = completed.load() + shed_deadline.load() + shed_shutdown.load() +
                        failed.load();
  return sub == acc + rej && acc == done && queue_depth.load() == 0;
}

void export_pool(obs::MetricSink& s, const char* key, const PoolStats& pool) {
  s.begin(key);
  s.counter("acquires", "Buffers acquired", pool.acquires);
  s.counter("hits", "Acquires served from a retained buffer", pool.hits);
  s.counter("misses", "Acquires that allocated fresh storage", pool.misses);
  s.counter("releases", "Buffers given back", pool.releases);
  s.counter("discards", "Releases dropped instead of retained", pool.discards);
  s.gauge("outstanding", "Buffers acquired, not yet released", pool.outstanding);
  s.gauge("retained", "Buffers held in freelists", pool.retained);
  s.gauge("retained_bytes", "Capacity held in freelists", pool.retained_bytes);
  s.gauge("hit_rate", "Share of acquires served from a freelist", pool.hit_rate());
  s.end();
}

void ServiceMetrics::export_to(obs::MetricSink& s, const CacheStats& cache,
                               const PoolStats& frame_pool,
                               const PoolStats& prepare_pool) const {
  s.begin("admission");
  s.counter("submitted", "Render requests submitted", submitted.load());
  s.counter("accepted", "Render requests accepted", accepted.load());
  s.counter("rejected_queue_full", "Rejected: queue full", rejected_queue_full.load());
  s.counter("rejected_deadline", "Rejected: deadline unmeetable", rejected_deadline.load());
  s.counter("rejected_shutdown", "Rejected: shutting down", rejected_shutdown.load());
  s.counter("async_submitted", "Callback-form submissions", async_submitted.load());
  s.end();
  s.begin("completion");
  s.counter("completed", "Frames rendered to completion", completed.load());
  s.counter("shed_deadline", "Accepted, shed past the deadline", shed_deadline.load());
  s.counter("shed_shutdown", "Accepted, shed at shutdown", shed_shutdown.load());
  s.counter("failed", "Render failures", failed.load());
  s.end();
  s.begin("scheduler");
  s.counter("batches", "Dispatch batches drained", batches.load());
  s.counter("batched_frames", "Frames that rode an existing batch", batched_frames.load());
  s.counter("profiled_frames", "Frames that re-profiled", profiled_frames.load());
  s.counter("sessions_created", "Render sessions created", sessions_created.load());
  s.counter("sessions_evicted", "Render sessions evicted", sessions_evicted.load());
  s.gauge("queue_depth", "Admission queue depth", int64_t{queue_depth.load()});
  s.gauge("queue_depth_max", "Queue depth high-water mark", int64_t{queue_depth_max.load()});
  s.end();
  s.begin("latency_ms");
  s.histogram("queue_wait", "Admission queue residency", queue_wait);
  s.histogram("cache_miss_build", "Cache-miss volume preparation", cache_miss_build);
  s.histogram("composite", "Compositing stage", composite);
  s.histogram("warp", "Warp stage", warp);
  s.histogram("total", "Submit-to-completion latency", total);
  s.end();
  s.begin("volume_cache");
  s.counter("hits", "Volume cache hits", cache.hits);
  s.counter("misses", "Volume cache misses", cache.misses);
  s.counter("evictions", "Volume cache evictions", cache.evictions);
  s.gauge("resident_bytes", "Resident encoded-volume bytes", cache.bytes);
  s.gauge("budget_bytes", "Volume cache byte budget", cache.budget_bytes);
  s.gauge("hit_rate", "Volume cache hit rate", cache.hit_rate());
  s.end();
  export_pool(s, "frame_pool", frame_pool);
  export_pool(s, "prepare_pool", prepare_pool);
}

}  // namespace psw::serve
