// Telemetry for the frame-serving subsystem: admission outcomes, queue
// depth, per-stage latency histograms (queue wait, classify, composite,
// warp, end-to-end) and cache statistics, listed once for every export
// (obs::MetricSink: the JSON document and Prometheus).
// Counters are atomics so submitters and the scheduler record without
// locks; the export is a racy-but-consistent-enough snapshot (each counter
// individually coherent), which is the standard contract for service
// metrics endpoints.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/export.hpp"
#include "serve/volume_cache.hpp"
#include "util/buffer_pool.hpp"
#include "util/histogram.hpp"

namespace psw::serve {

struct ServiceMetrics {
  // Admission: every submit() increments `submitted` and exactly one of
  // {accepted, rejected_queue_full, rejected_deadline, rejected_shutdown}.
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected_queue_full{0};
  std::atomic<uint64_t> rejected_deadline{0};
  std::atomic<uint64_t> rejected_shutdown{0};
  // Of `submitted`, how many arrived through the callback form
  // (submit_async — the network front end's path).
  std::atomic<uint64_t> async_submitted{0};

  // Completion: every accepted request eventually increments exactly one of
  // {completed, shed_deadline, shed_shutdown, failed}.
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> shed_deadline{0};
  std::atomic<uint64_t> shed_shutdown{0};
  std::atomic<uint64_t> failed{0};

  // Scheduler behaviour.
  std::atomic<uint64_t> batches{0};          // dispatch batches drained
  std::atomic<uint64_t> batched_frames{0};   // frames that rode an existing batch
  std::atomic<uint64_t> profiled_frames{0};  // frames that re-profiled (§4.2)
  std::atomic<uint64_t> sessions_created{0};
  std::atomic<uint64_t> sessions_evicted{0};

  // Queue gauge (current depth) and high-water mark.
  std::atomic<int64_t> queue_depth{0};
  std::atomic<int64_t> queue_depth_max{0};

  // Per-stage latency. `cache_miss_build` records only cache-miss volume
  // preparations (classify + encode), i.e. the cold-start cost a session
  // pays when its volume is not yet resident.
  LatencyHistogram queue_wait;
  LatencyHistogram cache_miss_build;
  LatencyHistogram composite;
  LatencyHistogram warp;
  LatencyHistogram total;

  void note_queue_depth(int64_t depth);

  // Conservation check once the service has quiesced (empty queue, no
  // in-flight work): admissions partition submissions, and completions +
  // sheds partition acceptances.
  bool reconciles() const;

  // Lists the counters, histograms, the given cache stats and the
  // frame-pool / prepare-pool allocation accounting.
  void export_to(obs::MetricSink& sink, const CacheStats& cache,
                 const PoolStats& frame_pool, const PoolStats& prepare_pool) const;
};

// The one pool-stat listing, as object `key` ({"acquires": ..., "hit_rate":
// ...}); used by the service (frame pool) and net server (payload pool).
void export_pool(obs::MetricSink& sink, const char* key, const PoolStats& pool);

}  // namespace psw::serve
