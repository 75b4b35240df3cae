// RenderService: the multi-session frame-serving subsystem. Sits above the
// existing renderers and thread pool and accepts concurrent RenderRequests
// through a bounded multi-producer queue with admission control (typed
// reject when full, typed shed when a deadline has already passed — the
// service degrades by dropping frames, never by stalling submitters). A
// scheduler thread drains the queue onto one shared ThreadedExecutor,
// batching consecutive same-session frames so each session's
// NewParallelRenderer reuses its §4.2 partition profile exactly as in the
// single-animation case, and round-robins sessions between batches for
// fairness. Classified RLE volumes are shared across sessions through a
// sharded byte-budgeted LRU VolumeCache; ServiceMetrics records admission
// outcomes, queue depth and per-stage latency histograms.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "parallel/executor.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "serve/session_table.hpp"
#include "serve/volume_cache.hpp"
#include "util/buffer_pool.hpp"
#include "util/sync.hpp"

namespace psw::serve {

struct ServiceOptions {
  int worker_threads = 4;          // render pool size (one ThreadedExecutor)
  int queue_capacity = 64;         // bounded admission queue, total requests
  int batch_max = 4;               // max same-session frames per dispatch batch
  uint64_t cache_bytes = 256u << 20;  // volume-cache byte budget
  int cache_shards = 8;
  int max_sessions = 64;           // session-state LRU capacity
  // Threads for cache-miss volume preparation (classify + encode) in the
  // default phantom builder; 0 means "match worker_threads". Ignored when a
  // custom builder is supplied.
  int prepare_threads = 0;
  // Frames the output-image pool may retain for reuse (0 disables pooling).
  // Consumers return frames via recycle_frame(); with recycling in place,
  // steady-state rendering reuses warm pixel storage instead of allocating
  // a fresh image per frame.
  int frame_pool_frames = 32;
  ParallelOptions parallel;        // forwarded to per-session renderers
  // Span sink for sampled requests (not owned; may outlive the service or
  // be shared with the network front end). Null disables recording;
  // unsampled requests never touch it either way.
  obs::SpanRecorder* recorder = nullptr;
};

class RenderService {
 public:
  explicit RenderService(ServiceOptions options = {},
                         VolumeCache::Builder builder = {});
  ~RenderService();

  RenderService(const RenderService&) = delete;
  RenderService& operator=(const RenderService&) = delete;

  // Thread-safe. Rejection is synchronous and typed (see Ticket); an
  // accepted request's future resolves when the frame is rendered or shed.
  Ticket submit(RenderRequest request);

  // Callback form for event-driven callers (the network front end): no
  // future is allocated. Returns the typed admission outcome; when kOk the
  // callback fires exactly once — from the scheduler thread — with the
  // rendered frame or a typed shed/error result. The callback must not
  // throw and must not block (it runs on the only thread that dispatches
  // frames); hand the result off to your own queue and return.
  using Completion = std::function<void(FrameResult)>;
  ServeStatus submit_async(RenderRequest request, Completion done);

  // Blocks until the queue is empty and no batch is in flight.
  void drain();

  // Bounded drain: waits at most `timeout_ms` for the queue to empty.
  // Returns true when fully drained, false on timeout (work may still be
  // queued or in flight — the caller decides whether to stop() anyway).
  // timeout_ms <= 0 degenerates to a single non-blocking check.
  bool drain_for(int64_t timeout_ms);

  // Sheds all still-queued requests with kShutdown and joins the scheduler.
  // Idempotent; called by the destructor. Call drain() first for a
  // graceful wind-down.
  void stop();

  // Returns a delivered frame's image for reuse by later renders. Optional
  // but strongly encouraged for streaming consumers: once every consumer
  // recycles, the steady-state render path stops allocating pixel storage.
  // Thread-safe; accepts any image (one not born in the pool is retained
  // all the same).
  void recycle_frame(ImageU8&& image);

  const ServiceOptions& options() const { return options_; }
  const ServiceMetrics& metrics() const { return metrics_; }
  CacheStats cache_stats() const { return cache_.stats(); }
  PoolStats frame_pool_stats() const { return frame_pool_.stats(); }
  PoolStats prepare_pool_stats() const { return prepare_pool_.stats(); }
  // Lists the service's metrics: counters, histograms, cache and pools.
  void export_metrics(obs::MetricSink& sink) const {
    metrics_.export_to(sink, cache_.stats(), frame_pool_.stats(), prepare_pool_.stats());
  }
  std::string metrics_json() const {
    return obs::render_json([&](obs::MetricSink& s) { export_metrics(s); });
  }

 private:
  struct Pending {
    RenderRequest request;
    // Engaged only for future-based delivery; the callback path skips the
    // promise entirely so submit_async never pays its shared-state
    // allocation.
    std::optional<std::promise<FrameResult>> promise;
    Completion done;
    Clock::time_point enqueued;
  };

  // Per-session FIFO on a vector with a head cursor. Not a std::deque:
  // sizeof(Pending) exceeds the deque's 512-byte node budget (one element
  // per node), so a deque pays one node allocation per enqueued frame.
  // The vector reuses its capacity forever — moved-out slots sit behind
  // `head` until the queue drains, when one clear() (no deallocation)
  // rewinds it.
  struct PendingQueue {
    std::vector<Pending> items;
    size_t head = 0;

    bool empty() const { return head == items.size(); }
    size_t size() const { return items.size() - head; }
    Pending& front() { return items[head]; }
    void push_back(Pending&& p) { items.push_back(std::move(p)); }
    void pop_front() {
      ++head;
      if (head == items.size()) {
        items.clear();
        head = 0;
      }
    }
  };

  // Shared admission path: validates the deadline, reserves queue space and
  // enqueues. `done` empty means promise/future delivery.
  Ticket admit(RenderRequest request, Completion done);

  void scheduler_loop();
  void process(Pending& p);
  void render_one(Pending& p, Clock::time_point dispatched);
  void shed(Pending& p, ServeStatus status);
  // Routes a finished/shed result to the pending callback or promise.
  static void deliver(Pending& p, FrameResult&& result);

  ServiceOptions options_;
  ServiceMetrics metrics_;
  FramePool frame_pool_;
  // Transient build storage for cache-miss volume preparation. Declared
  // before cache_: the default builder holds a pointer to it, so it must
  // outlive the cache (members destroy in reverse order).
  PrepareScratchPool prepare_pool_;
  VolumeCache cache_;
  SessionTable sessions_;   // scheduler thread only
  ThreadedExecutor exec_;   // scheduler thread only
  // Scheduler-thread-confined per-frame scratch (like sessions_/exec_):
  // the canonical-key buffer, the render-stats out-param and the dispatch
  // batch are reused across frames so steady-state scheduling performs no
  // heap allocation.
  std::string canonical_scratch_;     // scheduler thread only
  ParallelRenderStats stats_scratch_; // scheduler thread only
  std::vector<Pending> batch_;        // scheduler thread only

  // Lock protocol: `mutex_` covers the admission queue state below it —
  // the per-session FIFOs, the round-robin rotation (every session with a
  // non-empty FIFO appears exactly once), the queue/in-flight gauges and
  // the stopping flag. `stop_mutex_` only serializes stop() callers around
  // the scheduler join; it is always taken before `mutex_` (stop() holds
  // it while flipping `stopping_`), never the other way around.
  Mutex stop_mutex_ PSW_ACQUIRED_BEFORE(mutex_);
  Mutex mutex_;
  CondVar work_cv_;   // with mutex_: work arrived or stopping_
  CondVar drain_cv_;  // with mutex_: queue empty and nothing in flight
  std::map<uint64_t, PendingQueue> queues_
      PSW_GUARDED_BY(mutex_);  // per-session FIFO
  std::deque<uint64_t> rotation_
      PSW_GUARDED_BY(mutex_);  // sessions with pending work, RR order
  int64_t total_queued_ PSW_GUARDED_BY(mutex_) = 0;
  int64_t in_flight_ PSW_GUARDED_BY(mutex_) = 0;
  bool stopping_ PSW_GUARDED_BY(mutex_) = false;

  // Written by the constructor (unchecked: no second thread exists yet),
  // joined under stop_mutex_ so concurrent stop() callers agree on who
  // joins.
  std::thread scheduler_ PSW_GUARDED_BY(stop_mutex_);
};

}  // namespace psw::serve
