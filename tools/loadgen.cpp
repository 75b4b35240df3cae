// Traffic generator for the frame-serving subsystem: N concurrent sessions
// orbit phantom volumes through one RenderService and the tool reports
// latency quantiles, throughput, admission outcomes and cache behaviour,
// optionally as JSON (BENCH_serve.json).
//
// Closed loop (default): each session is a thread that submits its next
// frame when the previous one completes — the steady "animation consumer"
// shape of §4.1. Open loop: frames are submitted on a fixed wall-clock
// schedule regardless of completions, which (with --rate above capacity
// or --deadline-ms) exercises admission control and deadline shedding.
//
//   ./tools/loadgen --sessions=8 --threads=4 [--frames=24] [--size=48]
//                   [--mode=closed|open] [--rate=120] [--deadline-ms=0]
//                   [--queue-capacity=64] [--batch=4] [--cache-mb=256]
//                   [--step=2.0] [--volumes=4] [--prepare-threads=0]
//                   [--json=BENCH_serve.json]
//
// --prepare-threads controls the parallel volume-preparation pipeline used
// on cache misses (0 = match --threads); the report splits end-to-end
// latency into cold-start (cache-miss build) and warm (cache-hit) frames.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "alloc_probe.hpp"
#include "obs/export.hpp"
#include "parallel/animation.hpp"
#include "serve/service.hpp"
#include "shutdown.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace psw;
using namespace psw::serve;

struct Outcome {
  uint64_t ok = 0;
  uint64_t rejected_queue_full = 0;  // admission-time: queue at capacity
  uint64_t rejected_deadline = 0;    // admission-time: deadline already past
  uint64_t shed = 0;                 // accepted, then shed (deadline/shutdown)
  uint64_t failed = 0;

  void count_admission(ServeStatus s) {
    switch (s) {
      case ServeStatus::kQueueFull: ++rejected_queue_full; break;
      case ServeStatus::kDeadlineMissed: ++rejected_deadline; break;
      default: ++shed; break;  // kShutdown
    }
  }
  void count_result(const FrameResult& r) {
    switch (r.status) {
      case ServeStatus::kOk:
        ++ok;
        // Cold starts (the frame paid a cache-miss volume preparation) and
        // warm frames have latency distributions an order of magnitude
        // apart; blending them hides both.
        (r.timing.cache_hit ? warm : cold).record_ms(r.timing.total_ms);
        break;
      case ServeStatus::kError: ++failed; break;
      default: ++shed; break;  // kDeadlineMissed / kShutdown after admission
    }
  }
  void merge(const Outcome& o) {
    ok += o.ok;
    rejected_queue_full += o.rejected_queue_full;
    rejected_deadline += o.rejected_deadline;
    shed += o.shed;
    failed += o.failed;
    cold.merge(o.cold);
    warm.merge(o.warm);
  }

  LatencyHistogram cold;  // end-to-end latency of cache-miss (cold-start) frames
  LatencyHistogram warm;  // end-to-end latency of cache-hit frames
};

// Session s orbits one of `volumes` distinct keys (alternating MRI and CT)
// so the cache serves several sessions per volume.
VolumeKey key_for_session(int s, int volumes, int size) {
  VolumeKey key;
  const int v = s % std::max(1, volumes);
  key.kind = v % 2 == 0 ? "mri" : "ct";
  key.tf_preset = v % 2 == 0 ? 0 : 1;
  key.nx = key.ny = key.nz = size + 8 * (v / 2);  // distinct sizes per pair
  return key;
}

RenderRequest request_for_frame(int session, int frame, const VolumeKey& key,
                                double step_deg, double deadline_ms) {
  AnimationPath path;
  path.dims = {key.nx, key.ny, key.nz};
  path.start_yaw = 0.13 * session;  // decorrelate the orbits
  path.degrees_per_frame = step_deg;
  RenderRequest req;
  req.session_id = static_cast<uint64_t>(session) + 1;
  req.volume = key;
  req.camera = path.camera(frame);
  if (deadline_ms > 0) {
    req.deadline = Clock::now() + std::chrono::microseconds(
                                      static_cast<int64_t>(deadline_ms * 1e3));
  }
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  flags.require_known({"sessions", "threads", "frames", "size", "mode", "rate",
                       "deadline-ms", "queue-capacity", "batch", "cache-mb", "step",
                       "volumes", "prepare-threads", "json"});
  const int sessions = flags.get_int("sessions", 8);
  const int frames = flags.get_int("frames", 24);
  const int size = flags.get_int("size", 48);
  const std::string mode = flags.get("mode", "closed");
  const double rate = flags.get_double("rate", 120.0);
  const double deadline_ms = flags.get_double("deadline-ms", 0.0);
  const double step = flags.get_double("step", 2.0);
  const int volumes = flags.get_int("volumes", 4);
  const std::string json_path = flags.get("json", "BENCH_serve.json");

  if (mode != "closed" && mode != "open") {
    std::fprintf(stderr, "--mode must be 'closed' or 'open' (got '%s')\n", mode.c_str());
    return 2;
  }

  ServiceOptions opt;
  opt.worker_threads = flags.get_int("threads", 4);
  opt.queue_capacity = flags.get_int("queue-capacity", 64);
  opt.batch_max = flags.get_int("batch", 4);
  opt.cache_bytes = static_cast<uint64_t>(flags.get_int("cache-mb", 256)) << 20;
  // Cache-miss preparation threads; 0 (the default) matches --threads.
  opt.prepare_threads = flags.get_int("prepare-threads", 0);
  // Re-profile on the same ~15-degree cadence the animation driver uses.
  AnimationPath cadence;
  cadence.degrees_per_frame = step;
  opt.parallel.profile_every = cadence.profile_interval();
  RenderService service(opt);

  // Ctrl-C drains instead of killing the run: the watcher stops the service
  // (shedding queued frames with kShutdown, which unblocks submitters
  // waiting on futures), the loops below notice the flag and stop
  // submitting, and the normal reporting path still writes the JSON.
  tools::install_shutdown_handler();
  std::thread shutdown_watcher([&service] {
    if (tools::wait_for_shutdown()) {
      std::fprintf(stderr, "\nloadgen: interrupted, draining for the report\n");
      service.stop();
    }
  });

  std::printf("loadgen: %d sessions x %d frames, %s loop, %d render threads, "
              "%d-voxel volumes (%d distinct), queue=%d, batch=%d\n",
              sessions, frames, mode.c_str(), opt.worker_threads, size, volumes,
              opt.queue_capacity, opt.batch_max);

  Outcome outcome;
  WallTimer wall;
  if (mode == "closed") {
    // One submitter thread per session; each waits for its frame before
    // submitting the next.
    std::vector<Outcome> per_session(static_cast<size_t>(sessions));
    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<size_t>(sessions));
    for (int s = 0; s < sessions; ++s) {
      drivers.emplace_back([&, s] {
        const VolumeKey key = key_for_session(s, volumes, size);
        for (int f = 0; f < frames && !tools::shutdown_requested(); ++f) {
          Ticket t = service.submit(request_for_frame(s, f, key, step, deadline_ms));
          if (!t.accepted()) {
            per_session[s].count_admission(t.admission);
            continue;
          }
          FrameResult r = t.result.get();
          per_session[s].count_result(r);
          // Hand the pixel storage back so the next frame renders into it.
          if (r.status == ServeStatus::kOk)
            service.recycle_frame(std::move(r.image));
        }
      });
    }
    for (auto& d : drivers) d.join();
    for (const auto& o : per_session) outcome.merge(o);
  } else {
    // Paced submission from one thread; completions are harvested at the
    // end so the schedule never blocks on the service.
    const double interval_ms = rate > 0 ? 1e3 / rate : 0.0;
    std::vector<Ticket> tickets;
    std::vector<VolumeKey> keys;
    for (int s = 0; s < sessions; ++s) keys.push_back(key_for_session(s, volumes, size));
    tickets.reserve(static_cast<size_t>(sessions) * frames);
    WallTimer pace;
    int submitted = 0;
    for (int f = 0; f < frames && !tools::shutdown_requested(); ++f) {
      for (int s = 0; s < sessions && !tools::shutdown_requested(); ++s) {
        const double due_ms = interval_ms * submitted++;
        const double ahead_ms = due_ms - pace.millis();
        if (ahead_ms > 0.05) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              static_cast<int64_t>(ahead_ms * 1e3)));
        }
        Ticket t = service.submit(request_for_frame(s, f, keys[s], step, deadline_ms));
        if (!t.accepted()) {
          outcome.count_admission(t.admission);
        } else {
          tickets.push_back(std::move(t));
        }
      }
    }
    for (Ticket& t : tickets) {
      FrameResult r = t.result.get();
      outcome.count_result(r);
      if (r.status == ServeStatus::kOk)
        service.recycle_frame(std::move(r.image));
    }
  }
  const double wall_ms = wall.millis();

  // Steady-state allocation probe: with the volume cache and frame pool
  // warm, how many heap allocations does one served frame cost end-to-end?
  // This number includes the renderer's per-frame scratch; the delivery-
  // path-only figure (gated at <= 2) comes from bench/memserve.
  double allocs_per_frame = 0.0;
  double alloc_bytes_per_frame = 0.0;
  if (!tools::shutdown_requested() && outcome.ok > 0) {
    const VolumeKey key = key_for_session(0, volumes, size);
    constexpr int kWarmup = 4, kProbe = 32;
    for (int f = 0; f < kWarmup; ++f) {
      Ticket t = service.submit(request_for_frame(0, frames + f, key, step, 0.0));
      if (!t.accepted()) continue;
      FrameResult r = t.result.get();
      if (r.status == ServeStatus::kOk) service.recycle_frame(std::move(r.image));
    }
    const tools::AllocSnapshot before = tools::alloc_snapshot();
    int probe_ok = 0;
    for (int f = 0; f < kProbe; ++f) {
      Ticket t = service.submit(
          request_for_frame(0, frames + kWarmup + f, key, step, 0.0));
      if (!t.accepted()) continue;
      FrameResult r = t.result.get();
      if (r.status == ServeStatus::kOk) {
        ++probe_ok;
        service.recycle_frame(std::move(r.image));
      }
    }
    const tools::AllocSnapshot d = tools::alloc_delta(before);
    if (probe_ok > 0) {
      allocs_per_frame = static_cast<double>(d.allocations) / probe_ok;
      alloc_bytes_per_frame = static_cast<double>(d.bytes) / probe_ok;
    }
  }
  service.drain();
  tools::release_waiters();
  shutdown_watcher.join();

  const ServiceMetrics& m = service.metrics();
  const CacheStats cache = service.cache_stats();
  const PoolStats fpool = service.frame_pool_stats();
  const PoolStats ppool = service.prepare_pool_stats();
  const double fps = wall_ms > 0 ? 1e3 * static_cast<double>(outcome.ok) / wall_ms : 0.0;

  std::printf("\n%llu frames served in %.0f ms -> %.2f frames/sec aggregate\n",
              static_cast<unsigned long long>(outcome.ok), wall_ms, fps);
  std::printf("admission: rejected %llu queue-full, %llu deadline; shed %llu; "
              "failed %llu\n",
              static_cast<unsigned long long>(outcome.rejected_queue_full),
              static_cast<unsigned long long>(outcome.rejected_deadline),
              static_cast<unsigned long long>(outcome.shed),
              static_cast<unsigned long long>(outcome.failed));
  std::printf("latency (end-to-end): p50 %.1f ms, p95 %.1f ms, p99 %.1f ms, "
              "max %.1f ms\n",
              m.total.quantile_ms(0.50), m.total.quantile_ms(0.95),
              m.total.quantile_ms(0.99), m.total.max_ms());
  std::printf("  queue wait p95 %.1f ms | composite p95 %.1f ms | warp p95 %.1f ms\n",
              m.queue_wait.quantile_ms(0.95), m.composite.quantile_ms(0.95),
              m.warp.quantile_ms(0.95));
  std::printf("cold-start frames (cache-miss build): %llu, p50 %.1f ms, p95 %.1f ms, "
              "max %.1f ms\n",
              static_cast<unsigned long long>(outcome.cold.count()),
              outcome.cold.quantile_ms(0.50), outcome.cold.quantile_ms(0.95),
              outcome.cold.max_ms());
  std::printf("warm frames (cache-hit):              %llu, p50 %.1f ms, p95 %.1f ms, "
              "max %.1f ms\n",
              static_cast<unsigned long long>(outcome.warm.count()),
              outcome.warm.quantile_ms(0.50), outcome.warm.quantile_ms(0.95),
              outcome.warm.max_ms());
  std::printf("cache: %.1f%% hit rate (%llu hits, %llu misses, %llu evictions, "
              "%.1f MB resident)\n",
              100.0 * cache.hit_rate(), static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.evictions),
              cache.bytes / 1048576.0);
  std::printf("frame pool: %.1f%% hit rate (%llu acquires, %llu retained) | "
              "steady-state allocs/frame %.1f (%.0f bytes)\n",
              100.0 * fpool.hit_rate(),
              static_cast<unsigned long long>(fpool.acquires),
              static_cast<unsigned long long>(fpool.retained),
              allocs_per_frame, alloc_bytes_per_frame);
  std::printf("queue depth max %lld | batches %llu (%llu frames rode a batch) | "
              "profiled frames %llu\n",
              static_cast<long long>(m.queue_depth_max.load()),
              static_cast<unsigned long long>(m.batches.load()),
              static_cast<unsigned long long>(m.batched_frames.load()),
              static_cast<unsigned long long>(m.profiled_frames.load()));

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("config").begin_object()
        .field("sessions", sessions)
        .field("frames_per_session", frames)
        .field("mode", mode)
        .field("threads", opt.worker_threads)
        .field("volume_size", size)
        .field("distinct_volumes", volumes)
        .field("queue_capacity", opt.queue_capacity)
        .field("batch_max", opt.batch_max)
        .field("deadline_ms", deadline_ms)
        .field("open_loop_rate_per_sec", mode == "open" ? rate : 0.0)
        .field("prepare_threads", opt.prepare_threads)
        .end_object();
    w.key("results").begin_object()
        .field("wall_ms", wall_ms)
        .field("frames_ok", outcome.ok)
        .field("frames_per_second", fps)
        .field("rejected_queue_full", outcome.rejected_queue_full)
        .field("rejected_deadline", outcome.rejected_deadline)
        .field("shed", outcome.shed)
        .field("failed", outcome.failed)
        .field("cache_hit_rate", cache.hit_rate())
        .field("allocs_per_frame", allocs_per_frame)
        .field("alloc_bytes_per_frame", alloc_bytes_per_frame);
    w.key("cold_start_latency_ms");
    outcome.cold.write_json(w);
    w.key("warm_latency_ms");
    outcome.warm.write_json(w);
    w.end_object();
    obs::write_json(w, [&](obs::MetricSink& s) {
      s.begin("service");
      m.export_to(s, cache, fpool, ppool);
      s.end();
    });
    w.end_object();
    std::string body = w.str();
    body += '\n';
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  const bool hard_failure = outcome.failed != 0;
  return hard_failure ? 1 : 0;
}
