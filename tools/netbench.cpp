// Loopback benchmark for the network frame-delivery path: an in-process
// NetServer over a RenderService on an ephemeral 127.0.0.1 port, with one
// NetClient per session driving it through real sockets. Reports latency
// quantiles (client round-trip in request mode, service end-to-end in
// stream mode), bytes-on-the-wire vs raw RGBA, and drop counts, as text
// and as BENCH_net.json. Exits non-zero on any protocol error or failed
// frame, so CI can use it as a smoke gate.
//
//   ./tools/netbench [--mode=stream|request] [--sessions=4] [--frames=30]
//                    [--size=48] [--threads=4] [--kind=mri] [--step=2.0]
//                    [--window=4] [--pending=4] [--json=BENCH_net.json]
//
// Cluster mode (--cluster) benchmarks the sharded path instead: it boots N
// in-process netserve shards behind a cluster::Router on loopback and
// drives a fixed working set of 8 volumes (one session each) through the
// router, sweeping the shard counts in --shards:
//
//   ./tools/netbench --cluster [--shards=1,2,4] [--frames=24] [--image=64]
//                    [--json=BENCH_cluster.json] [--trace-out=DIR]
//
// --trace-out=DIR (cluster mode) sends one sampled request through the
// router after the largest sweep configuration and writes DIR/
// router_trace.json, DIR/shard-N_trace.json and DIR/router_prom.txt —
// the inputs tools/traceview reassembles into a cross-process trace tree
// (CI's trace smoke stage drives exactly this path).
//
// The working set is constructed so that aggregate VolumeCache capacity is
// the scaling resource (the point of consistent-hash placement): per-shard
// budgets are sized so one shard thrashes on the full set, two shards keep
// exactly the warm half hot, and four shards hold everything. Volume seeds
// are searched against the same HashRing the router builds, so placement
// is deterministic and verified, not assumed.
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_probe.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "core/factorization.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "serve/volume_cache.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace psw;

namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;

struct SessionResult {
  LatencyHistogram latency;
  uint64_t frames = 0;
  uint64_t dropped = 0;
  uint64_t failures = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  std::string error;
};

net::RenderRequestMsg one_shot(uint64_t session, int frame, const std::string& kind,
                               int size, double step_deg) {
  net::RenderRequestMsg req;
  req.request_id = static_cast<uint64_t>(frame) + 1;
  req.session_id = session;
  req.volume.kind = kind;
  req.volume.tf_preset = kind == "ct" ? 1 : 0;
  req.volume.nx = req.volume.ny = req.volume.nz = size;
  req.camera = Camera::orbit({size, size, size},
                             0.13 * static_cast<double>(session) +
                                 frame * step_deg * kDeg,
                             0.35);
  return req;
}

void run_request_session(uint16_t port, uint64_t session, int frames,
                         const std::string& kind, int size, double step,
                         SessionResult* out) {
  net::NetClient client;
  std::string error;
  if (!client.connect("127.0.0.1", port, &error)) {
    out->failures += static_cast<uint64_t>(frames);
    out->error = error;
    return;
  }
  for (int f = 0; f < frames; ++f) {
    ImageU8 image;
    net::FrameMsg meta;
    WallTimer rtt;
    if (!client.render(one_shot(session, f, kind, size, step), &image, &meta,
                       &error)) {
      ++out->failures;
      out->error = error;
      continue;
    }
    out->latency.record_ms(rtt.millis());
    ++out->frames;
  }
  out->bytes_sent = client.bytes_sent();
  out->bytes_received = client.bytes_received();
  client.send_bye(nullptr);
}

void run_stream_session(uint16_t port, uint64_t session, int frames,
                        const std::string& kind, int size, double step,
                        SessionResult* out) {
  net::NetClient client;
  std::string error;
  if (!client.connect("127.0.0.1", port, &error)) {
    out->failures += static_cast<uint64_t>(frames);
    out->error = error;
    return;
  }
  net::StreamRequestMsg req;
  req.stream_id = session;
  req.session_id = session;
  req.volume.kind = kind;
  req.volume.tf_preset = kind == "ct" ? 1 : 0;
  req.volume.nx = req.volume.ny = req.volume.nz = size;
  req.start_yaw = 0.13 * static_cast<double>(session);
  req.step_deg = step;
  req.frames = static_cast<uint32_t>(frames);
  if (!client.open_stream(req, &error)) {
    out->failures += static_cast<uint64_t>(frames);
    out->error = error;
    return;
  }
  for (;;) {
    net::NetClient::Event event;
    if (!client.next_event(&event, &error)) {
      ++out->failures;
      out->error = error;
      break;
    }
    if (event.kind == net::NetClient::Event::Kind::kError) {
      ++out->failures;
      out->error = event.error.message;
      break;
    }
    if (event.kind == net::NetClient::Event::Kind::kStreamEnd) {
      out->dropped = event.end.frames_dropped;
      break;
    }
    // Client-side RTT is meaningless for server-paced frames; use the
    // service's end-to-end latency carried in the frame header.
    out->latency.record_ms(event.frame.total_ms);
    ++out->frames;
  }
  out->bytes_sent = client.bytes_sent();
  out->bytes_received = client.bytes_received();
  client.send_bye(nullptr);
}

// ---------------------------------------------------------------------------
// Cluster mode.
// ---------------------------------------------------------------------------

// One volume of the cluster working set, with its placement targets on the
// 2-shard and 4-shard rings and its measured encoded size.
struct ClusterVolume {
  serve::VolumeKey key;
  bool warm = false;   // belongs to the half that stays cached at 2 shards
  size_t owner2 = 0;   // required ring owner at 2 shards
  size_t owner4 = 0;   // required ring owner at 4 shards
  uint64_t bytes = 0;
  double build_ms = 0.0;
};

// Searches seeds until the volume's canonical key lands on its target shard
// in BOTH the 2-shard and 4-shard rings. Consistent hashing makes the pair
// feasible (a key owned by shard 0 of 2 is owned by shard 0, 2 or 3 of 4),
// so a few dozen tries suffice; the cap only guards against a logic bug.
bool place_volume(const cluster::HashRing& ring2, const cluster::HashRing& ring4,
                  ClusterVolume* v, uint64_t* next_seed) {
  for (uint64_t seed = *next_seed; seed < *next_seed + 1'000'000; ++seed) {
    v->key.seed = seed;
    const uint64_t h = cluster::HashRing::hash_key(v->key.canonical());
    if (ring2.owner(h) == v->owner2 && ring4.owner(h) == v->owner4) {
      *next_seed = seed + 1;
      return true;
    }
  }
  return false;
}

void run_cluster_session(uint16_t port, uint64_t session, int frames,
                         const serve::VolumeKey& key, int image,
                         SessionResult* out) {
  net::NetClient client;
  std::string error;
  if (!client.connect("127.0.0.1", port, &error)) {
    out->failures += static_cast<uint64_t>(frames);
    out->error = error;
    return;
  }
  for (int f = 0; f < frames; ++f) {
    net::RenderRequestMsg req;
    req.request_id = static_cast<uint64_t>(f) + 1;
    req.session_id = session;
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz},
                               0.13 * static_cast<double>(session) + f * 2.0 * kDeg,
                               0.35);
    req.camera.image_width = req.camera.image_height = image;
    ImageU8 frame_image;
    net::FrameMsg meta;
    WallTimer rtt;
    if (!client.render(req, &frame_image, &meta, &error)) {
      ++out->failures;
      out->error = error;
      continue;
    }
    out->latency.record_ms(rtt.millis());
    ++out->frames;
  }
  out->bytes_sent = client.bytes_sent();
  out->bytes_received = client.bytes_received();
  client.send_bye(nullptr);
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

struct ClusterShardReport {
  uint64_t routed_requests = 0;
  uint64_t forwarded_frames = 0;
  serve::CacheStats cache;
};

struct ClusterConfigResult {
  int shards = 0;
  double wall_ms = 0.0;
  uint64_t frames_ok = 0;
  uint64_t failures = 0;
  uint64_t protocol_errors = 0;
  double fps = 0.0;
  // Relay cost of the timed sessions: payload bytes the router copied, and
  // the bytes the clients sent and received (both per forwarded frame).
  double copied_bytes_per_frame = 0.0;
  double client_bytes_per_frame = 0.0;
  LatencyHistogram latency;
  std::vector<ClusterShardReport> per_shard;
  std::string error;
};

ClusterConfigResult run_cluster_config(int nshards, uint64_t budget, int frames,
                                       int image,
                                       const std::vector<ClusterVolume>& vols,
                                       const std::string& trace_dir) {
  ClusterConfigResult result;
  result.shards = nshards;

  // Recorders outlive the servers that write into them (declared first =>
  // destroyed last). Only instantiated when --trace-out asks for dumps.
  std::vector<std::unique_ptr<obs::SpanRecorder>> recorders;
  std::vector<std::unique_ptr<serve::RenderService>> services;
  std::vector<std::unique_ptr<net::NetServer>> servers;
  std::vector<cluster::ShardSpec> specs;
  const bool tracing = !trace_dir.empty();
  for (int i = 0; i < nshards; ++i) {
    serve::ServiceOptions sopt;
    // One worker and one un-sharded cache per shard: the bench runs on any
    // core count, so throughput scaling must come from cache capacity (each
    // added shard adds budget), not from parallelism the host may not have.
    sopt.worker_threads = 1;
    sopt.prepare_threads = 1;
    sopt.batch_max = 1;
    sopt.cache_bytes = budget;
    sopt.cache_shards = 1;
    net::NetServerOptions nopt;
    nopt.port = 0;
    if (tracing) {
      recorders.push_back(std::make_unique<obs::SpanRecorder>());
      sopt.recorder = recorders.back().get();
      nopt.recorder = recorders.back().get();
      nopt.trace_node = "shard-" + std::to_string(i);
    }
    services.push_back(std::make_unique<serve::RenderService>(sopt));
    servers.push_back(std::make_unique<net::NetServer>(*services.back(), nopt));
    std::string error;
    if (!servers.back()->start(&error)) {
      result.error = "shard start: " + error;
      return result;
    }
    specs.push_back({"shard-" + std::to_string(i), "127.0.0.1",
                     servers.back()->port(), 1});
  }

  obs::SpanRecorder router_recorder;
  cluster::RouterOptions ropt;
  ropt.port = 0;
  ropt.probe_interval_ms = 100.0;
  if (tracing) {
    ropt.recorder = &router_recorder;
    ropt.trace_node = "router";
  }
  cluster::Router router(specs, ropt);
  std::string error;
  if (!router.start(&error)) {
    result.error = "router start: " + error;
  } else if (!router.wait_healthy(static_cast<size_t>(nshards), 10'000.0)) {
    result.error = "shards did not become healthy";
  } else {
    std::vector<SessionResult> sessions(vols.size());
    WallTimer wall;
    {
      std::vector<std::thread> drivers;
      drivers.reserve(vols.size());
      for (size_t s = 0; s < vols.size(); ++s) {
        SessionResult* out = &sessions[s];
        const serve::VolumeKey* key = &vols[s].key;
        const uint64_t session = static_cast<uint64_t>(s) + 1;
        drivers.emplace_back([&router, session, frames, key, image, out] {
          run_cluster_session(router.port(), session, frames, *key, image, out);
        });
      }
      for (auto& d : drivers) d.join();
    }
    result.wall_ms = wall.millis();
    uint64_t client_bytes = 0;
    for (SessionResult& s : sessions) {
      result.latency.merge(s.latency);
      result.frames_ok += s.frames;
      result.failures += s.failures;
      client_bytes += s.bytes_sent + s.bytes_received;
      if (!s.error.empty() && result.error.empty()) result.error = s.error;
    }
    const double forwarded =
        static_cast<double>(std::max<uint64_t>(1, router.metrics().frames_forwarded.load()));
    result.copied_bytes_per_frame =
        static_cast<double>(router.metrics().payload_copy_bytes.load()) / forwarded;
    result.client_bytes_per_frame = static_cast<double>(client_bytes) / forwarded;
    result.fps = result.wall_ms > 0
                     ? 1e3 * static_cast<double>(result.frames_ok) / result.wall_ms
                     : 0.0;
  }

  // Traced probe: one explicitly sampled request through the router against
  // the warm cluster, then collect the span dumps from every process-level
  // recorder plus the router's Prometheus exposition.
  if (tracing && result.error.empty()) {
    ::mkdir(trace_dir.c_str(), 0755);  // fine if it already exists
    net::NetClient probe;
    std::string perr;
    if (!probe.connect("127.0.0.1", router.port(), &perr)) {
      std::fprintf(stderr, "netbench: trace probe connect failed: %s\n",
                   perr.c_str());
    } else {
      net::RenderRequestMsg req;
      req.request_id = 1;
      req.session_id = 9'001;  // fresh session: exercises the pin path too
      req.volume = vols[0].key;
      req.camera = Camera::orbit({vols[0].key.nx, vols[0].key.ny, vols[0].key.nz},
                                 0.4, 0.35);
      req.camera.image_width = req.camera.image_height = image;
      req.trace = obs::make_sampled_trace();
      ImageU8 img;
      net::FrameMsg meta;
      if (!probe.render(req, &img, &meta, &perr)) {
        std::fprintf(stderr, "netbench: trace probe render failed: %s\n",
                     perr.c_str());
      } else {
        std::printf("  traced probe: trace %s, %zu server spans on the frame\n",
                    obs::trace_id_hex(req.trace).c_str(), meta.spans.size());
      }
      std::string prom;
      if (probe.fetch_metrics(&prom, &perr, net::kMetricsSelectorPrometheus)) {
        write_file(trace_dir + "/router_prom.txt", prom);
      }
      probe.send_bye(nullptr);
    }
    // The shard-side kSend span lands on the shard's poll thread as the
    // frame drains; give it a beat before snapshotting in-process.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    bool dumps_ok =
        write_file(trace_dir + "/router_trace.json", router.trace_dump_json());
    for (int i = 0; i < nshards; ++i) {
      dumps_ok &=
          write_file(trace_dir + "/shard-" + std::to_string(i) + "_trace.json",
                     servers[static_cast<size_t>(i)]->trace_dump_json());
    }
    if (dumps_ok) {
      std::printf("  wrote trace dumps to %s/\n", trace_dir.c_str());
    } else {
      std::fprintf(stderr, "netbench: could not write trace dumps to %s/\n",
                   trace_dir.c_str());
      result.error = "trace dump write failed";
    }
  }

  result.protocol_errors = router.metrics().protocol_errors.load();
  for (int i = 0; i < nshards; ++i) {
    ClusterShardReport report;
    report.routed_requests =
        router.metrics().shards[static_cast<size_t>(i)]->routed_requests.load();
    report.forwarded_frames =
        router.metrics().shards[static_cast<size_t>(i)]->forwarded_frames.load();
    report.cache = services[static_cast<size_t>(i)]->cache_stats();
    result.protocol_errors += servers[static_cast<size_t>(i)]->metrics().protocol_errors.load();
    result.per_shard.push_back(report);
  }

  router.stop();
  for (int i = 0; i < nshards; ++i) {
    servers[static_cast<size_t>(i)]->stop();
    services[static_cast<size_t>(i)]->drain();
  }
  return result;
}

int run_cluster(const CliFlags& flags) {
  const int frames = flags.get_int("frames", 24);
  const int image = flags.get_int("image", 64);
  const std::string shard_list = flags.get("shards", "1,2,4");
  const std::string json_path = flags.get("json", "BENCH_cluster.json");
  const std::string trace_out = flags.get("trace-out", "");

  std::vector<int> counts;
  for (size_t pos = 0; pos < shard_list.size();) {
    const size_t comma = shard_list.find(',', pos);
    const std::string tok = shard_list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    counts.push_back(std::atoi(tok.c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 1 && counts[i] != 2 && counts[i] != 4) {
      std::fprintf(stderr, "netbench: --shards entries must be 1, 2 or 4\n");
      return 2;
    }
    if (i > 0 && counts[i] <= counts[i - 1]) {
      std::fprintf(stderr, "netbench: --shards must be ascending\n");
      return 2;
    }
  }
  if (counts.empty()) {
    std::fprintf(stderr, "netbench: --shards is empty\n");
    return 2;
  }

  // The rings the placement search runs against — built exactly like the
  // router builds its own (same ids, same weights, same vnodes), so the
  // searched owners are the owners the router will actually pick.
  const cluster::RouterOptions defaults;
  cluster::HashRing ring2(defaults.vnodes), ring4(defaults.vnodes);
  ring2.rebuild({{"shard-0", 1}, {"shard-1", 1}});
  ring4.rebuild({{"shard-0", 1}, {"shard-1", 1}, {"shard-2", 1}, {"shard-3", 1}});

  // 8 volumes, one session each. The warm half (sparse high-threshold MRI:
  // expensive to build, few encoded bytes) lands on shard 0 of 2; the
  // thrash half (dense CT: cheap to build per byte, many bytes) lands on
  // shard 1 of 2 and overflows it. At 4 shards every pair fits its shard.
  // A key owned by shard 0 of 2 can only move to shard 2 or 3 when the ring
  // doubles, which fixes the feasible owner4 targets below.
  std::vector<ClusterVolume> vols(8);
  for (size_t i = 0; i < 4; ++i) {
    vols[i].key.kind = "mri";
    vols[i].key.tf_preset = 0;
    vols[i].key.nx = vols[i].key.ny = vols[i].key.nz = 72;
    vols[i].key.classify.alpha_threshold = 120;
    vols[i].warm = true;
    vols[i].owner2 = 0;
    vols[i].owner4 = i < 2 ? 0 : 2;
  }
  for (size_t i = 4; i < 8; ++i) {
    vols[i].key.kind = "ct";
    vols[i].key.tf_preset = 1;
    vols[i].key.nx = vols[i].key.ny = vols[i].key.nz = 64;
    vols[i].warm = false;
    vols[i].owner2 = 1;
    vols[i].owner4 = i < 6 ? 1 : 3;
  }
  uint64_t next_seed = 1;
  for (ClusterVolume& v : vols) {
    if (!place_volume(ring2, ring4, &v, &next_seed)) {
      std::fprintf(stderr, "netbench: placement search failed\n");
      return 1;
    }
  }

  // Measure each volume's encoded size (seed-dependent: the phantom content
  // changes with the seed) and derive the per-shard budget: every fitting
  // load gets 10% headroom, and the overflowing loads must clear the budget
  // by 25% so LRU cycling cannot accidentally fit.
  auto builder = serve::VolumeCache::phantom_builder();
  for (ClusterVolume& v : vols) {
    WallTimer t;
    v.bytes = builder(v.key, nullptr)->storage_bytes();
    v.build_ms = t.millis();
  }
  uint64_t load2[2] = {0, 0}, load4[4] = {0, 0, 0, 0}, total = 0;
  for (const ClusterVolume& v : vols) {
    load2[v.owner2] += v.bytes;
    load4[v.owner4] += v.bytes;
    total += v.bytes;
  }
  uint64_t fit = load2[0];
  for (const uint64_t l : load4) fit = std::max(fit, l);
  const uint64_t budget = fit + fit / 10;
  if (load2[1] < budget + budget / 4 || total < budget + budget / 4) {
    std::fprintf(stderr,
                 "netbench: working set no longer overflows the budget "
                 "(budget %llu, 2-shard overflow load %llu, total %llu) — "
                 "retune the volume dims\n",
                 static_cast<unsigned long long>(budget),
                 static_cast<unsigned long long>(load2[1]),
                 static_cast<unsigned long long>(total));
    return 1;
  }

  std::printf("netbench --cluster: 8 sessions x %d frames, image %dx%d, "
              "per-shard cache budget %.2f MiB\n",
              frames, image, image, static_cast<double>(budget) / (1u << 20));
  std::printf("  working set: 4 warm mri-72 (%.2f MiB, %.0f ms build each) + "
              "4 overflow ct-64 (%.2f MiB, %.0f ms build each)\n",
              static_cast<double>(vols[0].bytes) / (1u << 20), vols[0].build_ms,
              static_cast<double>(vols[4].bytes) / (1u << 20), vols[4].build_ms);

  std::vector<ClusterConfigResult> sweep;
  for (const int n : counts) {
    // Trace dumps come from the largest configuration only: one directory,
    // one reassembled tree, and the multi-shard path is the one worth seeing.
    const bool last = n == counts.back();
    ClusterConfigResult r = run_cluster_config(n, budget, frames, image, vols,
                                               last ? trace_out : std::string());
    std::printf("  %d shard(s): %llu frames in %.0f ms -> %.1f frames/sec "
                "(%llu failed, %llu protocol errors)\n",
                n, static_cast<unsigned long long>(r.frames_ok), r.wall_ms,
                r.fps, static_cast<unsigned long long>(r.failures),
                static_cast<unsigned long long>(r.protocol_errors));
    std::printf("    router copied %.0f B per forwarded frame; clients moved %.0f B\n",
                r.copied_bytes_per_frame, r.client_bytes_per_frame);
    for (size_t i = 0; i < r.per_shard.size(); ++i) {
      const ClusterShardReport& s = r.per_shard[i];
      std::printf("    shard-%zu: %llu requests routed, cache %llu/%llu hits "
                  "(%.1f%%), %llu evictions\n",
                  i, static_cast<unsigned long long>(s.routed_requests),
                  static_cast<unsigned long long>(s.cache.hits),
                  static_cast<unsigned long long>(s.cache.hits + s.cache.misses),
                  100.0 * s.cache.hit_rate(),
                  static_cast<unsigned long long>(s.cache.evictions));
    }
    if (!r.error.empty()) {
      std::fprintf(stderr, "netbench: %d-shard run error: %s\n", n,
                   r.error.c_str());
    }
    sweep.push_back(std::move(r));
  }

  // --- acceptance checks ---
  bool ok = true;
  const double fps1 = sweep.front().shards == 1 ? sweep.front().fps : 0.0;
  double speedup2 = 0.0, speedup4 = 0.0;
  double prev_fps = 0.0;
  for (const ClusterConfigResult& r : sweep) {
    const uint64_t expected =
        static_cast<uint64_t>(vols.size()) * static_cast<uint64_t>(frames);
    if (r.failures != 0 || r.frames_ok != expected || r.protocol_errors != 0) {
      std::fprintf(stderr,
                   "netbench: FAIL %d-shard: %llu/%llu frames, %llu failures, "
                   "%llu protocol errors\n",
                   r.shards, static_cast<unsigned long long>(r.frames_ok),
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(r.failures),
                   static_cast<unsigned long long>(r.protocol_errors));
      ok = false;
    }
    if (r.fps <= prev_fps) {
      std::fprintf(stderr,
                   "netbench: FAIL throughput not monotonic at %d shards "
                   "(%.1f <= %.1f fps)\n",
                   r.shards, r.fps, prev_fps);
      ok = false;
    }
    prev_fps = r.fps;
    // Placement + warmth: every shard must have served work, and every
    // shard whose assigned load fits the budget must run >= 90% warm.
    for (size_t i = 0; i < r.per_shard.size(); ++i) {
      const ClusterShardReport& s = r.per_shard[i];
      if (r.shards > 1 && s.routed_requests == 0) {
        std::fprintf(stderr, "netbench: FAIL shard-%zu served nothing at %d shards\n",
                     i, r.shards);
        ok = false;
      }
      const bool should_be_warm =
          (r.shards == 4) || (r.shards == 2 && i == 0);
      if (should_be_warm && s.cache.hit_rate() < 0.90) {
        std::fprintf(stderr,
                     "netbench: FAIL shard-%zu at %d shards: %.1f%% hit rate "
                     "(want >= 90%% warm)\n",
                     i, r.shards, 100.0 * s.cache.hit_rate());
        ok = false;
      }
    }
    if (fps1 > 0.0 && r.shards == 2) speedup2 = r.fps / fps1;
    if (fps1 > 0.0 && r.shards == 4) speedup4 = r.fps / fps1;
  }
  if (fps1 > 0.0 && speedup2 > 0.0 && speedup2 < 1.6) {
    std::fprintf(stderr, "netbench: FAIL 2-shard speedup %.2fx < 1.6x\n", speedup2);
    ok = false;
  }
  if (fps1 > 0.0 && speedup4 > 0.0 && speedup4 < 2.5) {
    std::fprintf(stderr, "netbench: FAIL 4-shard speedup %.2fx < 2.5x\n", speedup4);
    ok = false;
  }
  if (speedup2 > 0.0 || speedup4 > 0.0) {
    std::printf("  speedup vs 1 shard: %.2fx at 2, %.2fx at 4\n", speedup2,
                speedup4);
  }

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("config").begin_object()
        .field("sessions", static_cast<uint64_t>(vols.size()))
        .field("frames_per_session", frames)
        .field("image", image)
        .field("vnodes", defaults.vnodes)
        .field("cache_budget_bytes", budget);
    w.key("volumes").begin_array();
    for (const ClusterVolume& v : vols) {
      w.begin_object()
          .field("key", v.key.canonical())
          .field("warm", v.warm)
          .field("owner_at_2", static_cast<uint64_t>(v.owner2))
          .field("owner_at_4", static_cast<uint64_t>(v.owner4))
          .field("bytes", v.bytes)
          .field("build_ms", v.build_ms)
          .end_object();
    }
    w.end_array();
    w.end_object();
    w.key("sweep").begin_array();
    for (const ClusterConfigResult& r : sweep) {
      w.begin_object()
          .field("shards", r.shards)
          .field("wall_ms", r.wall_ms)
          .field("frames_delivered", r.frames_ok)
          .field("frames_per_second", r.fps)
          .field("failures", r.failures)
          .field("protocol_errors", r.protocol_errors)
          .field("speedup_vs_1", fps1 > 0.0 ? r.fps / fps1 : 0.0)
          .field("router_copied_bytes_per_frame", r.copied_bytes_per_frame)
          .field("client_bytes_per_frame", r.client_bytes_per_frame);
      w.key("latency");
      r.latency.write_json(w);
      w.key("per_shard").begin_array();
      for (const ClusterShardReport& s : r.per_shard) {
        w.begin_object()
            .field("requests_routed", s.routed_requests)
            .field("frames_forwarded", s.forwarded_frames)
            .field("cache_hits", s.cache.hits)
            .field("cache_misses", s.cache.misses)
            .field("cache_hit_rate", s.cache.hit_rate())
            .field("cache_evictions", s.cache.evictions)
            .field("cache_bytes", s.cache.bytes)
            .end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("results").begin_object()
        .field("speedup_2x", speedup2)
        .field("speedup_4x", speedup4)
        .field("passed", ok)
        .end_object();
    w.end_object();
    std::string body = w.str();
    body += '\n';
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "netbench: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  flags.require_known({"mode", "sessions", "frames", "size", "threads", "kind",
                       "step", "window", "pending", "prepare-threads", "json",
                       "cluster", "shards", "image", "trace-out"});
  if (flags.get_bool("cluster", false)) return run_cluster(flags);
  const std::string mode = flags.get("mode", "stream");
  const int sessions = flags.get_int("sessions", 4);
  const int frames = flags.get_int("frames", 30);
  const int size = flags.get_int("size", 48);
  const std::string kind = flags.get("kind", "mri");
  const double step = flags.get_double("step", 2.0);
  const std::string json_path = flags.get("json", "BENCH_net.json");

  if (mode != "stream" && mode != "request") {
    std::fprintf(stderr, "--mode must be stream or request (got '%s')\n",
                 mode.c_str());
    return 2;
  }

  serve::ServiceOptions sopt;
  sopt.worker_threads = flags.get_int("threads", 4);
  sopt.prepare_threads = flags.get_int("prepare-threads", 0);
  net::NetServerOptions nopt;
  nopt.port = 0;  // ephemeral: the bench never collides with a real server
  nopt.stream_window = flags.get_int("window", 4);
  nopt.max_pending_frames = static_cast<size_t>(flags.get_int("pending", 4));

  serve::RenderService service(sopt);
  net::NetServer server(service, nopt);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "netbench: cannot start server: %s\n", error.c_str());
    return 1;
  }

  std::printf("netbench: %d %s sessions x %d frames, %d-voxel %s volume, "
              "%d render threads, loopback port %u\n",
              sessions, mode.c_str(), frames, size, kind.c_str(),
              sopt.worker_threads, server.port());

  std::vector<SessionResult> results(static_cast<size_t>(sessions));
  WallTimer wall;
  {
    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<size_t>(sessions));
    for (int s = 0; s < sessions; ++s) {
      SessionResult* out = &results[static_cast<size_t>(s)];
      const uint64_t session = static_cast<uint64_t>(s) + 1;
      drivers.emplace_back([=, &server] {
        if (mode == "request") {
          run_request_session(server.port(), session, frames, kind, size, step, out);
        } else {
          run_stream_session(server.port(), session, frames, kind, size, step, out);
        }
      });
    }
    for (auto& d : drivers) d.join();
  }
  const double wall_ms = wall.millis();

  LatencyHistogram latency;
  uint64_t frames_ok = 0, dropped = 0, failures = 0;
  uint64_t bytes_sent = 0, bytes_received = 0;
  for (const SessionResult& r : results) {
    latency.merge(r.latency);
    frames_ok += r.frames;
    dropped += r.dropped;
    failures += r.failures;
    bytes_sent += r.bytes_sent;
    bytes_received += r.bytes_received;
    if (!r.error.empty()) {
      std::fprintf(stderr, "netbench: session error: %s\n", r.error.c_str());
    }
  }

  // Steady-state allocation probe: one more session against the now-warm
  // cache and pools, counting process-wide heap allocations per delivered
  // frame (render scratch + encode + wire + client-side decode). The
  // delivery-path-only figure, gated at <= 2, comes from bench/memserve.
  double allocs_per_frame = 0.0;
  if (failures == 0) {
    constexpr int kProbeFrames = 16;
    SessionResult probe;
    const tools::AllocSnapshot before = tools::alloc_snapshot();
    if (mode == "request") {
      run_request_session(server.port(), 1, kProbeFrames, kind, size, step, &probe);
    } else {
      run_stream_session(server.port(), 1, kProbeFrames, kind, size, step, &probe);
    }
    const tools::AllocSnapshot d = tools::alloc_delta(before);
    if (probe.frames > 0) {
      allocs_per_frame = static_cast<double>(d.allocations) /
                         static_cast<double>(probe.frames);
    }
  }

  server.stop();
  service.drain();
  const net::NetMetrics& m = server.metrics();
  const uint64_t protocol_errors = m.protocol_errors.load();
  const double fps = wall_ms > 0 ? 1e3 * static_cast<double>(frames_ok) / wall_ms : 0.0;

  std::printf("\n%llu frames delivered in %.0f ms -> %.1f frames/sec aggregate "
              "(%llu dropped, %llu failed)\n",
              static_cast<unsigned long long>(frames_ok), wall_ms, fps,
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(failures));
  std::printf("latency (%s): p50 %.1f ms, p95 %.1f ms, p99 %.1f ms, max %.1f ms\n",
              mode == "request" ? "client round-trip" : "service end-to-end",
              latency.quantile_ms(0.50), latency.quantile_ms(0.95),
              latency.quantile_ms(0.99), latency.max_ms());
  std::printf("codec: %llu raw RGBA bytes -> %llu on the wire (ratio %.3f)\n",
              static_cast<unsigned long long>(m.frame_raw_bytes.load()),
              static_cast<unsigned long long>(m.frame_wire_bytes.load()),
              m.wire_ratio());
  std::printf("socket traffic: %llu B client->server, %llu B server->client, "
              "%llu protocol errors\n",
              static_cast<unsigned long long>(bytes_sent),
              static_cast<unsigned long long>(bytes_received),
              static_cast<unsigned long long>(protocol_errors));
  std::printf("memory: %.1f allocs/frame steady-state (both endpoints)\n",
              allocs_per_frame);

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("config").begin_object()
        .field("mode", mode)
        .field("sessions", sessions)
        .field("frames_per_session", frames)
        .field("volume_size", size)
        .field("kind", kind)
        .field("step_deg", step)
        .field("threads", sopt.worker_threads)
        .field("stream_window", nopt.stream_window)
        .field("max_pending_frames", static_cast<uint64_t>(nopt.max_pending_frames))
        .end_object();
    w.key("results").begin_object()
        .field("wall_ms", wall_ms)
        .field("frames_delivered", frames_ok)
        .field("frames_per_second", fps)
        .field("frames_dropped", dropped)
        .field("failures", failures)
        .field("protocol_errors", protocol_errors)
        .field("client_bytes_sent", bytes_sent)
        .field("client_bytes_received", bytes_received)
        .field("frame_raw_bytes", m.frame_raw_bytes.load())
        .field("frame_wire_bytes", m.frame_wire_bytes.load())
        .field("wire_ratio", m.wire_ratio())
        .field("allocs_per_frame", allocs_per_frame);
    w.key("latency");
    latency.write_json(w);
    w.end_object();
    obs::write_json(w, [&](obs::MetricSink& s) {
      s.begin("net");
      m.export_to(s);
      s.end();
    });
    w.end_object();
    std::string body = w.str();
    body += '\n';
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "netbench: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  return (failures != 0 || protocol_errors != 0) ? 1 : 0;
}
