// interactive and coldmix: the serving stack (RenderService, NetServer and,
// for coldmix, the cluster Router) in process on loopback, driven by real
// NetClients. Everything the program is asked to do arrives as wire
// requests generated from the seed.
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "alloc_probe.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "util/json_parse.hpp"
#include "workloads.hpp"

namespace swbench {

using namespace psw;

namespace {

constexpr int kCheckEvery = 16;  // hash every k-th delivered frame
constexpr int kWarmupFrames = 10;
constexpr double kPitch = 0.35;
constexpr double kStepDeg = 2.0;

// ---------------------------------------------------------------------------
// Volume builds: the service's phantom builder, wrapped so the benchmark can
// read each built volume's content hash (off the scheduler thread, later).
// ---------------------------------------------------------------------------

struct BuildLog {
  std::mutex mutex;
  std::map<std::string, std::shared_ptr<const EncodedVolume>> built;  // by canonical key
  uint64_t builds = 0;

  uint64_t build_count() {
    std::lock_guard<std::mutex> lock(mutex);
    return builds;
  }

  // Takes the volume built for `key` (null if none is held).
  std::shared_ptr<const EncodedVolume> take(const serve::VolumeKey& key) {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = built.find(key.canonical());
    if (it == built.end()) return nullptr;
    auto v = std::move(it->second);
    built.erase(it);
    return v;
  }
};

// One render service with its network front end. Members destroy in
// reverse order: the server stops before the service it submits to.
struct Server {
  PrepareScratchPool scratch;  // the builder holds a pointer: declared first
  std::unique_ptr<serve::RenderService> service;
  std::unique_ptr<net::NetServer> net;
};

std::unique_ptr<Server> start_server(int workers, uint64_t cache_bytes, int cache_shards,
                                     const std::shared_ptr<BuildLog>& log) {
  auto s = std::make_unique<Server>();
  PrepareOptions prep;
  prep.threads = workers;  // what the default builder does (prepare_threads = 0)
  serve::ServiceOptions sopt;
  sopt.worker_threads = workers;
  sopt.cache_bytes = cache_bytes;
  sopt.cache_shards = cache_shards;
  auto inner = serve::VolumeCache::phantom_builder(prep, &s->scratch);
  s->service = std::make_unique<serve::RenderService>(
      sopt, [inner, log](const serve::VolumeKey& key, PrepareTiming* timing) {
        auto volume = inner(key, timing);
        std::lock_guard<std::mutex> lock(log->mutex);
        log->built[key.canonical()] = volume;
        ++log->builds;
        return volume;
      });
  s->net = std::make_unique<net::NetServer>(*s->service, net::NetServerOptions{});
  std::string error;
  if (!s->net->start(&error)) throw std::runtime_error("server start: " + error);
  return s;
}

std::unique_ptr<net::NetClient> connect_client(uint16_t port) {
  auto c = std::make_unique<net::NetClient>();
  std::string error;
  if (!c->connect("127.0.0.1", port, &error)) throw std::runtime_error("connect: " + error);
  return c;
}

Camera orbit_camera(const serve::VolumeKey& key, double yaw_rad) {
  return Camera::orbit({key.nx, key.ny, key.nz}, yaw_rad, kPitch);
}

// ---------------------------------------------------------------------------
// Spans carried back on sampled frames.
// ---------------------------------------------------------------------------

struct SpanDurations {
  double queue = 0, build = 0, classify = 0, encode_volume = 0, composite = 0, warp = 0,
         frame_encode = 0, request = 0;
};

SpanDurations durations(const std::vector<obs::SpanRecord>& spans) {
  SpanDurations d;
  for (const obs::SpanRecord& s : spans) {
    const double ms = s.duration_ms();
    switch (s.kind) {
      case obs::SpanKind::kQueueWait: d.queue += ms; break;
      case obs::SpanKind::kCacheBuild: d.build += ms; break;
      case obs::SpanKind::kClassify: d.classify += ms; break;
      case obs::SpanKind::kEncodeVolume: d.encode_volume += ms; break;
      case obs::SpanKind::kComposite: d.composite += ms; break;
      case obs::SpanKind::kWarp: d.warp += ms; break;
      case obs::SpanKind::kFrameEncode: d.frame_encode += ms; break;
      case obs::SpanKind::kRequest: d.request += ms; break;
      default: break;
    }
  }
  return d;
}

// One sampled one-shot frame: the client round trip and its spans.
struct OneShot {
  double rtt_ms = 0, total_ms = 0;
  SpanDurations d;
  obs::TraceContext trace;
};

// Ledger rows of a one-shot frame. Through the router, the proxy row is the
// router's span less the shard's request span and frame encode, and
// delivery is the round trip outside the proxy span; without a router,
// delivery is the round trip outside the request span and frame encode.
std::vector<std::string> ledger_rows(bool router) {
  std::vector<std::string> rows = {"queue wait",        "phantom synthesis",
                                   "classify",          "encode-volume",
                                   "composite",         "warp",
                                   "frame encode"};
  if (router) rows.push_back("router proxy (proxy-request-encode)");
  rows.push_back(router ? "delivery (rtt-proxy)" : "delivery (rtt-request-encode)");
  return rows;
}

LedgerFrame ledger_frame(const OneShot& f, const double* proxy_ms) {
  const SpanDurations& d = f.d;
  LedgerFrame lf;
  lf.client_ms = f.rtt_ms;
  lf.rows = {d.queue,         d.build - d.classify - d.encode_volume,
             d.classify,      d.encode_volume,
             d.composite,     d.warp,
             d.frame_encode};
  if (proxy_ms) {
    lf.rows.push_back(*proxy_ms - d.request - d.frame_encode);
    lf.rows.push_back(f.rtt_ms - *proxy_ms);
  } else {
    lf.rows.push_back(f.rtt_ms - d.request - d.frame_encode);
  }
  return lf;
}

// ---------------------------------------------------------------------------
// Metrics documents: conservation checks read from the JSON a client fetches.
// ---------------------------------------------------------------------------

struct ServerTotals {
  uint64_t completed = 0, batched = 0, hits = 0, misses = 0, evictions = 0, builds = 0;
};

double num(const JsonValue* v, const char* a, const char* b = nullptr) {
  const JsonValue* x = v ? v->find(a) : nullptr;
  if (b) x = x ? x->find(b) : nullptr;
  return x ? x->as_double() : -1.0;
}

// The scratch pool every cache-miss build of `s` draws from. The service
// builds through the benchmark's wrapped builder, so this pool, not the
// service's own prepare_pool, is the one in use; every server builds at
// least its warm volumes, so an unused pool is itself a failure.
void check_scratch(const Server& s, const std::string& label, RunResult* out) {
  const PoolStats st = s.scratch.stats();
  if (st.acquires == 0 || !st.conserves() || st.outstanding != 0) {
    out->fail(label + " prepare scratch pool: unused, does not conserve or has outstanding "
              "scratch");
  }
}

void check_pool(const JsonValue* pool, const std::string& label, RunResult* out) {
  const double acquires = num(pool, "acquires"), hits = num(pool, "hits"),
               misses = num(pool, "misses"), releases = num(pool, "releases"),
               discards = num(pool, "discards"), outstanding = num(pool, "outstanding");
  const bool conserves = acquires >= 0 && acquires == hits + misses && releases <= acquires &&
                         outstanding == acquires - releases && discards <= releases;
  if (!conserves || outstanding != 0) {
    out->fail(label + ": pool does not conserve or has outstanding buffers");
  }
}

void check_server(uint16_t port, const std::string& label, RunResult* out, ServerTotals* t) {
  net::NetClient client;
  std::string json, error;
  JsonValue doc;
  if (!client.connect("127.0.0.1", port, &error) || !client.fetch_metrics(&json, &error) ||
      !json_parse(json, &doc, &error)) {
    out->fail(label + ": metrics fetch failed: " + error);
    return;
  }
  client.send_bye(nullptr);
  const JsonValue* svc = doc.find("service");
  const JsonValue* adm = svc ? svc->find("admission") : nullptr;
  const JsonValue* comp = svc ? svc->find("completion") : nullptr;
  const double submitted = num(adm, "submitted"), accepted = num(adm, "accepted");
  const double rejected = num(adm, "rejected_queue_full") + num(adm, "rejected_deadline") +
                          num(adm, "rejected_shutdown");
  const double completed = num(comp, "completed");
  const double unfinished =
      num(comp, "shed_deadline") + num(comp, "shed_shutdown") + num(comp, "failed");
  // ServiceMetrics::reconciles(), read from the exported document.
  if (submitted < 0 || submitted != accepted + rejected || accepted != completed + unfinished ||
      num(svc, "scheduler", "queue_depth") != 0) {
    out->fail(label + ": service admission counters do not reconcile");
  }
  if (rejected + unfinished > 0) out->fail(label + ": typed rejections or sheds");
  check_pool(svc ? svc->find("frame_pool") : nullptr, label + " frame_pool", out);
  check_pool(doc.find("net_pool"), label + " net_pool", out);
  const JsonValue* netm = doc.find("net");
  if (num(netm, "connections", "protocol_errors") != 0 || num(netm, "frames", "dropped") != 0 ||
      num(netm, "traffic", "errors_sent") != 0) {
    out->fail(label + ": protocol errors, error replies or dropped frames");
  }
  t->completed += static_cast<uint64_t>(completed);
  t->batched += static_cast<uint64_t>(num(svc, "scheduler", "batched_frames"));
  t->hits += static_cast<uint64_t>(num(svc, "volume_cache", "hits"));
  t->misses += static_cast<uint64_t>(num(svc, "volume_cache", "misses"));
  t->evictions += static_cast<uint64_t>(num(svc, "volume_cache", "evictions"));
  t->builds += static_cast<uint64_t>(
      num(svc ? svc->find("latency_ms") : nullptr, "cache_miss_build", "count"));
}

// ---------------------------------------------------------------------------
// Open-loop cold opener: at fixed due times it asks for a never-seen volume
// and then renders a short closed-loop burst of it. Each open is timed from
// its due time, so a stalled opener still charges the wait.
// ---------------------------------------------------------------------------

struct ColdOpen {
  serve::VolumeKey key;
  double yaw_deg = 0;
  std::vector<uint64_t> frame_hashes;  // one per burst frame
  uint64_t content_hash = 0;           // of the volume the service built
};

struct OpenerLog {
  Samples cold_ms{64}, late_ms{64}, build_ms{64};
  std::vector<double> done_at;  // in-window frame completions, s from the phase start
  std::vector<ColdOpen> opens;
  std::vector<OneShot> sampled;
  uint64_t attempted = 0, delivered = 0, errors = 0;
};

void run_opener(net::NetClient& client, BuildLog& log, const Config& cfg, int first_index,
                int max_opens, int burst, std::chrono::milliseconds interval,
                Clock::time_point phase_start, Clock::time_point end, bool traced,
                OpenerLog* out) {
  for (int i = 0; i < max_opens; ++i) {
    const Clock::time_point due = phase_start + interval / 2 + i * interval;
    if (cfg.frames == 0 && due >= end) break;
    std::this_thread::sleep_until(due);
    out->late_ms.add(ms_between(due, Clock::now()));
    const int index = first_index + i;
    ColdOpen open;
    open.key = volume_key("mri", 128, mix_seed(cfg.seed, 1000 + index));
    open.yaw_deg = static_cast<double>(mix_seed(cfg.seed, 2000 + index) % 360);
    for (int f = 0; f < burst; ++f) {
      net::RenderRequestMsg req;
      req.request_id = static_cast<uint64_t>(index) * 64 + f + 1;
      req.session_id = 100000 + static_cast<uint64_t>(index);
      req.volume = open.key;
      req.camera = orbit_camera(open.key, (open.yaw_deg + kStepDeg * f) * kDeg);
      if (traced) req.trace = obs::make_sampled_trace();
      ImageU8 image;
      net::FrameMsg meta;
      std::string error;
      ++out->attempted;
      const Clock::time_point t0 = Clock::now();
      if (!client.render(req, &image, &meta, &error)) {
        ++out->errors;
        open.frame_hashes.push_back(0);
        continue;
      }
      const Clock::time_point t1 = Clock::now();
      if (f == 0) out->cold_ms.add(ms_between(due, t1));
      if (t1 < end || cfg.frames > 0) {
        ++out->delivered;
        out->done_at.push_back(ms_between(phase_start, t1) / 1e3);
      }
      open.frame_hashes.push_back(image_hash(image));
      if (traced) {
        OneShot s{ms_between(t0, t1), meta.total_ms, durations(meta.spans), req.trace};
        if (f == 0) out->build_ms.add(s.d.build);
        out->sampled.push_back(s);
      }
    }
    if (auto volume = log.take(open.key)) open.content_hash = volume->content_hash();
    out->opens.push_back(std::move(open));
  }
}

// Post-run check of every cold open: the service's volume against a serial
// prepare_volume, and every burst frame against a direct serial render.
void verify_opens(const std::vector<ColdOpen>& opens, int threads, RunResult* out) {
  std::vector<int> bad_volume(opens.size(), 0), bad_frames(opens.size(), 0);
  parallel_for(static_cast<int>(opens.size()), threads, [&](int i) {
    const ColdOpen& o = opens[i];
    const auto ref = reference_volume(o.key);
    bad_volume[i] = ref->content_hash() != o.content_hash;
    for (size_t f = 0; f < o.frame_hashes.size(); ++f) {
      const Camera cam = orbit_camera(o.key, (o.yaw_deg + kStepDeg * f) * kDeg);
      bad_frames[i] += reference_frame_hash(*ref, cam) != o.frame_hashes[f];
    }
  });
  for (size_t i = 0; i < opens.size(); ++i) {
    if (bad_volume[i]) out->fail("cold open " + std::to_string(i) + ": content_hash mismatch");
    if (bad_frames[i]) {
      out->fail("cold open " + std::to_string(i) + ": frames differ from serial render",
                bad_frames[i]);
    }
  }
}

// Frames checked against a direct render: (viewer, camera) -> hash.
struct FrameCheck {
  int viewer;
  Camera camera;
  uint64_t hash;
};

void verify_frames(const std::vector<FrameCheck>& checks,
                   const std::vector<std::shared_ptr<const EncodedVolume>>& refs, int threads,
                   RunResult* out) {
  std::vector<int> bad(checks.size(), 0);
  parallel_for(static_cast<int>(checks.size()), threads, [&](int i) {
    bad[i] = reference_frame_hash(*refs[checks[i].viewer], checks[i].camera) != checks[i].hash;
  });
  uint64_t n = 0;
  for (int b : bad) n += static_cast<uint64_t>(b);
  if (n > 0) out->fail(std::to_string(n) + " delivered frames differ from serial render", n);
}

std::vector<std::shared_ptr<const EncodedVolume>> reference_volumes(
    const std::vector<serve::VolumeKey>& keys, int threads) {
  std::vector<std::shared_ptr<const EncodedVolume>> refs(keys.size());
  parallel_for(static_cast<int>(keys.size()), threads,
               [&](int i) { refs[i] = reference_volume(keys[i]); });
  return refs;
}

}  // namespace

// ===========================================================================
// interactive
// ===========================================================================

namespace {

struct Viewer {
  serve::VolumeKey key;
  uint64_t session = 0;
  double yaw0_deg = 0;
  int next_frame = 0;
  std::unique_ptr<net::NetClient> client;
  // Measured-phase records (buffers reserved before the phase starts).
  Samples rtt;
  std::vector<FrameCheck> checks;
  std::vector<OneShot> sampled;
  uint64_t attempted = 0, delivered = 0, errors = 0;
};

net::RenderRequestMsg viewer_request(const Viewer& v, int frame, bool traced) {
  net::RenderRequestMsg req;
  req.request_id = static_cast<uint64_t>(frame) + 1;
  req.session_id = v.session;
  req.volume = v.key;
  req.camera = orbit_camera(v.key, (v.yaw0_deg + kStepDeg * frame) * kDeg);
  if (traced) req.trace = obs::make_sampled_trace();
  return req;
}

// One closed-loop viewer: next request only after the previous frame is in.
void viewer_loop(Viewer& v, int index, const Config& cfg, Clock::time_point start,
                 Clock::time_point end, bool traced) {
  ImageU8 image;
  net::FrameMsg meta;
  std::string error;
  for (int n = 0;; ++n) {
    if (cfg.frames > 0 ? n >= cfg.frames : Clock::now() >= end) break;
    const int frame = v.next_frame++;
    const net::RenderRequestMsg req = viewer_request(v, frame, traced);
    ++v.attempted;
    const Clock::time_point t0 = Clock::now();
    if (!v.client->render(req, &image, &meta, &error)) {
      ++v.errors;
      continue;
    }
    const Clock::time_point t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    v.rtt.add(ms, ms_between(start, t1) / 1e3);
    ++v.delivered;
    if (frame % kCheckEvery == 0) v.checks.push_back({index, req.camera, image_hash(image)});
    if (traced) v.sampled.push_back({ms, meta.total_ms, durations(meta.spans), req.trace});
  }
}

}  // namespace

RunResult run_interactive(const Config& cfg) {
  RunResult out;
  const char* kinds[3] = {"mri", "mri", "ct"};
  std::vector<Viewer> viewers(3);
  std::vector<serve::VolumeKey> keys;
  for (int v = 0; v < 3; ++v) {
    viewers[v].key = volume_key(kinds[v], 128, mix_seed(cfg.seed, 10 + v));
    viewers[v].session = static_cast<uint64_t>(v) + 1;
    viewers[v].yaw0_deg = static_cast<double>(mix_seed(cfg.seed, 20 + v) % 360);
    keys.push_back(viewers[v].key);
  }

  // Set-up: service + server start, client connects, and a short warm-up
  // per viewer whose first frame builds its volume. Repeated; the last
  // stack is measured.
  auto log = std::make_shared<BuildLog>();
  std::unique_ptr<Server> server;
  Samples setup_s(cfg.setups);
  for (int s = 0; s < cfg.setups; ++s) {
    for (Viewer& v : viewers) v.client.reset();
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = start_server(cfg.workers, 256u << 20, 8, log);
    std::vector<std::thread> warm;
    for (Viewer& v : viewers) {
      v.client = connect_client(server->net->port());
      v.next_frame = 0;
      warm.emplace_back([&v] {
        ImageU8 image;
        net::FrameMsg meta;
        std::string error;
        for (; v.next_frame < kWarmupFrames; ++v.next_frame) {
          if (!v.client->render(viewer_request(v, v.next_frame, false), &image, &meta, &error)) {
            throw std::runtime_error("interactive warm-up: " + error);
          }
        }
      });
    }
    for (std::thread& t : warm) t.join();
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
  }
  const auto refs = reference_volumes(keys, cfg.workers + 1);
  for (size_t v = 0; v < viewers.size(); ++v) {
    const auto built = log->take(viewers[v].key);
    if (!built || built->content_hash() != refs[v]->content_hash()) {
      out.fail("interactive warm volume " + std::to_string(v) + ": content_hash mismatch");
    }
  }

  const size_t cap = cfg.frames > 0 ? static_cast<size_t>(cfg.frames)
                                    : static_cast<size_t>(cfg.seconds * 2000) + 64;
  for (Viewer& v : viewers) {
    v.rtt.reserve(cap);
    v.checks.reserve(cap / kCheckEvery + 2);
    if (cfg.trace) v.sampled.reserve(cap);
  }
  // Returns frames per second over the phase; fills allocs and bytes.
  auto phase = [&](double seconds, bool traced, double* allocs_per_frame,
                   double* bytes_per_frame) {
    uint64_t delivered0 = 0, bytes0 = 0;
    std::vector<size_t> first(viewers.size());
    for (size_t i = 0; i < viewers.size(); ++i) {
      delivered0 += viewers[i].delivered;
      bytes0 += viewers[i].client->bytes_received();
      first[i] = viewers[i].rtt.size();
    }
    const uint64_t allocs0 = tools::alloc_snapshot().allocations;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
    std::vector<std::thread> threads;
    for (size_t i = 0; i < viewers.size(); ++i) {
      threads.emplace_back(
          [&, i] { viewer_loop(viewers[i], static_cast<int>(i), cfg, start, end, traced); });
    }
    for (std::thread& t : threads) t.join();
    const double phase_s = cfg.frames > 0 ? ms_between(start, Clock::now()) / 1e3 : seconds;
    const uint64_t allocs = tools::alloc_snapshot().allocations - allocs0;
    uint64_t delivered = 0, bytes = 0;
    for (const Viewer& v : viewers) {
      delivered += v.delivered;
      bytes += v.client->bytes_received();
    }
    delivered -= delivered0;
    bytes -= bytes0;
    const double frames = std::max<double>(1.0, static_cast<double>(delivered));
    if (allocs_per_frame) *allocs_per_frame = static_cast<double>(allocs) / frames;
    if (bytes_per_frame) *bytes_per_frame = static_cast<double>(bytes) / frames;
    Samples done(delivered);
    for (size_t i = 0; i < viewers.size(); ++i) done.append(viewers[i].rtt, first[i]);
    return median_window_rate(done.times(), phase_s);
  };

  double allocs_per_frame = 0, bytes_per_frame = 0;
  const double fps =
      phase(cfg.trace ? cfg.seconds / 2 : cfg.seconds, false, &allocs_per_frame, &bytes_per_frame);
  const double traced_fps = cfg.trace ? phase(cfg.seconds / 2, true, nullptr, nullptr) : 0.0;
  uint64_t wire_bytes = 0;
  for (const Viewer& v : viewers) wire_bytes += v.client->bytes_received();

  // Cold opens on an otherwise idle service: one request per never-seen
  // volume, every 300 ms.
  OpenerLog cold;
  {
    auto client = connect_client(server->net->port());
    const Clock::time_point start = Clock::now();
    run_opener(*client, *log, cfg, 0, cfg.cold_opens, 1, std::chrono::milliseconds(300), start,
               Clock::time_point::max(), cfg.trace, &cold);
    client->send_bye(nullptr);
  }

  // Output checks and the service's own conservation invariants.
  Samples rtt(cap * viewers.size());
  std::vector<FrameCheck> checks;
  for (Viewer& v : viewers) {
    rtt.append(v.rtt);
    checks.insert(checks.end(), v.checks.begin(), v.checks.end());
    out.attempted += v.attempted;
    if (v.errors) out.fail("interactive viewer errors", v.errors);
  }
  out.attempted += cold.attempted;
  if (cold.errors) out.fail("interactive cold-open errors", cold.errors);
  verify_frames(checks, refs, cfg.workers + 1, &out);
  verify_opens(cold.opens, cfg.workers + 1, &out);
  for (Viewer& v : viewers) {
    v.client->send_bye(nullptr);
    v.client.reset();
  }
  ServerTotals totals;
  check_server(server->net->port(), "interactive server", &out, &totals);
  check_scratch(*server, "interactive server", &out);

  std::printf("\ninteractive: 3 closed-loop viewers (2 MRI + 1 CT, 128^3), P=%d, "
              "%zu frames checked, %zu cold opens\n",
              cfg.workers, checks.size(), cold.opens.size());
  report_end_to_end("frame_ms (client round trip)", rtt, fps, cold.cold_ms, setup_s,
                            &out);
  out.counts["frames_attempted"] = out.attempted;
  out.counts["cache_misses"] = totals.misses;
  out.counts["cache_builds"] = log->build_count();
  out.counts["wire_bytes"] = wire_bytes;

  if (!cfg.trace) return out;

  Samples queue, render, encode, delivery;
  std::vector<LedgerFrame> ledger;
  for (const Viewer& v : viewers) {
    for (const OneShot& f : v.sampled) {
      queue.add(f.d.queue);
      render.add(f.d.composite + f.d.warp);
      encode.add(f.d.frame_encode);
      delivery.add(f.rtt_ms - f.total_ms);
      ledger.push_back(ledger_frame(f, nullptr));
    }
  }
  out.layer("serve.queue_wait_ms_p50", queue.median(), "ms");
  out.layer("serve.queue_wait_ms_p99", tail_quantile(queue, nullptr), "ms");
  out.layer("serve.render_ms_p50", render.median(), "ms");
  out.layer("serve.batched_frac",
            static_cast<double>(totals.batched) / std::max<uint64_t>(1, totals.completed), "ratio");
  out.layer("serve.cache_hit_rate",
            static_cast<double>(totals.hits) / std::max<uint64_t>(1, totals.hits + totals.misses),
            "ratio");
  out.layer("serve.cache_evictions", static_cast<double>(totals.evictions), "count");
  out.layer("serve.build_ms_p50", cold.build_ms.median(), "ms");
  out.layer("net.encode_ms_p50", encode.median(), "ms");
  out.layer("net.delivery_ms_p50", delivery.median(), "ms");
  out.layer("net.wire_bytes_per_frame", bytes_per_frame, "bytes");
  out.layer("net.allocs_per_frame", allocs_per_frame, "count");
  out.layer("load.late_ms_max", cold.late_ms.max(), "ms");
  out.layer("obs.overhead_frac", 1.0 - traced_fps / fps, "ratio");
  std::printf("  traced fps %.2f vs untraced %.2f: obs.overhead_frac %.4f; "
              "%.1f allocs and %.0f wire bytes per frame\n",
              traced_fps, fps, 1.0 - traced_fps / fps, allocs_per_frame, bytes_per_frame);
  print_percentiles("serve queue wait", queue, "ms");
  print_percentiles("net delivery (rtt - total)", delivery, "ms");
  const double unattributed =
      print_ledger("interactive, one-shot client round trip", ledger_rows(false), ledger);
  std::vector<LedgerFrame> cold_ledger;
  for (const OneShot& f : cold.sampled) cold_ledger.push_back(ledger_frame(f, nullptr));
  print_ledger("interactive cold opens (idle service), client round trip", ledger_rows(false),
               cold_ledger);
  out.layer("ledger.unattributed_frac", unattributed, "ratio");
  return out;
}

// ===========================================================================
// coldmix
// ===========================================================================

namespace {

constexpr int kStreamFrames = 90;  // frames per warm stream (half an orbit)
constexpr int kBurst = 4;          // one-shot frames per cold open, first one cold

struct Streamer {
  serve::VolumeKey key;
  uint64_t session = 0;
  double yaw0_deg = 0;
  int next_frame = 0;      // orbit position of the next stream's first frame
  uint64_t next_stream = 1;
  std::unique_ptr<net::NetClient> client;
  Samples gaps;
  std::vector<double> done_at;  // in-window frame completions, s from the phase start
  std::vector<FrameCheck> checks;
  std::vector<OneShot> sampled;  // server-side spans of sampled stream frames
  std::vector<LedgerFrame> gap_ledger;  // sampled frames that close a recorded gap
  uint64_t attempted = 0, in_window = 0, drops = 0, errors = 0;
};

// Streams the warm volume in back-to-back kStreamFrames-frame orbits until
// the phase ends (or `frames` are done). Gaps between consecutive frames of
// one stream are the viewer's wait.
void stream_loop(Streamer& s, int index, const Config& cfg, Clock::time_point start,
                 Clock::time_point end, bool traced, bool record) {
  int done = 0;
  while (cfg.frames > 0 ? done < cfg.frames : Clock::now() < end) {
    net::StreamRequestMsg req;
    req.stream_id = s.next_stream++;
    req.session_id = s.session;
    req.volume = s.key;
    req.start_yaw = (s.yaw0_deg + kStepDeg * s.next_frame) * kDeg;
    req.pitch = kPitch;
    req.step_deg = kStepDeg;
    req.frames = static_cast<uint32_t>(
        cfg.frames > 0 ? std::min(kStreamFrames, cfg.frames - done) : kStreamFrames);
    if (traced) req.trace = obs::make_sampled_trace();
    std::string error;
    if (!s.client->open_stream(req, &error)) throw std::runtime_error("open_stream: " + error);
    if (record) s.attempted += req.frames;
    Clock::time_point last{};
    for (;;) {
      net::NetClient::Event ev;
      if (!s.client->next_event(&ev, &error)) throw std::runtime_error("stream: " + error);
      if (ev.kind == net::NetClient::Event::Kind::kError) {
        ++s.errors;
        break;
      }
      if (ev.kind == net::NetClient::Event::Kind::kStreamEnd) {
        if (record) s.drops += ev.end.frames_dropped;
        break;
      }
      const Clock::time_point now = Clock::now();
      const uint32_t seq = ev.frame.seq;
      double gap_ms = -1.0;
      if (record && (now < end || cfg.frames > 0)) {
        ++s.in_window;
        const double t = ms_between(start, now) / 1e3;
        s.done_at.push_back(t);
        if (last != Clock::time_point{}) {
          gap_ms = ms_between(last, now);
          s.gaps.add(gap_ms, t);
        }
      }
      last = now;
      if (record && (s.next_frame + static_cast<int>(seq)) % kCheckEvery == 0) {
        // The server's stream camera: start_yaw + seq * step_deg * kDeg.
        const Camera cam = Camera::orbit({s.key.nx, s.key.ny, s.key.nz},
                                         req.start_yaw + seq * req.step_deg * kDeg, req.pitch);
        s.checks.push_back({index, cam, image_hash(ev.image)});
      }
      if (record && traced) {
        const SpanDurations d = durations(ev.frame.spans);
        s.sampled.push_back({0, ev.frame.total_ms, d, {}});
        // A stream keeps up to 4 frames in flight, so a frame's queue wait
        // overlaps the gaps before it: only the frame's own work is a row.
        if (gap_ms >= 0) s.gap_ledger.push_back({gap_ms, {d.composite, d.warp, d.frame_encode}});
      }
    }
    s.next_frame += static_cast<int>(req.frames);
    done += static_cast<int>(req.frames);
  }
}

// Searches phantom seeds (from the run seed on) until the volume's key lands
// on `shard` of the router's 2-shard ring.
serve::VolumeKey place_on(size_t shard, uint64_t seed, uint64_t stream) {
  const cluster::RouterOptions defaults;
  cluster::HashRing ring(defaults.vnodes);
  ring.rebuild({{"shard-0", 1}, {"shard-1", 1}});
  for (uint64_t i = 0;; ++i) {
    serve::VolumeKey key = volume_key("mri", 128, mix_seed(seed, stream + 7919 * i));
    if (ring.owner(cluster::HashRing::hash_key(key.canonical())) == shard) return key;
  }
}

struct Cluster {
  std::vector<std::unique_ptr<Server>> shards;
  std::unique_ptr<obs::SpanRecorder> recorder = std::make_unique<obs::SpanRecorder>();
  std::unique_ptr<cluster::Router> router;
  ~Cluster() {
    if (router) router->stop();
  }
};

}  // namespace

RunResult run_coldmix(const Config& cfg) {
  RunResult out;
  constexpr int kShardWorkers = 2;
  std::vector<Streamer> streamers(2);
  std::vector<serve::VolumeKey> keys;
  for (int v = 0; v < 2; ++v) {
    streamers[v].key = place_on(static_cast<size_t>(v), cfg.seed, 30 + v);
    streamers[v].session = static_cast<uint64_t>(v) + 1;
    streamers[v].yaw0_deg = static_cast<double>(mix_seed(cfg.seed, 40 + v) % 360);
    keys.push_back(streamers[v].key);
  }
  // Reference volumes (output checks) also size the per-shard cache: its
  // warm volume plus about two and a half cold ones, so cold volumes evict
  // each other while the warm one stays resident.
  const auto refs = reference_volumes(keys, cfg.workers + 1);
  const uint64_t warm_bytes = std::max(refs[0]->storage_bytes(), refs[1]->storage_bytes());
  const uint64_t budget = warm_bytes * 7 / 2;

  auto log = std::make_shared<BuildLog>();
  std::unique_ptr<Cluster> cl;
  std::unique_ptr<net::NetClient> opener;
  Samples setup_s(cfg.setups);
  for (int s = 0; s < cfg.setups; ++s) {
    opener.reset();
    for (Streamer& st : streamers) st.client.reset();
    cl.reset();
    const Clock::time_point t0 = Clock::now();
    cl = std::make_unique<Cluster>();
    std::vector<cluster::ShardSpec> specs;
    for (int i = 0; i < 2; ++i) {
      cl->shards.push_back(start_server(kShardWorkers, budget, 1, log));
      specs.push_back(
          {"shard-" + std::to_string(i), "127.0.0.1", cl->shards.back()->net->port(), 1});
    }
    cluster::RouterOptions ropt;
    ropt.probe_interval_ms = 100.0;
    ropt.recorder = cl->recorder.get();
    cl->router = std::make_unique<cluster::Router>(specs, ropt);
    std::string error;
    if (!cl->router->start(&error)) throw std::runtime_error("router start: " + error);
    if (!cl->router->wait_healthy(2, 10'000.0)) throw std::runtime_error("shards not healthy");
    std::vector<std::thread> warm;
    for (size_t i = 0; i < streamers.size(); ++i) {
      Streamer& st = streamers[i];
      st.client = connect_client(cl->router->port());
      st.next_frame = 0;
      warm.emplace_back([&st, i, &cfg] {
        Config w = cfg;
        w.frames = kWarmupFrames;
        stream_loop(st, static_cast<int>(i), w, Clock::now(), Clock::time_point::max(), false,
                    false);
      });
    }
    for (std::thread& t : warm) t.join();
    opener = connect_client(cl->router->port());
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
  }
  for (size_t v = 0; v < streamers.size(); ++v) {
    const auto built = log->take(streamers[v].key);
    if (!built || built->content_hash() != refs[v]->content_hash()) {
      out.fail("coldmix warm volume " + std::to_string(v) + ": content_hash mismatch");
    }
  }

  const size_t cap = cfg.frames > 0 ? static_cast<size_t>(cfg.frames)
                                    : static_cast<size_t>(cfg.seconds * 1500) + 64;
  for (Streamer& st : streamers) {
    st.gaps.reserve(cap);
    st.done_at.reserve(cap);
    st.checks.reserve(cap / kCheckEvery + 2);
    if (cfg.trace) {
      st.sampled.reserve(cap);
      st.gap_ledger.reserve(cap);
    }
  }
  OpenerLog cold;
  cold.opens.reserve(256);
  cold.done_at.reserve(4096);
  if (cfg.trace) cold.sampled.reserve(1024);
  int opens_done = 0;
  const auto interval = std::chrono::milliseconds(400);
  auto phase = [&](double seconds, bool traced, double* bytes_per_frame) {
    uint64_t frames0 = cold.delivered, bytes0 = opener->bytes_received();
    std::vector<size_t> first = {cold.done_at.size()};
    for (const Streamer& st : streamers) {
      frames0 += st.in_window;
      bytes0 += st.client->bytes_received();
      first.push_back(st.done_at.size());
    }
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
    std::vector<std::thread> threads;
    for (size_t i = 0; i < streamers.size(); ++i) {
      threads.emplace_back([&, i] {
        stream_loop(streamers[i], static_cast<int>(i), cfg, start, end, traced, true);
      });
    }
    const size_t opens_before = cold.opens.size();
    run_opener(*opener, *log, cfg, opens_done, cfg.frames > 0 ? cfg.cold_opens : 1 << 20,
               kBurst, interval, start, end, traced, &cold);
    opens_done += static_cast<int>(cold.opens.size() - opens_before);
    for (std::thread& t : threads) t.join();
    const double phase_s = cfg.frames > 0 ? ms_between(start, Clock::now()) / 1e3 : seconds;
    uint64_t frames = cold.delivered, bytes = opener->bytes_received();
    for (const Streamer& st : streamers) {
      frames += st.in_window;
      bytes += st.client->bytes_received();
    }
    frames -= frames0;
    bytes -= bytes0;
    const double nf = std::max<double>(1.0, static_cast<double>(frames));
    if (bytes_per_frame) *bytes_per_frame = static_cast<double>(bytes) / nf;
    std::vector<double> done(cold.done_at.begin() + static_cast<std::ptrdiff_t>(first[0]),
                             cold.done_at.end());
    for (size_t i = 0; i < streamers.size(); ++i) {
      const std::vector<double>& d = streamers[i].done_at;
      done.insert(done.end(), d.begin() + static_cast<std::ptrdiff_t>(first[i + 1]), d.end());
    }
    return median_window_rate(done, phase_s);
  };

  double bytes_per_frame = 0;
  const double fps = phase(cfg.trace ? cfg.seconds / 2 : cfg.seconds, false, &bytes_per_frame);
  const double traced_fps = cfg.trace ? phase(cfg.seconds / 2, true, nullptr) : 0.0;

  // Router-side proxy spans of the sampled one-shot frames, by trace id.
  std::map<std::pair<uint64_t, uint64_t>, double> proxy_ms;
  for (const obs::SpanRecord& s : cl->recorder->snapshot()) {
    if (s.kind == obs::SpanKind::kRouterProxy) {
      proxy_ms[{s.trace_hi, s.trace_lo}] = s.duration_ms();
    }
  }
  const uint64_t protocol_errors = cl->router->metrics().protocol_errors.load();
  std::vector<uint64_t> forwarded;
  for (const auto& shard : cl->router->metrics().shards) {
    forwarded.push_back(shard->forwarded_frames.load());
  }

  Samples gaps(cap * streamers.size());
  std::vector<FrameCheck> checks;
  for (Streamer& st : streamers) {
    gaps.append(st.gaps);
    checks.insert(checks.end(), st.checks.begin(), st.checks.end());
    out.attempted += st.attempted;
    if (st.errors) out.fail("coldmix stream errors", st.errors);
    if (st.drops) out.fail("coldmix stream frames dropped", st.drops);
  }
  out.attempted += cold.attempted;
  if (cold.errors) out.fail("coldmix cold-open errors", cold.errors);
  if (protocol_errors) out.fail("router protocol errors", protocol_errors);
  verify_frames(checks, refs, cfg.workers + 1, &out);
  verify_opens(cold.opens, cfg.workers + 1, &out);
  opener->send_bye(nullptr);
  opener.reset();
  for (Streamer& st : streamers) {
    st.client->send_bye(nullptr);
    st.client.reset();
  }
  ServerTotals totals;
  for (size_t i = 0; i < cl->shards.size(); ++i) {
    const std::string label = "coldmix shard-" + std::to_string(i);
    check_server(cl->shards[i]->net->port(), label, &out, &totals);
    check_scratch(*cl->shards[i], label, &out);
  }

  std::printf("\ncoldmix: router + 2 shards x %d workers, 2 warm MRI streams (window 4), "
              "cold MRI opens every %lld ms (burst %d), shard cache %.1f MiB; "
              "%zu frames checked, %zu cold opens\n",
              kShardWorkers, static_cast<long long>(interval.count()), kBurst,
              static_cast<double>(budget) / (1 << 20), checks.size(), cold.opens.size());
  report_end_to_end("frame_ms (warm stream gap)", gaps, fps, cold.cold_ms, setup_s, &out);
  std::printf("  cache: %llu hits, %llu misses, %llu evictions\n",
              static_cast<unsigned long long>(totals.hits),
              static_cast<unsigned long long>(totals.misses),
              static_cast<unsigned long long>(totals.evictions));
  out.counts["frames_attempted"] = out.attempted;
  out.counts["cache_misses"] = totals.misses;
  out.counts["cache_builds"] = log->build_count();

  if (!cfg.trace) return out;

  Samples queue, render, encode, delivery, proxy;
  std::vector<LedgerFrame> ledger, gap_ledger;
  for (const Streamer& st : streamers) {
    for (const OneShot& f : st.sampled) {
      queue.add(f.d.queue);
      render.add(f.d.composite + f.d.warp);
      encode.add(f.d.frame_encode);
    }
    gap_ledger.insert(gap_ledger.end(), st.gap_ledger.begin(), st.gap_ledger.end());
  }
  for (const OneShot& f : cold.sampled) {
    queue.add(f.d.queue);
    render.add(f.d.composite + f.d.warp);
    encode.add(f.d.frame_encode);
    delivery.add(f.rtt_ms - f.total_ms);
    const auto it = proxy_ms.find({f.trace.trace_hi, f.trace.trace_lo});
    if (it == proxy_ms.end()) continue;
    proxy.add(it->second - f.d.request);
    ledger.push_back(ledger_frame(f, &it->second));
  }
  uint64_t forwarded_total = 0, forwarded_max = 0;
  for (uint64_t f : forwarded) {
    forwarded_total += f;
    forwarded_max = std::max(forwarded_max, f);
  }
  out.layer("serve.queue_wait_ms_p50", queue.median(), "ms");
  out.layer("serve.queue_wait_ms_p99", tail_quantile(queue, nullptr), "ms");
  out.layer("serve.render_ms_p50", render.median(), "ms");
  out.layer("serve.batched_frac",
            static_cast<double>(totals.batched) / std::max<uint64_t>(1, totals.completed), "ratio");
  out.layer("serve.cache_hit_rate",
            static_cast<double>(totals.hits) / std::max<uint64_t>(1, totals.hits + totals.misses),
            "ratio");
  out.layer("serve.cache_evictions", static_cast<double>(totals.evictions), "count");
  out.layer("serve.build_ms_p50", cold.build_ms.median(), "ms");
  out.layer("net.encode_ms_p50", encode.median(), "ms");
  out.layer("net.delivery_ms_p50", delivery.median(), "ms");
  out.layer("net.wire_bytes_per_frame", bytes_per_frame, "bytes");
  out.layer("cluster.proxy_ms_p50", proxy.median(), "ms");
  out.layer("cluster.max_shard_share",
            static_cast<double>(forwarded_max) / std::max<uint64_t>(1, forwarded_total), "ratio");
  out.layer("load.late_ms_max", cold.late_ms.max(), "ms");
  out.layer("obs.overhead_frac", 1.0 - traced_fps / fps, "ratio");
  std::printf("  traced fps %.2f vs untraced %.2f: obs.overhead_frac %.4f; "
              "%.0f wire bytes per frame; opener late by at most %.3f ms\n",
              traced_fps, fps, 1.0 - traced_fps / fps, bytes_per_frame, cold.late_ms.max());
  print_percentiles("serve queue wait (all frames)", queue, "ms");
  print_percentiles("serve build (cold first frame)", cold.build_ms, "ms");
  print_percentiles("cluster proxy (proxy-request)", proxy, "ms");
  // frame_ms is the warm stream gap: its ledger splits each sampled gap into
  // the closing frame's own work; the rest is the shard's other work
  // (the other stream's and the cold opener's), scheduling and transport.
  const double unattributed = print_ledger(
      "coldmix, warm stream gap (frame_ms)",
      {"composite (this frame)", "warp (this frame)", "frame encode (this frame)"}, gap_ledger);
  print_ledger("coldmix, one-shot frames through the router (cold opens + bursts)",
               ledger_rows(true), ledger);
  out.layer("ledger.unattributed_frac", unattributed, "ratio");
  return out;
}

}  // namespace swbench
