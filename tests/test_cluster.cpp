// Sharded-cluster tests: consistent-hash ring properties (balance,
// weighting, minimal disruption, replication candidates), and router
// end-to-end behavior against real in-process netserve shards — frames
// proxied through the router stay bit-identical to direct renderer output,
// session affinity survives an administrative drain, streams arrive in
// order, the aggregated metrics document rolls shard counters up, a hello
// with the wrong protocol version gets a typed error then close, and
// losing a shard mid-stream yields typed kUnavailable errors, an ejection,
// a ring rebuild and a counted re-route instead of a hang. The ClusterTrace
// suite pins the tracing contract across the router hop: span parentage,
// bit-identity of traced frames, duration consistency with measured e2e
// latency, metrics-selector dumps, and trace ids on typed errors.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/metrics.hpp"
#include "cluster/router.hpp"
#include "core/classify.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "parallel/new_renderer.hpp"
#include "phantom/phantom.hpp"
#include "serve/service.hpp"
#include "util/json_parse.hpp"
#include "util/timer.hpp"

namespace psw::cluster {
namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;

uint64_t pixel_hash(const ImageU8& img) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto* bytes = reinterpret_cast<const uint8_t*>(img.data());
  for (size_t i = 0; i < img.pixel_count() * sizeof(Pixel8); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h ^ (static_cast<uint64_t>(img.width()) << 32) ^
         static_cast<uint64_t>(img.height());
}

// --- hash ring ------------------------------------------------------------

HashRing ring_of(const std::vector<RingNode>& nodes, int vnodes = 64) {
  HashRing ring(vnodes);
  ring.rebuild(nodes);
  return ring;
}

std::vector<RingNode> shard_nodes(int n) {
  std::vector<RingNode> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back({"shard-" + std::to_string(i), 1});
  return nodes;
}

TEST(HashRing, TwoAndFourNodeOwnershipIsBalanced) {
  const int kKeys = 4000;
  {
    const HashRing ring = ring_of(shard_nodes(2));
    int counts[2] = {0, 0};
    for (int i = 0; i < kKeys; ++i) {
      ++counts[ring.owner(HashRing::hash_key("key-" + std::to_string(i)))];
    }
    for (int c : counts) {
      EXPECT_GT(c, kKeys / 4);
      EXPECT_LT(c, 3 * kKeys / 4);
    }
  }
  {
    const HashRing ring = ring_of(shard_nodes(4));
    int counts[4] = {0, 0, 0, 0};
    for (int i = 0; i < kKeys; ++i) {
      ++counts[ring.owner(HashRing::hash_key("key-" + std::to_string(i)))];
    }
    for (int c : counts) {
      EXPECT_GT(c, kKeys / 10);
      EXPECT_LT(c, 2 * kKeys / 5);
    }
  }
}

TEST(HashRing, WeightScalesOwnedKeyspace) {
  const HashRing ring = ring_of({{"light", 1}, {"heavy", 2}});
  int light = 0, heavy = 0;
  for (int i = 0; i < 4000; ++i) {
    const size_t o = ring.owner(HashRing::hash_key("key-" + std::to_string(i)));
    (o == 0 ? light : heavy) += 1;
  }
  // A weight-2 node owns ~2x the keyspace of a weight-1 node.
  EXPECT_GT(heavy, light * 13 / 10);
  EXPECT_LT(heavy, light * 3);
}

TEST(HashRing, RemovingANodeOnlyMovesItsOwnKeys) {
  const HashRing before = ring_of(shard_nodes(4));
  // Dropping the *last* node keeps the surviving indices aligned, so the
  // minimal-disruption property is directly comparable.
  const HashRing after = ring_of(shard_nodes(3));
  int moved_from_survivor = 0, remapped = 0;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t h = HashRing::hash_key("key-" + std::to_string(i));
    const size_t o1 = before.owner(h);
    const size_t o2 = after.owner(h);
    if (o1 == 3) {
      ++remapped;
      EXPECT_LT(o2, 3u);
    } else if (o1 != o2) {
      ++moved_from_survivor;
    }
  }
  EXPECT_EQ(moved_from_survivor, 0);
  EXPECT_GT(remapped, 0);
}

TEST(HashRing, PickReturnsDistinctNodesOwnerFirst) {
  const HashRing ring = ring_of(shard_nodes(4));
  for (int i = 0; i < 50; ++i) {
    const uint64_t h = HashRing::hash_key("volume-" + std::to_string(i));
    const std::vector<size_t> three = ring.pick(h, 3);
    ASSERT_EQ(three.size(), 3u);
    EXPECT_EQ(three[0], ring.owner(h));
    EXPECT_NE(three[0], three[1]);
    EXPECT_NE(three[0], three[2]);
    EXPECT_NE(three[1], three[2]);
    // k beyond the node count saturates at every distinct node.
    EXPECT_EQ(ring.pick(h, 99).size(), 4u);
  }
}

// --- router end-to-end ----------------------------------------------------

// N in-process netserve shards fronted by a Router, all on ephemeral ports.
// With `traced` every process-level component gets its own SpanRecorder,
// exactly like netserve --trace-sample / clusterctl wire them up.
class MiniCluster {
 public:
  explicit MiniCluster(int n, bool traced = false, RouterOptions ropt = {}) {
    std::vector<ShardSpec> specs;
    for (int i = 0; i < n; ++i) {
      serve::ServiceOptions sopt;
      sopt.worker_threads = 2;
      net::NetServerOptions nopt;
      if (traced) {
        recorders_.push_back(std::make_unique<obs::SpanRecorder>());
        sopt.recorder = recorders_.back().get();
        nopt.recorder = recorders_.back().get();
        nopt.trace_node = "shard-" + std::to_string(i);
      }
      services_.push_back(std::make_unique<serve::RenderService>(sopt));
      servers_.push_back(
          std::make_unique<net::NetServer>(*services_.back(), nopt));
      std::string error;
      ok_ = servers_.back()->start(&error);
      EXPECT_TRUE(ok_) << error;
      if (!ok_) return;
      specs.push_back({"shard-" + std::to_string(i), "127.0.0.1",
                       servers_.back()->port(), 1});
    }
    ropt.probe_interval_ms = 50.0;
    if (traced) {
      ropt.recorder = &router_recorder_;
      ropt.trace_node = "router";
    }
    router_ = std::make_unique<Router>(specs, ropt);
    std::string error;
    ok_ = router_->start(&error);
    EXPECT_TRUE(ok_) << error;
  }

  ~MiniCluster() {
    if (router_) router_->stop();
    for (auto& s : servers_) s->stop();
  }

  bool healthy(size_t n) const {
    return ok_ && router_->wait_healthy(n, 10'000.0);
  }

  Router& router() { return *router_; }
  net::NetServer& server(size_t i) { return *servers_[i]; }
  serve::RenderService& service(size_t i) { return *services_[i]; }
  obs::SpanRecorder& shard_recorder(size_t i) { return *recorders_[i]; }
  obs::SpanRecorder& router_recorder() { return router_recorder_; }

 private:
  bool ok_ = false;
  obs::SpanRecorder router_recorder_;
  std::vector<std::unique_ptr<obs::SpanRecorder>> recorders_;
  std::vector<std::unique_ptr<serve::RenderService>> services_;
  std::vector<std::unique_ptr<net::NetServer>> servers_;
  std::unique_ptr<Router> router_;
};

// First seed >= start_seed whose mri-36 volume the n-shard ring (built
// exactly as the router builds it) places on shard `want`.
serve::VolumeKey key_owned_by(size_t want, int nshards, uint64_t start_seed = 1) {
  const HashRing ring = ring_of(shard_nodes(nshards));
  serve::VolumeKey key;
  key.kind = "mri";
  key.nx = key.ny = key.nz = 36;
  for (uint64_t seed = start_seed; seed < start_seed + 100'000; ++seed) {
    key.seed = seed;
    if (ring.owner(HashRing::hash_key(key.canonical())) == want) return key;
  }
  ADD_FAILURE() << "no seed places a volume on shard " << want;
  return key;
}

bool wait_state(const Router& router, size_t shard, ShardState want,
                double timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(static_cast<int64_t>(timeout_ms));
  while (std::chrono::steady_clock::now() < deadline) {
    if (router.shard_state(shard) == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return router.shard_state(shard) == want;
}

TEST(ClusterRouter, ProxiedFramesBitIdenticalToDirectRender) {
  MiniCluster cluster(2);
  ASSERT_TRUE(cluster.healthy(2));

  serve::VolumeKey key;
  key.kind = "mri";
  key.nx = key.ny = key.nz = 40;
  const int kFrames = 4;
  const double start_yaw = 0.4, pitch = 0.3, step_deg = 3.0;

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error))
      << error;

  std::vector<uint64_t> served;
  for (int f = 0; f < kFrames; ++f) {
    net::RenderRequestMsg req;
    req.request_id = static_cast<uint64_t>(f) + 1;
    req.session_id = 7;
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz},
                               start_yaw + f * step_deg * kDeg, pitch);
    ImageU8 image;
    net::FrameMsg meta;
    ASSERT_TRUE(client.render(req, &image, &meta, &error)) << error;
    served.push_back(pixel_hash(image));
  }
  client.send_bye(nullptr);

  // Same frames, no network, no router.
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  const DensityVolume density = make_mri_brain(key.nx, key.ny, key.nz);
  const ClassifiedVolume classified =
      classify(density, TransferFunction::mri_preset(), key.classify);
  const EncodedVolume volume =
      EncodedVolume::build(classified, key.classify.alpha_threshold);
  NewParallelRenderer renderer(sopt.parallel);
  ThreadedExecutor exec(sopt.worker_threads);
  ImageU8 direct;
  for (int f = 0; f < kFrames; ++f) {
    renderer.render(volume,
                    Camera::orbit({key.nx, key.ny, key.nz},
                                  start_yaw + f * step_deg * kDeg, pitch),
                    exec, &direct);
    EXPECT_EQ(pixel_hash(direct), served[f]) << "frame " << f;
  }

  const RouterMetrics& m = cluster.router().metrics();
  EXPECT_EQ(m.requests_routed.load(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ(m.frames_forwarded.load(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ(m.protocol_errors.load(), 0u);
  // Affinity: one session, one shard — all four frames on the same shard.
  const uint64_t s0 = m.shards[0]->routed_requests.load();
  const uint64_t s1 = m.shards[1]->routed_requests.load();
  EXPECT_TRUE((s0 == 4 && s1 == 0) || (s0 == 0 && s1 == 4))
      << "s0=" << s0 << " s1=" << s1;
}

TEST(ClusterRouter, AffinityHoldsThroughDrainAndNewPlacementsAvoidIt) {
  MiniCluster cluster(2);
  ASSERT_TRUE(cluster.healthy(2));
  Router& router = cluster.router();

  const serve::VolumeKey key_a = key_owned_by(0, 2);
  const serve::VolumeKey key_b = key_owned_by(0, 2, key_a.seed + 1);
  ASSERT_NE(key_a.canonical(), key_b.canonical());

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;

  const auto render = [&](uint64_t session, const serve::VolumeKey& key,
                          uint64_t id) {
    net::RenderRequestMsg req;
    req.request_id = id;
    req.session_id = session;
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.3, 0.3);
    ImageU8 image;
    net::FrameMsg meta;
    ASSERT_TRUE(client.render(req, &image, &meta, &error)) << error;
  };

  // Session 1 pins to shard-0 (key_a's ring owner).
  render(1, key_a, 1);
  EXPECT_EQ(router.metrics().shards[0]->routed_requests.load(), 1u);

  ASSERT_TRUE(router.set_drain("shard-0", true));
  ASSERT_TRUE(wait_state(router, 0, ShardState::kDraining, 5'000.0));

  // The pinned session keeps flowing to the draining shard...
  render(1, key_a, 2);
  EXPECT_EQ(router.metrics().shards[0]->routed_requests.load(), 2u);
  // ...but a new session's placement avoids it, even for a volume the ring
  // would have put there.
  render(2, key_b, 3);
  EXPECT_EQ(router.metrics().shards[1]->routed_requests.load(), 1u);

  // Undrain: the shard rejoins the ring and fresh placements return.
  ASSERT_TRUE(router.set_drain("shard-0", false));
  ASSERT_TRUE(wait_state(router, 0, ShardState::kHealthy, 5'000.0));
  render(3, key_b, 4);
  EXPECT_EQ(router.metrics().shards[0]->routed_requests.load(), 3u);

  client.send_bye(nullptr);
  EXPECT_EQ(router.metrics().reroutes.load(), 0u);  // drain never breaks pins
}

TEST(ClusterRouter, StreamArrivesInOrderAndComplete) {
  MiniCluster cluster(2);
  ASSERT_TRUE(cluster.healthy(2));

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error))
      << error;

  net::StreamRequestMsg req;
  req.stream_id = 11;
  req.session_id = 4;
  req.volume = key_owned_by(1, 2);
  req.frames = 6;
  req.step_deg = 4.0;
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  uint32_t next_seq = 0;
  net::StreamEndMsg end;
  bool ended = false;
  while (!ended) {
    net::NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    ASSERT_NE(event.kind, net::NetClient::Event::Kind::kError);
    if (event.kind == net::NetClient::Event::Kind::kStreamEnd) {
      end = event.end;
      ended = true;
      continue;
    }
    EXPECT_EQ(event.frame.stream_id, req.stream_id);
    EXPECT_EQ(event.frame.seq, next_seq++);
  }
  client.send_bye(nullptr);

  EXPECT_EQ(end.frames_sent, req.frames);
  EXPECT_EQ(end.frames_dropped, 0u);
  EXPECT_EQ(next_seq, req.frames);
  EXPECT_EQ(cluster.router().metrics().streams_routed.load(), 1u);
  EXPECT_GE(cluster.router().metrics().frames_forwarded.load(),
            static_cast<uint64_t>(req.frames));
}

// <object>.<key> of a top-level object in a metrics document; 0 if absent.
uint64_t doc_u64(const std::string& json, const char* object, const char* key) {
  JsonValue doc;
  if (!json_parse(json, &doc)) return 0;
  const JsonValue* obj = doc.find(object);
  const JsonValue* v = obj ? obj->find(key) : nullptr;
  return v ? v->as_u64() : 0;
}

TEST(ClusterRouter, AggregatedMetricsRollUpBothShards) {
  MiniCluster cluster(2);
  ASSERT_TRUE(cluster.healthy(2));
  Router& router = cluster.router();

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;

  // One frame on each shard: distinct sessions, ring-targeted volumes.
  for (size_t shard = 0; shard < 2; ++shard) {
    net::RenderRequestMsg req;
    req.request_id = shard + 1;
    req.session_id = shard + 1;
    req.volume = key_owned_by(shard, 2);
    req.camera = Camera::orbit({req.volume.nx, req.volume.ny, req.volume.nz},
                               0.2, 0.3);
    ImageU8 image;
    net::FrameMsg meta;
    ASSERT_TRUE(client.render(req, &image, &meta, &error)) << error;
  }

  // The cluster rollup sums the shard documents the prober snapshots, so
  // give the next probe cycle a chance to pick the renders up.
  std::string json;
  uint64_t completed = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (completed < 2 && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(client.fetch_metrics(&json, &error)) << error;
    completed = doc_u64(json, "cluster", "frames_completed");
    if (completed < 2) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  client.send_bye(nullptr);

  EXPECT_EQ(completed, 2u);
  EXPECT_EQ(doc_u64(json, "router", "requests_routed"), 2u);
  EXPECT_EQ(doc_u64(json, "cluster", "shards"), 2u);
  EXPECT_EQ(doc_u64(json, "cluster", "shards_in_ring"), 2u);
  EXPECT_NE(json.find("\"shard-0\""), std::string::npos);
  EXPECT_NE(json.find("\"shard-1\""), std::string::npos);
  // Each shard's own document is embedded verbatim.
  EXPECT_NE(json.find("\"volume_cache\""), std::string::npos);
  EXPECT_GE(router.metrics().metrics_served.load(), 1u);
}

TEST(ClusterRouter, HelloVersionMismatchGetsTypedErrorThenClose) {
  MiniCluster cluster(1);
  ASSERT_TRUE(cluster.healthy(1));

  std::string error;
  net::UniqueFd fd =
      net::tcp_connect("127.0.0.1", cluster.router().port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  net::HelloMsg hello;
  hello.version = 99;
  hello.name = "from-the-future";
  std::vector<uint8_t> payload, wire;
  hello.encode(&payload);
  net::encode_message(net::MsgType::kHello, payload.data(), payload.size(), &wire);
  ASSERT_GT(::send(fd.get(), wire.data(), wire.size(), 0), 0);

  // Typed kError, then EOF — never a HelloAck in a protocol the peer
  // cannot parse.
  std::vector<uint8_t> in(4096);
  size_t have = 0;
  bool got_eof = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!got_eof && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd.get(), in.data() + have, in.size() - have, 0);
    if (n == 0) got_eof = true;
    if (n > 0) have += static_cast<size_t>(n);
  }
  ASSERT_TRUE(got_eof);
  net::WireView msg;
  size_t consumed = 0;
  ASSERT_EQ(net::decode_message(in.data(), have, &msg, &consumed),
            net::WireStatus::kOk);
  EXPECT_EQ(msg.type, net::MsgType::kError);
  net::ErrorMsg err;
  ASSERT_TRUE(net::ErrorMsg::decode(msg.payload, &err));
  EXPECT_NE(err.message.find("unsupported protocol version"), std::string::npos)
      << err.message;
  EXPECT_GE(cluster.router().metrics().hello_rejects.load(), 1u);
}

// The acceptance fault-injection scenario: kill the shard a stream is
// pinned to, mid-stream. The client must get a typed kUnavailable error
// (not a hang or a crash), the router must eject the shard and rebuild the
// ring, and the session's next request must re-place on the survivor and
// count as a re-route.
TEST(ClusterRouter, ShardLossMidStreamYieldsTypedErrorAndReroutes) {
  MiniCluster cluster(2);
  ASSERT_TRUE(cluster.healthy(2));
  Router& router = cluster.router();

  const size_t owner = 0;
  const size_t survivor = 1;
  const serve::VolumeKey key = key_owned_by(owner, 2);

  net::NetClientOptions copt;
  copt.recv_timeout_ms = 15'000.0;
  net::NetClient client(copt);
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;

  net::StreamRequestMsg req;
  req.stream_id = 21;
  req.session_id = 9;
  req.volume = key;
  req.frames = 400;  // far more than can finish before the kill
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  // Confirm the stream is flowing, then pull the shard out from under it.
  for (int i = 0; i < 2; ++i) {
    net::NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    ASSERT_EQ(event.kind, net::NetClient::Event::Kind::kFrame);
  }
  cluster.server(owner).stop();

  // In-flight frames may still drain; the next non-frame event must be the
  // typed loss error, and it must arrive well before the recv timeout.
  bool got_error = false;
  net::ErrorMsg err;
  for (int i = 0; i < 1000 && !got_error; ++i) {
    net::NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    if (event.kind == net::NetClient::Event::Kind::kError) {
      err = event.error;
      got_error = true;
    }
  }
  ASSERT_TRUE(got_error);
  EXPECT_EQ(err.status,
            static_cast<uint16_t>(serve::ServeStatus::kUnavailable));
  EXPECT_EQ(err.request_id, req.stream_id);
  EXPECT_NE(err.message.find("lost"), std::string::npos) << err.message;

  // Data-path loss ejects immediately; the ring rebuilds around the hole.
  ASSERT_TRUE(wait_state(router, owner, ShardState::kEjected, 5'000.0));
  EXPECT_GE(router.metrics().shards[owner]->ejections.load(), 1u);

  // Same session, same volume: the broken pin re-places on the survivor.
  net::RenderRequestMsg rreq;
  rreq.request_id = 100;
  rreq.session_id = req.session_id;
  rreq.volume = key;
  rreq.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.5, 0.3);
  ImageU8 image;
  net::FrameMsg meta;
  ASSERT_TRUE(client.render(rreq, &image, &meta, &error)) << error;
  EXPECT_GT(image.pixel_count(), 0u);
  EXPECT_GE(router.metrics().reroutes.load(), 1u);
  EXPECT_GE(router.metrics().shards[survivor]->routed_requests.load(), 1u);
  client.send_bye(nullptr);
}

TEST(ClusterRouter, NoHealthyShardGivesTypedUnavailable) {
  // Reserve a port nobody listens on: the router's only shard is dead on
  // arrival, so the ring never has a member.
  std::string error;
  net::UniqueFd placeholder = net::tcp_listen("127.0.0.1", 0, 1, &error);
  ASSERT_TRUE(placeholder.valid()) << error;
  const uint16_t dead_port = net::local_port(placeholder.get());
  placeholder.reset();

  RouterOptions ropt;
  ropt.probe_interval_ms = 50.0;
  Router router({{"shard-0", "127.0.0.1", dead_port, 1}}, ropt);
  ASSERT_TRUE(router.start(&error)) << error;

  // The south face still welcomes clients; placement is what fails, with
  // a typed kUnavailable naming the condition.
  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;
  net::RenderRequestMsg req;
  req.request_id = 1;
  req.session_id = 1;
  req.volume = key_owned_by(0, 1);
  req.camera = Camera::orbit({req.volume.nx, req.volume.ny, req.volume.nz},
                             0.2, 0.3);
  ImageU8 image;
  net::FrameMsg meta;
  EXPECT_FALSE(client.render(req, &image, &meta, &error));
  EXPECT_NE(error.find("no healthy shard"), std::string::npos) << error;
  EXPECT_GE(router.metrics().unavailable_rejections.load(), 1u);
  router.stop();
}

// --- tracing across the router hop ----------------------------------------

TEST(ClusterTrace, SampledRequestYieldsOneTreeSpanningRouterAndShard) {
  MiniCluster cluster(2, /*traced=*/true);
  ASSERT_TRUE(cluster.healthy(2));

  serve::VolumeKey key;
  key.kind = "mri";
  key.nx = key.ny = key.nz = 36;

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error))
      << error;

  const auto request_for = [&key](uint64_t id) {
    net::RenderRequestMsg req;
    req.request_id = id;
    req.session_id = 5;
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.5, 0.3);
    return req;
  };

  // Untraced first: nothing recorded anywhere on the unsampled path.
  net::RenderRequestMsg plain = request_for(1);
  ImageU8 plain_img;
  net::FrameMsg plain_meta;
  ASSERT_TRUE(client.render(plain, &plain_img, &plain_meta, &error)) << error;
  EXPECT_EQ(cluster.router_recorder().recorded(), 0u);
  EXPECT_EQ(cluster.shard_recorder(0).recorded(), 0u);
  EXPECT_EQ(cluster.shard_recorder(1).recorded(), 0u);

  // Same camera, sampled: pixels must not change, spans must appear.
  uint64_t root = 0;
  net::RenderRequestMsg traced = request_for(2);
  traced.trace = obs::make_sampled_trace(&root);
  ImageU8 traced_img;
  net::FrameMsg traced_meta;
  WallTimer rtt;
  ASSERT_TRUE(client.render(traced, &traced_img, &traced_meta, &error)) << error;
  const double rtt_ms = rtt.millis();
  EXPECT_EQ(pixel_hash(plain_img), pixel_hash(traced_img));
  ASSERT_TRUE(traced_meta.trace.sampled());

  // The shard-side kSend span lands on the shard's poll thread right after
  // the frame drains; the router's proxy span on frame receipt.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<obs::SpanRecord> all = cluster.router_recorder().snapshot();
  for (size_t i = 0; i < 2; ++i) {
    const std::vector<obs::SpanRecord> s = cluster.shard_recorder(i).snapshot();
    all.insert(all.end(), s.begin(), s.end());
  }
  const std::vector<obs::TraceTree> trees = obs::assemble_traces(std::move(all));
  ASSERT_EQ(trees.size(), 1u);
  const obs::TraceTree& t = trees[0];
  EXPECT_EQ(t.trace_hi, traced.trace.trace_hi);
  EXPECT_EQ(t.trace_lo, traced.trace.trace_lo);

  // Parentage across the hop: the router's proxy span and the shard's
  // request span are siblings under the client root (the router forwards
  // the payload verbatim, it cannot rewrite the parent id inside it).
  const obs::SpanRecord* proxy = nullptr;
  const obs::SpanRecord* request = nullptr;
  for (const obs::SpanRecord& s : t.spans) {
    if (s.kind == obs::SpanKind::kRouterProxy) proxy = &s;
    if (s.kind == obs::SpanKind::kRequest) request = &s;
  }
  ASSERT_NE(proxy, nullptr);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(proxy->parent_id, root);
  EXPECT_EQ(request->parent_id, root);
  for (const obs::SpanRecord& s : t.spans) {
    if (s.kind == obs::SpanKind::kRouterProxy ||
        s.kind == obs::SpanKind::kRequest) {
      continue;
    }
    EXPECT_EQ(s.parent_id, request->span_id) << obs::to_string(s.kind);
  }

  // Phase coverage: the tree must contain the stages named in the issue's
  // acceptance criterion (cache build appears because request 2 re-renders
  // a cached volume — the *first* request built it, untraced).
  EXPECT_TRUE(t.has_kind(obs::SpanKind::kQueueWait));
  EXPECT_TRUE(t.has_kind(obs::SpanKind::kComposite));
  EXPECT_TRUE(t.has_kind(obs::SpanKind::kWarp));
  EXPECT_TRUE(t.has_kind(obs::SpanKind::kFrameEncode));
  EXPECT_TRUE(t.has_kind(obs::SpanKind::kSend));

  // Duration consistency: stage spans nest inside the request span, the
  // request span inside the proxy span (same steady clock, one process),
  // and everything inside the measured round-trip.
  EXPECT_LE(t.kind_ms(obs::SpanKind::kQueueWait) +
                t.kind_ms(obs::SpanKind::kComposite) +
                t.kind_ms(obs::SpanKind::kWarp),
            request->duration_ms() + 0.5);
  EXPECT_GE(proxy->duration_ms() + 0.5, request->duration_ms());
  EXPECT_LE(proxy->duration_ms(), rtt_ms + 0.5);

  // A traced cache MISS records the build stages too.
  serve::VolumeKey cold = key;
  cold.seed = 77;
  net::RenderRequestMsg miss = request_for(3);
  miss.volume = cold;
  miss.trace = obs::make_sampled_trace();
  ImageU8 miss_img;
  net::FrameMsg miss_meta;
  ASSERT_TRUE(client.render(miss, &miss_img, &miss_meta, &error)) << error;
  bool saw_build = false, saw_classify = false, saw_encode = false;
  for (const obs::SpanRecord& s : miss_meta.spans) {
    saw_build |= s.kind == obs::SpanKind::kCacheBuild;
    saw_classify |= s.kind == obs::SpanKind::kClassify;
    saw_encode |= s.kind == obs::SpanKind::kEncodeVolume;
  }
  EXPECT_TRUE(saw_build);
  EXPECT_TRUE(saw_classify);
  EXPECT_TRUE(saw_encode);
  client.send_bye(nullptr);
}

TEST(ClusterTrace, SelectorFetchesPrometheusAndTraceDumpThroughRouter) {
  MiniCluster cluster(2, /*traced=*/true);
  ASSERT_TRUE(cluster.healthy(2));

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error))
      << error;

  net::RenderRequestMsg req;
  req.request_id = 1;
  req.session_id = 2;
  req.volume.kind = "mri";
  req.volume.nx = req.volume.ny = req.volume.nz = 36;
  req.camera = Camera::orbit({36, 36, 36}, 0.2, 0.3);
  req.trace = obs::make_sampled_trace();
  ImageU8 image;
  net::FrameMsg meta;
  ASSERT_TRUE(client.render(req, &image, &meta, &error)) << error;

  // Selector 0 (empty payload) keeps the legacy JSON document.
  std::string json;
  ASSERT_TRUE(client.fetch_metrics(&json, &error)) << error;
  EXPECT_EQ(json.front(), '{');

  // Selector 1: Prometheus exposition with router counters.
  std::string prom;
  ASSERT_TRUE(
      client.fetch_metrics(&prom, &error, net::kMetricsSelectorPrometheus))
      << error;
  EXPECT_NE(prom.find("# TYPE psw_router_requests_routed_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("psw_router_requests_routed_total 1"), std::string::npos);

  // Selector 2: the router's span dump, with the proxy span of our trace.
  std::string dump;
  ASSERT_TRUE(client.fetch_metrics(&dump, &error, net::kMetricsSelectorTrace))
      << error;
  EXPECT_NE(dump.find("\"node\": \"router\""), std::string::npos);
  EXPECT_NE(dump.find(obs::trace_id_hex(req.trace)), std::string::npos);
  EXPECT_NE(dump.find("router-proxy"), std::string::npos);

  // An unknown selector degrades to the JSON document, never an error.
  std::string fallback;
  ASSERT_TRUE(client.fetch_metrics(&fallback, &error, 250)) << error;
  EXPECT_EQ(fallback.front(), '{');
  client.send_bye(nullptr);
}

TEST(ClusterTrace, UnavailableErrorCarriesTheTraceId) {
  // Router with one dead-on-arrival shard: a traced request fails with a
  // typed kUnavailable that must carry the request's trace context so the
  // client-side error can be correlated with server-side dumps.
  std::string error;
  net::UniqueFd placeholder = net::tcp_listen("127.0.0.1", 0, 1, &error);
  ASSERT_TRUE(placeholder.valid()) << error;
  const uint16_t dead_port = net::local_port(placeholder.get());
  placeholder.reset();

  RouterOptions ropt;
  ropt.probe_interval_ms = 50.0;
  Router router({{"shard-0", "127.0.0.1", dead_port, 1}}, ropt);
  ASSERT_TRUE(router.start(&error)) << error;

  // Drive a stream request so next_event() surfaces the raw ErrorMsg (with
  // its trace block) instead of render() flattening it into a string.
  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;
  net::StreamRequestMsg req;
  req.stream_id = 4;
  req.session_id = 1;
  req.volume = key_owned_by(0, 1);
  req.frames = 8;
  req.trace = obs::make_sampled_trace();
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  net::NetClient::Event event;
  ASSERT_TRUE(client.next_event(&event, &error)) << error;
  ASSERT_EQ(event.kind, net::NetClient::Event::Kind::kError);
  EXPECT_EQ(event.error.status,
            static_cast<uint16_t>(serve::ServeStatus::kUnavailable));
  ASSERT_TRUE(event.error.trace.sampled());
  EXPECT_EQ(event.error.trace.trace_hi, req.trace.trace_hi);
  EXPECT_EQ(event.error.trace.trace_lo, req.trace.trace_lo);
  router.stop();
}

// --- router failure paths and the shared transport ------------------------

// A client speaking PSWN by hand over a blocking socket, for byte-level
// control: split writes, garbage, and resets.
class RawPeer {
 public:
  explicit RawPeer(uint16_t port) {
    std::string error;
    fd_ = net::tcp_connect("127.0.0.1", port, &error);
    EXPECT_TRUE(fd_.valid()) << error;
    net::set_recv_timeout_ms(fd_.get(), 10'000.0);
  }

  template <typename Msg>
  static std::vector<uint8_t> frame(net::MsgType type, const Msg& msg) {
    std::vector<uint8_t> payload, wire;
    msg.encode(&payload);
    net::encode_message(type, payload.data(), payload.size(), &wire);
    return wire;
  }

  // One send() per `chunk` bytes (1 = a byte per segment with TCP_NODELAY).
  void send(const std::vector<uint8_t>& bytes, size_t chunk) {
    for (size_t off = 0; off < bytes.size(); off += chunk) {
      const size_t n = std::min(chunk, bytes.size() - off);
      ASSERT_EQ(::send(fd_.get(), bytes.data() + off, n, MSG_NOSIGNAL),
                static_cast<ssize_t>(n));
    }
  }

  // Blocks for the next whole message; the view lives until the next call.
  bool read(net::WireView* msg) {
    in_.erase(in_.begin(), in_.begin() + static_cast<long>(used_));
    used_ = 0;
    for (;;) {
      const net::WireStatus status =
          net::decode_message(in_.data(), in_.size(), msg, &used_);
      if (status != net::WireStatus::kNeedMore) return status == net::WireStatus::kOk;
      uint8_t chunk[16384];
      const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      in_.insert(in_.end(), chunk, chunk + n);
    }
  }

  void hello() {
    net::HelloMsg hello;
    hello.name = "raw-peer";
    send(frame(net::MsgType::kHello, hello), 1 << 20);
    net::WireView ack;
    ASSERT_TRUE(read(&ack));
    ASSERT_EQ(ack.type, net::MsgType::kHelloAck);
  }

  // Closes with SO_LINGER 0: the peer sees a reset, not an orderly EOF.
  void reset() {
    const linger hard{1, 0};
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    fd_.reset();
  }

  int fd() const { return fd_.get(); }

 private:
  net::UniqueFd fd_;
  std::vector<uint8_t> in_;
  size_t used_ = 0;
};

template <typename Pred>
bool wait_for(Pred pred, double timeout_ms = 10'000.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(static_cast<int64_t>(timeout_ms));
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// Pixel hash of `camera` rendered directly, as MiniCluster's shards render.
uint64_t direct_hash(const serve::VolumeKey& key, const Camera& camera) {
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  const DensityVolume density =
      key.seed ? make_mri_brain(key.nx, key.ny, key.nz, key.seed)
               : make_mri_brain(key.nx, key.ny, key.nz);
  const EncodedVolume volume = EncodedVolume::build(
      classify(density, TransferFunction::mri_preset(), key.classify),
      key.classify.alpha_threshold);
  NewParallelRenderer renderer(sopt.parallel);
  ThreadedExecutor exec(sopt.worker_threads);
  ImageU8 image;
  renderer.render(volume, camera, exec, &image);
  return pixel_hash(image);
}

TEST(ClusterRouter, GarbageBytesGetTypedErrorThenClose) {
  MiniCluster cluster(1);
  ASSERT_TRUE(cluster.healthy(1));
  RawPeer peer(cluster.router().port());
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  peer.send(std::vector<uint8_t>(garbage.begin(), garbage.end()), 1 << 20);

  net::WireView msg;
  ASSERT_TRUE(peer.read(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kError);
  net::ErrorMsg err;
  ASSERT_TRUE(net::ErrorMsg::decode(msg.payload, &err));
  EXPECT_NE(err.message.find("wire error"), std::string::npos) << err.message;
  EXPECT_FALSE(peer.read(&msg));  // then EOF
  EXPECT_GE(cluster.router().metrics().protocol_errors.load(), 1u);
}

TEST(ClusterRouter, IdleClientsAreHarvested) {
  RouterOptions ropt;
  ropt.idle_timeout_ms = 250.0;  // long enough for a sanitizer-slowed handshake
  MiniCluster cluster(1, /*traced=*/false, ropt);
  ASSERT_TRUE(cluster.healthy(1));
  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error)) << error;
  const RouterMetrics& m = cluster.router().metrics();
  ASSERT_TRUE(wait_for([&] { return m.clients_closed.load() == 1; }));
  EXPECT_EQ(m.clients_accepted.load(), 1u);
  std::string json;
  EXPECT_FALSE(client.fetch_metrics(&json, &error));  // the router hung up
}

// A client that never reads makes the router buffer forwarded frames; past
// max_send_buffer_bytes the router cuts it (forwarded delta frames cannot
// be dropped) and counts the cut as a protocol error.
TEST(ClusterRouter, SlowReaderIsCutAtTheSendBufferBound) {
  RouterOptions ropt;
  ropt.max_send_buffer_bytes = 16 * 1024;
  MiniCluster cluster(1, /*traced=*/false, ropt);
  ASSERT_TRUE(cluster.healthy(1));
  RawPeer peer(cluster.router().port());
  const int tiny = 4 * 1024;
  ::setsockopt(peer.fd(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  peer.hello();
  net::StreamRequestMsg req;
  req.stream_id = 1;
  req.session_id = 1;
  req.volume = key_owned_by(0, 1);
  req.frames = 2000;
  peer.send(RawPeer::frame(net::MsgType::kStreamRequest, req), 1 << 20);

  const RouterMetrics& m = cluster.router().metrics();
  ASSERT_TRUE(wait_for([&] { return m.clients_closed.load() == 1; }, 30'000.0));
  EXPECT_GE(m.protocol_errors.load(), 1u);
  EXPECT_GT(m.frames_forwarded.load(), 0u);
}

// Framing survives arbitrary segmentation: a hello and a render request
// sent one byte per send() still yield a frame bit-identical to a direct
// render.
TEST(ClusterRouter, RequestSentOneBytePerSendIsBitIdentical) {
  MiniCluster cluster(1);
  ASSERT_TRUE(cluster.healthy(1));
  RawPeer peer(cluster.router().port());
  net::HelloMsg hello;
  hello.name = "byte-at-a-time";
  peer.send(RawPeer::frame(net::MsgType::kHello, hello), 1);
  net::WireView msg;
  ASSERT_TRUE(peer.read(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kHelloAck);

  net::RenderRequestMsg req;
  req.request_id = 7;
  req.session_id = 3;
  req.volume = key_owned_by(0, 1);
  req.camera = Camera::orbit({req.volume.nx, req.volume.ny, req.volume.nz}, 0.6, 0.3);
  peer.send(RawPeer::frame(net::MsgType::kRenderRequest, req), 1);
  ASSERT_TRUE(peer.read(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kFrame);
  net::FrameMsg frame;
  ASSERT_TRUE(net::FrameMsg::decode(msg.payload, &frame));
  EXPECT_EQ(frame.request_id, req.request_id);
  net::FrameDecoder decoder;
  ImageU8 image;
  ASSERT_EQ(decoder.decode(frame.encoded, &image), net::CodecStatus::kOk);
  EXPECT_EQ(pixel_hash(image), direct_hash(req.volume, req.camera));
  EXPECT_EQ(cluster.router().metrics().protocol_errors.load(), 0u);
}

// Proxied frames are forwarded through the router's send pool: once warm,
// a long stream allocates no new payload buffers, and every frame stays
// bit-identical to a direct render.
TEST(ClusterRouter, WarmRouterForwardsStreamWithoutPoolMisses) {
  MiniCluster cluster(1);
  ASSERT_TRUE(cluster.healthy(1));
  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error)) << error;
  net::StreamRequestMsg req;
  req.stream_id = 5;
  req.session_id = 5;
  req.volume = key_owned_by(0, 1);
  req.start_yaw = 0.1;
  req.step_deg = 4.0;
  req.frames = 90;
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  constexpr uint32_t kWindow = 10;  // frames that warm the pool
  uint64_t warm_misses = 0;
  std::vector<std::pair<uint32_t, uint64_t>> received;  // (seq, hash)
  for (;;) {
    net::NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    ASSERT_NE(event.kind, net::NetClient::Event::Kind::kError);
    if (event.kind == net::NetClient::Event::Kind::kStreamEnd) break;
    received.emplace_back(event.frame.seq, pixel_hash(event.image));
    if (received.size() == kWindow) warm_misses = cluster.router().pool_stats().misses;
  }
  ASSERT_EQ(received.size(), static_cast<size_t>(req.frames));
  EXPECT_EQ(cluster.router().pool_stats().misses, warm_misses);
  EXPECT_EQ(cluster.router().metrics().frames_forwarded.load(), req.frames);

  const std::array<int, 3> dims{req.volume.nx, req.volume.ny, req.volume.nz};
  for (const auto& [seq, hash] : received) {
    const Camera camera =
        Camera::orbit(dims, req.start_yaw + seq * req.step_deg * kDeg, req.pitch);
    EXPECT_EQ(hash, direct_hash(req.volume, camera)) << "seq " << seq;
  }
  client.send_bye(nullptr);
}

// The router copies each relayed payload exactly once: after a warm-up
// stream and a measured one, payload_copy_bytes equals the summed payload
// sizes of every message relayed in either direction (the stream requests
// up, the frames and stream ends down).
TEST(ClusterRouter, RouterCopiesEachRelayedPayloadOnce) {
  MiniCluster cluster(1);
  ASSERT_TRUE(cluster.healthy(1));
  RawPeer peer(cluster.router().port());
  peer.hello();
  uint64_t relayed = 0;
  for (uint64_t stream = 1; stream <= 2; ++stream) {
    net::StreamRequestMsg req;
    req.stream_id = stream;
    req.session_id = 1;
    req.volume = key_owned_by(0, 1);
    req.frames = stream == 1 ? 5 : 30;
    const std::vector<uint8_t> wire = RawPeer::frame(net::MsgType::kStreamRequest, req);
    relayed += wire.size() - net::kHeaderSize;
    peer.send(wire, 1 << 20);
    net::WireView msg;
    do {
      ASSERT_TRUE(peer.read(&msg));
      ASSERT_TRUE(msg.type == net::MsgType::kFrame || msg.type == net::MsgType::kStreamEnd);
      relayed += msg.payload.size();
    } while (msg.type != net::MsgType::kStreamEnd);
  }
  EXPECT_EQ(cluster.router().metrics().frames_forwarded.load(), 35u);
  EXPECT_EQ(cluster.router().metrics().payload_copy_bytes.load(), relayed);
}

size_t open_fds() {
  const std::filesystem::directory_iterator fds("/proc/self/fd");
  return static_cast<size_t>(std::distance(begin(fds), end(fds)));
}

// Peers that vanish with a TCP reset — mid request frame and mid stream —
// against netserve directly and through the router. Afterwards every send
// pool is balanced with nothing outstanding, every accepted connection was
// closed, and no file descriptor leaked.
TEST(ClusterConservation, PeerResetsLeavePoolsConnectionsAndFdsBalanced) {
  const size_t fds_before = open_fds();
  {
    MiniCluster cluster(1);
    ASSERT_TRUE(cluster.healthy(1));
    net::NetServer& server = cluster.server(0);
    Router& router = cluster.router();
    const serve::VolumeKey key = key_owned_by(0, 1);

    for (const uint16_t port : {server.port(), router.port()}) {
      net::RenderRequestMsg render;
      render.request_id = 1;
      render.volume = key;
      render.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.2, 0.3);
      const std::vector<uint8_t> request =
          RawPeer::frame(net::MsgType::kRenderRequest, render);
      RawPeer mid_frame(port);
      mid_frame.hello();
      mid_frame.send({request.begin(), request.begin() + request.size() / 2}, 1 << 20);
      mid_frame.reset();

      net::StreamRequestMsg stream;
      stream.stream_id = 2;
      stream.volume = key;
      stream.frames = 400;
      RawPeer mid_stream(port);
      mid_stream.hello();
      mid_stream.send(RawPeer::frame(net::MsgType::kStreamRequest, stream), 1 << 20);
      net::WireView first;
      ASSERT_TRUE(mid_stream.read(&first));
      EXPECT_EQ(first.type, net::MsgType::kFrame);
      mid_stream.reset();
    }

    const RouterMetrics& rm = router.metrics();
    EXPECT_TRUE(wait_for([&] {
      return rm.clients_accepted.load() == 2 && rm.clients_closed.load() == 2;
    }));
    // The router's own shard connections close with it; then the shard has
    // closed everything it accepted.
    router.stop();
    const net::NetMetrics& sm = server.metrics();
    EXPECT_TRUE(wait_for([&] {
      return sm.connections_closed.load() == sm.connections_accepted.load();
    }));
    server.stop();
    cluster.service(0).drain();
    const std::pair<const char*, PoolStats> pools[] = {
        {"server send", server.pool_stats()},
        {"router send", router.pool_stats()},
        {"frame", cluster.service(0).frame_pool_stats()}};
    for (const auto& [name, pool] : pools) {
      EXPECT_TRUE(pool.conserves()) << name << " acquires " << pool.acquires
                                    << " releases " << pool.releases;
      EXPECT_EQ(pool.outstanding, 0u) << name;
    }
    EXPECT_EQ(sm.connections_closed.load(), sm.connections_accepted.load());
  }
  EXPECT_EQ(open_fds(), fds_before);
}

}  // namespace
}  // namespace psw::cluster
