// Memory-behaviour bench for the serving path: counts heap allocations and
// redundantly-copied bytes per frame rather than milliseconds, because the
// zero-copy serving work is invisible to a latency quantile until the
// allocator is contended. Three sections:
//
//   delivery         the tentpole path, compositor output -> wire bytes:
//                    pooled payload acquire, FrameMsg::encode_meta, the
//                    codec's encode_append straight into the payload, blob
//                    length patch, 16-byte header stamp (the writev pair).
//                    Steady state this must cost <= --gate (default 2)
//                    allocations per frame and copy zero already-encoded
//                    bytes; the bench exits 1 otherwise, and scripts/ci.sh
//                    runs it as a smoke gate.
//
//   traced_delivery  the same path with a sampled trace on every frame:
//                    span records into a SpanRecorder plus the wall-
//                    anchored trace tail appended to the payload. This is
//                    the worst case (100% sampling); the delta against
//                    `delivery` is the whole observability overhead, and
//                    it is reported, not gated — sampling off must stay at
//                    the `delivery` figure, which IS gated.
//
//   legacy_delivery  the pre-pool shape for contrast: a fresh blob vector
//                    per frame, FrameMsg::encode into a fresh payload
//                    (copying the blob), encode_message into a fresh flat
//                    send buffer (copying the payload). Same encoder class,
//                    same frames — the delta is the buffering strategy.
//
//   end_to_end       one warm RenderService frame loop through the
//                    callback (submit_async) path NetServer uses, so the
//                    report also shows what a whole served frame costs —
//                    render scratch included. Gated with --gate-e2e=N
//                    (0 disables): render-path alloc regressions then fail
//                    CI just like delivery-path ones.
//
//   ./bench/memserve [--frames=96] [--warmup=16] [--inputs=8] [--size=64]
//                    [--threads=4] [--step=2.0] [--gate=2] [--gate-e2e=0]
//                    [--json=BENCH_memserve.json]
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/frame_codec.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "parallel/animation.hpp"
#include "serve/service.hpp"
#include "tools/alloc_probe.hpp"
#include "util/buffer_pool.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace psw;
using namespace psw::serve;

// Codec blob header (u16 w, u16 h, u8 codec, u8 reserved) — sizing term for
// the raw-fallback worst case, mirroring NetServer's payload hint.
constexpr size_t kCodecHeader = 6;

struct SectionResult {
  double allocs_per_frame = 0.0;
  double alloc_bytes_per_frame = 0.0;
  double copied_bytes_per_frame = 0.0;  // already-encoded bytes re-copied
  double wire_bytes_per_frame = 0.0;
  double ms_per_frame = 0.0;
  uint64_t frames = 0;
};

RenderRequest request_for_frame(int frame, int size, double step) {
  VolumeKey key;
  key.kind = "mri";
  key.tf_preset = 0;
  key.nx = key.ny = key.nz = size;
  AnimationPath path;
  path.dims = {key.nx, key.ny, key.nz};
  path.degrees_per_frame = step;
  RenderRequest req;
  req.session_id = 1;
  req.volume = key;
  req.camera = path.camera(frame);
  return req;
}

void write_section(JsonWriter& w, const SectionResult& r) {
  w.begin_object()
      .field("frames", r.frames)
      .field("allocs_per_frame", r.allocs_per_frame)
      .field("alloc_bytes_per_frame", r.alloc_bytes_per_frame)
      .field("bytes_copied_per_frame", r.copied_bytes_per_frame)
      .field("wire_bytes_per_frame", r.wire_bytes_per_frame)
      .field("ms_per_frame", r.ms_per_frame)
      .end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  flags.require_known({"frames", "warmup", "inputs", "size", "threads", "step",
                       "gate", "gate-e2e", "json"});
  const int frames = flags.get_int("frames", 96);
  const int warmup = flags.get_int("warmup", 16);
  const int inputs = flags.get_int("inputs", 8);
  const int size = flags.get_int("size", 64);
  const double step = flags.get_double("step", 2.0);
  const double gate = flags.get_double("gate", 2.0);
  const double gate_e2e = flags.get_double("gate-e2e", 0.0);
  const std::string json_path = flags.get("json", "BENCH_memserve.json");

  ServiceOptions sopt;
  sopt.worker_threads = flags.get_int("threads", 4);
  RenderService service(sopt);

  // Render the input set once: `inputs` consecutive orbit frames, so the
  // delta codec sees realistic frame-to-frame change when we cycle them.
  std::vector<ImageU8> rendered;
  for (int f = 0; f < inputs; ++f) {
    Ticket t = service.submit(request_for_frame(f, size, step));
    if (!t.accepted()) {
      std::fprintf(stderr, "memserve: frame %d not admitted\n", f);
      return 1;
    }
    FrameResult r = t.result.get();
    if (r.status != ServeStatus::kOk) {
      std::fprintf(stderr, "memserve: frame %d failed\n", f);
      return 1;
    }
    rendered.push_back(std::move(r.image));
  }
  const size_t raw_bytes = rendered[0].pixel_count() * 4;
  std::printf("memserve: %d input frames, %zux%zu px (%zu raw bytes), "
              "%d warmup + %d measured iterations\n",
              inputs, static_cast<size_t>(rendered[0].width()),
              static_cast<size_t>(rendered[0].height()), raw_bytes, warmup,
              frames);

  // --- delivery: the zero-copy path, exactly NetServer::send_frame's moves
  SectionResult delivery;
  {
    net::FrameEncoder encoder;
    BufferPool pool;
    uint64_t wire_bytes = 0;
    uint8_t sink = 0;  // keep the stamped headers observable
    auto deliver_one = [&](const ImageU8& img, uint32_t seq) {
      net::FrameMsg msg;
      msg.stream_id = 1;
      msg.seq = seq;
      msg.render_ms = 1.0;
      msg.total_ms = 2.0;
      msg.cache_hit = 1;
      PooledBuffer payload = pool.acquire(net::FrameMsg::kMetaSize + 4 +
                                          kCodecHeader + img.pixel_count() * 4);
      msg.encode_meta(&payload.vec());
      const size_t blob_len_at = payload.vec().size();
      net::put_u32(&payload.vec(), 0);
      encoder.encode_append(img, &payload.vec());
      net::put_u32_at(&payload.vec(), blob_len_at,
                      static_cast<uint32_t>(payload.vec().size() - blob_len_at - 4));
      uint8_t header[net::kHeaderSize];
      net::encode_header(net::MsgType::kFrame, payload.vec().data(),
                         payload.vec().size(), header);
      sink ^= header[12];
      wire_bytes += net::kHeaderSize + payload.vec().size();
      // payload handle destructs here -> storage returns to the pool (the
      // real server first parks it in the send queue for writev)
    };
    uint32_t seq = 0;
    for (int f = 0; f < warmup; ++f)
      deliver_one(rendered[static_cast<size_t>(f % inputs)], seq++);
    wire_bytes = 0;
    const tools::AllocSnapshot before = tools::alloc_snapshot();
    WallTimer timer;
    for (int f = 0; f < frames; ++f)
      deliver_one(rendered[static_cast<size_t>(f % inputs)], seq++);
    const double ms = timer.millis();
    const tools::AllocSnapshot d = tools::alloc_delta(before);
    delivery.frames = static_cast<uint64_t>(frames);
    delivery.allocs_per_frame = static_cast<double>(d.allocations) / frames;
    delivery.alloc_bytes_per_frame = static_cast<double>(d.bytes) / frames;
    delivery.copied_bytes_per_frame = 0.0;  // nothing encoded is re-copied
    delivery.wire_bytes_per_frame = static_cast<double>(wire_bytes) / frames;
    delivery.ms_per_frame = ms / frames;
    if (sink == 0x7F) std::printf(" ");  // defeat dead-code elimination
  }

  // --- traced_delivery: same path, 100%-sampled — recorder writes + tail
  SectionResult traced;
  {
    net::FrameEncoder encoder;
    BufferPool pool;
    obs::SpanRecorder recorder;
    uint64_t wire_bytes = 0;
    uint8_t sink = 0;
    auto deliver_one = [&](const ImageU8& img, uint32_t seq) {
      net::FrameMsg msg;
      msg.stream_id = 1;
      msg.seq = seq;
      msg.render_ms = 1.0;
      msg.total_ms = 2.0;
      msg.cache_hit = 1;
      uint64_t root = 0;
      msg.trace = obs::make_sampled_trace(&root);
      // The stage spans a warm served frame carries: request + queue wait
      // + composite + warp, parented the way the service emits them.
      const int64_t now = steady_now_ns();
      obs::SpanRecord stage;
      stage.trace_hi = msg.trace.trace_hi;
      stage.trace_lo = msg.trace.trace_lo;
      stage.tag = seq;
      const obs::SpanKind kinds[] = {
          obs::SpanKind::kQueueWait, obs::SpanKind::kComposite,
          obs::SpanKind::kWarp, obs::SpanKind::kRequest};
      uint64_t request_span = 0;
      for (const obs::SpanKind k : kinds) {
        stage.kind = k;
        stage.span_id = obs::next_span_id();
        stage.parent_id = k == obs::SpanKind::kRequest ? root : request_span;
        if (k == obs::SpanKind::kRequest) request_span = stage.span_id;
        stage.t_start_ns = now - 1'000'000;
        stage.t_end_ns = now;
        recorder.record(msg.trace, stage);
        msg.spans.push_back(stage);
      }
      PooledBuffer payload = pool.acquire(
          net::FrameMsg::kMetaSize + 4 + kCodecHeader + img.pixel_count() * 4 +
          net::kTraceTailHeaderSize +
          (msg.spans.size() + 1) * net::kWireSpanSize);
      msg.encode_meta(&payload.vec());
      const size_t blob_len_at = payload.vec().size();
      net::put_u32(&payload.vec(), 0);
      encoder.encode_append(img, &payload.vec());
      net::put_u32_at(&payload.vec(), blob_len_at,
                      static_cast<uint32_t>(payload.vec().size() - blob_len_at - 4));
      obs::SpanRecord enc = stage;
      enc.kind = obs::SpanKind::kFrameEncode;
      enc.span_id = obs::next_span_id();
      enc.parent_id = request_span;
      recorder.record(msg.trace, enc);
      msg.spans.push_back(enc);
      for (obs::SpanRecord& s : msg.spans) {
        s.t_start_ns = steady_to_wall_ns(s.t_start_ns);
        s.t_end_ns = steady_to_wall_ns(s.t_end_ns);
      }
      msg.encode_trace_tail(&payload.vec());
      uint8_t header[net::kHeaderSize];
      net::encode_header(net::MsgType::kFrame, payload.vec().data(),
                         payload.vec().size(), header);
      sink ^= header[12];
      wire_bytes += net::kHeaderSize + payload.vec().size();
    };
    uint32_t seq = 0;
    for (int f = 0; f < warmup; ++f)
      deliver_one(rendered[static_cast<size_t>(f % inputs)], seq++);
    wire_bytes = 0;
    const tools::AllocSnapshot before = tools::alloc_snapshot();
    WallTimer timer;
    for (int f = 0; f < frames; ++f)
      deliver_one(rendered[static_cast<size_t>(f % inputs)], seq++);
    const double ms = timer.millis();
    const tools::AllocSnapshot d = tools::alloc_delta(before);
    traced.frames = static_cast<uint64_t>(frames);
    traced.allocs_per_frame = static_cast<double>(d.allocations) / frames;
    traced.alloc_bytes_per_frame = static_cast<double>(d.bytes) / frames;
    traced.copied_bytes_per_frame = 0.0;
    traced.wire_bytes_per_frame = static_cast<double>(wire_bytes) / frames;
    traced.ms_per_frame = ms / frames;
    if (sink == 0x7F) std::printf(" ");
  }

  // --- legacy_delivery: fresh vectors + flat-copy, the pre-pool shape
  SectionResult legacy;
  {
    net::FrameEncoder encoder;
    uint64_t wire_bytes = 0;
    uint64_t copied = 0;
    auto deliver_one = [&](const ImageU8& img, uint32_t seq) {
      net::FrameMsg msg;
      msg.stream_id = 1;
      msg.seq = seq;
      msg.render_ms = 1.0;
      msg.total_ms = 2.0;
      msg.cache_hit = 1;
      std::vector<uint8_t> blob;
      encoder.encode(img, &blob);
      msg.encoded = std::move(blob);
      std::vector<uint8_t> payload;
      msg.encode(&payload);  // copies the blob into the payload
      std::vector<uint8_t> out;
      net::encode_message(net::MsgType::kFrame, payload.data(), payload.size(),
                          &out);  // copies again
      copied += msg.encoded.size() + payload.size();
      wire_bytes += out.size();
    };
    uint32_t seq = 0;
    for (int f = 0; f < warmup; ++f)
      deliver_one(rendered[static_cast<size_t>(f % inputs)], seq++);
    wire_bytes = copied = 0;
    const tools::AllocSnapshot before = tools::alloc_snapshot();
    WallTimer timer;
    for (int f = 0; f < frames; ++f)
      deliver_one(rendered[static_cast<size_t>(f % inputs)], seq++);
    const double ms = timer.millis();
    const tools::AllocSnapshot d = tools::alloc_delta(before);
    legacy.frames = static_cast<uint64_t>(frames);
    legacy.allocs_per_frame = static_cast<double>(d.allocations) / frames;
    legacy.alloc_bytes_per_frame = static_cast<double>(d.bytes) / frames;
    legacy.copied_bytes_per_frame = static_cast<double>(copied) / frames;
    legacy.wire_bytes_per_frame = static_cast<double>(wire_bytes) / frames;
    legacy.ms_per_frame = ms / frames;
  }

  // --- end_to_end: whole served frames through the warm service, via the
  // callback path NetServer takes (no per-frame promise/future state).
  SectionResult e2e;
  {
    int base = inputs;
    // Completion rendezvous: the callback stores the result and flips the
    // futex-waitable flag. The submit_async lambda captures one pointer, so
    // it fits std::function's small-buffer storage — no allocation.
    struct Sink {
      std::atomic<int> done{0};
      ServeStatus status = ServeStatus::kError;
      ImageU8 image;
    } sink;
    auto serve_one = [&](int f) -> bool {
      sink.status = ServeStatus::kError;
      const ServeStatus admitted = service.submit_async(
          request_for_frame(f, size, step), [sp = &sink](FrameResult r) {
            sp->status = r.status;
            sp->image = std::move(r.image);
            sp->done.store(1, std::memory_order_release);
            sp->done.notify_one();
          });
      if (admitted != ServeStatus::kOk) return false;
      sink.done.wait(0, std::memory_order_acquire);
      // relaxed: the next submit_async's queue handoff orders this reset
      // before the scheduler's completion store.
      sink.done.store(0, std::memory_order_relaxed);
      if (sink.status != ServeStatus::kOk) return false;
      service.recycle_frame(std::move(sink.image));
      return true;
    };
    for (int f = 0; f < warmup; ++f) serve_one(base + f);
    base += warmup;
    const tools::AllocSnapshot before = tools::alloc_snapshot();
    WallTimer timer;
    uint64_t ok = 0;
    for (int f = 0; f < frames; ++f) ok += serve_one(base + f) ? 1 : 0;
    const double ms = timer.millis();
    const tools::AllocSnapshot d = tools::alloc_delta(before);
    e2e.frames = ok;
    if (ok > 0) {
      e2e.allocs_per_frame = static_cast<double>(d.allocations) / ok;
      e2e.alloc_bytes_per_frame = static_cast<double>(d.bytes) / ok;
      e2e.ms_per_frame = ms / ok;
    }
  }
  service.drain();

  std::printf("delivery:        %6.2f allocs/frame, %8.0f B allocated, "
              "%8.0f B copied, %8.0f B wire, %.3f ms\n",
              delivery.allocs_per_frame, delivery.alloc_bytes_per_frame,
              delivery.copied_bytes_per_frame, delivery.wire_bytes_per_frame,
              delivery.ms_per_frame);
  std::printf("traced_delivery: %6.2f allocs/frame, %8.0f B allocated, "
              "%8.0f B copied, %8.0f B wire, %.3f ms (100%% sampled)\n",
              traced.allocs_per_frame, traced.alloc_bytes_per_frame,
              traced.copied_bytes_per_frame, traced.wire_bytes_per_frame,
              traced.ms_per_frame);
  std::printf("legacy_delivery: %6.2f allocs/frame, %8.0f B allocated, "
              "%8.0f B copied, %8.0f B wire, %.3f ms\n",
              legacy.allocs_per_frame, legacy.alloc_bytes_per_frame,
              legacy.copied_bytes_per_frame, legacy.wire_bytes_per_frame,
              legacy.ms_per_frame);
  std::printf("end_to_end:      %6.2f allocs/frame, %8.0f B allocated "
              "(render scratch included), %.3f ms\n",
              e2e.allocs_per_frame, e2e.alloc_bytes_per_frame,
              e2e.ms_per_frame);

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("config").begin_object()
        .field("frames", frames)
        .field("warmup", warmup)
        .field("inputs", inputs)
        .field("volume_size", size)
        .field("threads", sopt.worker_threads)
        .field("raw_bytes_per_frame", raw_bytes)
        .field("gate_allocs_per_frame", gate)
        .field("gate_e2e_allocs_per_frame", gate_e2e)
        .end_object();
    w.key("delivery");
    write_section(w, delivery);
    w.key("traced_delivery");
    write_section(w, traced);
    w.key("legacy_delivery");
    write_section(w, legacy);
    w.key("end_to_end");
    write_section(w, e2e);
    w.end_object();
    std::string body = w.str();
    body += '\n';
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "memserve: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (delivery.allocs_per_frame > gate) {
    std::fprintf(stderr,
                 "memserve: FAIL — delivery path costs %.2f allocs/frame "
                 "(gate %.2f)\n",
                 delivery.allocs_per_frame, gate);
    return 1;
  }
  if (gate_e2e > 0.0 && e2e.allocs_per_frame > gate_e2e) {
    std::fprintf(stderr,
                 "memserve: FAIL — end-to-end render path costs %.2f "
                 "allocs/frame (gate %.2f)\n",
                 e2e.allocs_per_frame, gate_e2e);
    return 1;
  }
  std::printf("memserve: OK — delivery path %.2f allocs/frame (gate %.2f), "
              "end-to-end %.2f allocs/frame (gate %s)\n",
              delivery.allocs_per_frame, gate, e2e.allocs_per_frame,
              gate_e2e > 0.0 ? "on" : "off");
  return 0;
}
