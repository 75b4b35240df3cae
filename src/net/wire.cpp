#include "net/wire.hpp"

#include <cstring>

#include "util/crc32.hpp"

namespace psw::net {

bool valid_msg_type(uint16_t t) {
  return t >= static_cast<uint16_t>(MsgType::kHello) &&
         t <= static_cast<uint16_t>(MsgType::kBye);
}

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloAck: return "hello-ack";
    case MsgType::kRenderRequest: return "render-request";
    case MsgType::kFrame: return "frame";
    case MsgType::kStreamRequest: return "stream-request";
    case MsgType::kStreamEnd: return "stream-end";
    case MsgType::kMetricsRequest: return "metrics-request";
    case MsgType::kMetricsReply: return "metrics-reply";
    case MsgType::kError: return "error";
    case MsgType::kBye: return "bye";
  }
  return "?";
}

const char* to_string(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kNeedMore: return "need-more";
    case WireStatus::kBadMagic: return "bad-magic";
    case WireStatus::kBadVersion: return "bad-version";
    case WireStatus::kBadType: return "bad-type";
    case WireStatus::kOversized: return "oversized";
    case WireStatus::kBadCrc: return "bad-crc";
  }
  return "?";
}

void put_u8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void put_u16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void put_u32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void put_i32(std::vector<uint8_t>* out, int32_t v) {
  put_u32(out, static_cast<uint32_t>(v));
}

void put_f32(std::vector<uint8_t>* out, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(out, bits);
}

void put_f64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::vector<uint8_t>* out, const std::string& v) {
  put_u32(out, static_cast<uint32_t>(v.size()));
  out->insert(out->end(), v.begin(), v.end());
}

void put_u32_at(std::vector<uint8_t>* out, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*out)[offset + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

bool ByteReader::take(size_t n, const uint8_t** p) {
  if (!ok_ || size_ - off_ < n) {
    ok_ = false;
    return false;
  }
  *p = data_ + off_;
  off_ += n;
  return true;
}

uint8_t ByteReader::read_u8() {
  const uint8_t* p;
  return take(1, &p) ? p[0] : 0;
}

uint16_t ByteReader::read_u16() {
  const uint8_t* p;
  if (!take(2, &p)) return 0;
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t ByteReader::read_u32() {
  const uint8_t* p;
  if (!take(4, &p)) return 0;
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t ByteReader::read_u64() {
  const uint8_t* p;
  if (!take(8, &p)) return 0;
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

int32_t ByteReader::read_i32() { return static_cast<int32_t>(read_u32()); }

float ByteReader::read_f32() {
  const uint32_t bits = read_u32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return ok_ ? v : 0.0f;
}

double ByteReader::read_f64() {
  const uint64_t bits = read_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return ok_ ? v : 0.0;
}

std::string ByteReader::read_string() {
  const uint32_t n = read_u32();
  const uint8_t* p;
  if (!take(n, &p)) return {};
  return std::string(reinterpret_cast<const char*>(p), n);
}

bool ByteReader::read_bytes(void* dst, size_t n) {
  const uint8_t* p;
  if (!take(n, &p)) return false;
  std::memcpy(dst, p, n);
  return true;
}

void encode_message(MsgType type, const uint8_t* payload, size_t payload_size,
                    std::vector<uint8_t>* out) {
  out->reserve(out->size() + kHeaderSize + payload_size);
  put_u32(out, kMagic);
  put_u16(out, kProtocolVersion);
  put_u16(out, static_cast<uint16_t>(type));
  put_u32(out, static_cast<uint32_t>(payload_size));
  put_u32(out, crc32(payload, payload_size));
  out->insert(out->end(), payload, payload + payload_size);
}

void encode_header(MsgType type, const uint8_t* payload, size_t payload_size,
                   uint8_t out[kHeaderSize]) {
  const uint32_t crc = crc32(payload, payload_size);
  const uint32_t length = static_cast<uint32_t>(payload_size);
  for (int i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(kMagic >> (8 * i));
  out[4] = static_cast<uint8_t>(kProtocolVersion);
  out[5] = static_cast<uint8_t>(kProtocolVersion >> 8);
  out[6] = static_cast<uint8_t>(static_cast<uint16_t>(type));
  out[7] = static_cast<uint8_t>(static_cast<uint16_t>(type) >> 8);
  for (int i = 0; i < 4; ++i) out[8 + i] = static_cast<uint8_t>(length >> (8 * i));
  for (int i = 0; i < 4; ++i) out[12 + i] = static_cast<uint8_t>(crc >> (8 * i));
}

WireStatus decode_message(const uint8_t* data, size_t size, WireView* out,
                          size_t* consumed) {
  *consumed = 0;
  if (size < kHeaderSize) return WireStatus::kNeedMore;
  ByteReader header({data, kHeaderSize});
  const uint32_t magic = header.read_u32();
  const uint16_t version = header.read_u16();
  const uint16_t type = header.read_u16();
  const uint32_t length = header.read_u32();
  const uint32_t crc = header.read_u32();
  // Validation order matters for error quality: a wrong magic means this is
  // not our protocol at all, so report that before anything field-level.
  if (magic != kMagic) return WireStatus::kBadMagic;
  if (version != kProtocolVersion) return WireStatus::kBadVersion;
  if (!valid_msg_type(type)) return WireStatus::kBadType;
  if (length > kMaxPayload) return WireStatus::kOversized;
  if (size - kHeaderSize < length) return WireStatus::kNeedMore;
  const uint8_t* payload = data + kHeaderSize;
  if (crc32(payload, length) != crc) return WireStatus::kBadCrc;
  out->type = static_cast<MsgType>(type);
  out->header = data;
  out->payload = ByteView(payload, length);
  *consumed = kHeaderSize + length;
  return WireStatus::kOk;
}

// --- payload structs ------------------------------------------------------

namespace {

// Exact byte counts of the shared sub-records, kept adjacent to their
// put_* twins so a field added to one is a compile-visible nudge to the
// other (the EncodedSize test pins the correspondence).
size_t volume_key_size(const serve::VolumeKey& key) {
  return 4 + key.kind.size()  // length-prefixed kind
         + 4 * 4              // nx, ny, nz, tf_preset
         + 8                  // seed
         + 3 * 8 + 2 * 4 + 1; // classify: light_dir, ambient/diffuse, threshold
}

constexpr size_t kCameraSize = 16 * 8 + 2 * 4;  // view matrix + image dims

void put_volume_key(std::vector<uint8_t>* out, const serve::VolumeKey& key) {
  put_string(out, key.kind);
  put_i32(out, key.nx);
  put_i32(out, key.ny);
  put_i32(out, key.nz);
  put_i32(out, key.tf_preset);
  put_u64(out, key.seed);
  put_f64(out, key.classify.light_dir.x);
  put_f64(out, key.classify.light_dir.y);
  put_f64(out, key.classify.light_dir.z);
  put_f32(out, key.classify.ambient);
  put_f32(out, key.classify.diffuse);
  put_u8(out, key.classify.alpha_threshold);
}

bool read_volume_key(ByteReader* r, serve::VolumeKey* key) {
  key->kind = r->read_string();
  key->nx = r->read_i32();
  key->ny = r->read_i32();
  key->nz = r->read_i32();
  key->tf_preset = r->read_i32();
  key->seed = r->read_u64();
  key->classify.light_dir.x = r->read_f64();
  key->classify.light_dir.y = r->read_f64();
  key->classify.light_dir.z = r->read_f64();
  key->classify.ambient = r->read_f32();
  key->classify.diffuse = r->read_f32();
  key->classify.alpha_threshold = r->read_u8();
  // Dimension sanity: a hostile request must not be able to ask for an
  // absurd allocation through the phantom builder.
  if (!r->ok()) return false;
  constexpr int kMaxDim = 4096;
  return key->nx > 0 && key->ny > 0 && key->nz > 0 && key->nx <= kMaxDim &&
         key->ny <= kMaxDim && key->nz <= kMaxDim;
}

void put_camera(std::vector<uint8_t>* out, const Camera& camera) {
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) put_f64(out, camera.view.at(r, c));
  }
  put_i32(out, camera.image_width);
  put_i32(out, camera.image_height);
}

bool read_camera(ByteReader* r, Camera* camera) {
  for (int row = 0; row < 4; ++row) {
    for (int col = 0; col < 4; ++col) camera->view.at(row, col) = r->read_f64();
  }
  camera->image_width = r->read_i32();
  camera->image_height = r->read_i32();
  constexpr int kMaxImage = 16384;
  return r->ok() && camera->image_width >= 0 && camera->image_height >= 0 &&
         camera->image_width <= kMaxImage && camera->image_height <= kMaxImage;
}

// Shared optional-trace-block helpers. A block is appended only for
// sampled contexts, and decoders consult it only when bytes remain after
// the versioned fields — exact backward compatibility in both directions.
size_t trace_block_size(const obs::TraceContext& trace) {
  return trace.sampled() ? kTraceBlockSize : 0;
}

void put_trace_block(std::vector<uint8_t>* out, const obs::TraceContext& trace) {
  if (!trace.sampled()) return;
  put_u8(out, kTraceBlockVersion);
  put_u64(out, trace.trace_hi);
  put_u64(out, trace.trace_lo);
  put_u64(out, trace.parent_span);
  put_u8(out, trace.flags);
}

bool read_trace_block(ByteReader* r, obs::TraceContext* trace) {
  const uint8_t version = r->read_u8();
  if (!r->ok() || version != kTraceBlockVersion) return false;
  trace->trace_hi = r->read_u64();
  trace->trace_lo = r->read_u64();
  trace->parent_span = r->read_u64();
  trace->flags = r->read_u8();
  return r->ok() && trace->valid();
}

}  // namespace

size_t HelloMsg::encoded_size() const { return 2 + 4 + name.size(); }

void HelloMsg::encode(std::vector<uint8_t>* out) const {
  out->reserve(out->size() + encoded_size());
  put_u16(out, version);
  put_string(out, name);
}

bool HelloMsg::decode(ByteView payload, HelloMsg* out) {
  ByteReader r(payload);
  out->version = r.read_u16();
  out->name = r.read_string();
  return r.exhausted();
}

size_t RenderRequestMsg::encoded_size() const {
  return 8 + 8 + volume_key_size(volume) + kCameraSize + 8 +
         trace_block_size(trace);
}

void RenderRequestMsg::encode(std::vector<uint8_t>* out) const {
  out->reserve(out->size() + encoded_size());
  put_u64(out, request_id);
  put_u64(out, session_id);
  put_volume_key(out, volume);
  put_camera(out, camera);
  put_f64(out, deadline_ms);
  put_trace_block(out, trace);
}

bool RenderRequestMsg::decode(ByteView payload, RenderRequestMsg* out) {
  ByteReader r(payload);
  out->request_id = r.read_u64();
  out->session_id = r.read_u64();
  if (!read_volume_key(&r, &out->volume)) return false;
  if (!read_camera(&r, &out->camera)) return false;
  out->deadline_ms = r.read_f64();
  if (!r.ok()) return false;
  out->trace = obs::TraceContext{};
  if (r.remaining() > 0 && !read_trace_block(&r, &out->trace)) return false;
  return r.exhausted();
}

size_t StreamRequestMsg::encoded_size() const {
  return 8 + 8 + volume_key_size(volume) + 3 * 8 + 4 + trace_block_size(trace);
}

void StreamRequestMsg::encode(std::vector<uint8_t>* out) const {
  out->reserve(out->size() + encoded_size());
  put_u64(out, stream_id);
  put_u64(out, session_id);
  put_volume_key(out, volume);
  put_f64(out, start_yaw);
  put_f64(out, pitch);
  put_f64(out, step_deg);
  put_u32(out, frames);
  put_trace_block(out, trace);
}

bool StreamRequestMsg::decode(ByteView payload, StreamRequestMsg* out) {
  ByteReader r(payload);
  out->stream_id = r.read_u64();
  out->session_id = r.read_u64();
  if (!read_volume_key(&r, &out->volume)) return false;
  out->start_yaw = r.read_f64();
  out->pitch = r.read_f64();
  out->step_deg = r.read_f64();
  out->frames = r.read_u32();
  if (!r.ok()) return false;
  out->trace = obs::TraceContext{};
  if (r.remaining() > 0 && !read_trace_block(&r, &out->trace)) return false;
  // A zero-frame stream is legal (it just ends immediately); an enormous
  // one is a typed rejection rather than an unbounded server commitment.
  return r.exhausted() && out->frames <= 1u << 20;
}

size_t FrameMsg::encoded_size() const {
  return kMetaSize + 4 + encoded.size() + trace_tail_size();
}

size_t FrameMsg::trace_tail_size() const {
  if (!trace.sampled()) return 0;
  return kTraceTailHeaderSize + spans.size() * kWireSpanSize;
}

void FrameMsg::encode_meta(std::vector<uint8_t>* out) const {
  put_u64(out, request_id);
  put_u64(out, stream_id);
  put_u32(out, seq);
  put_u32(out, dropped_before);
  put_f64(out, render_ms);
  put_f64(out, total_ms);
  put_u8(out, cache_hit);
}

void FrameMsg::encode_trace_tail(std::vector<uint8_t>* out) const {
  if (!trace.sampled()) return;
  put_u8(out, kTraceBlockVersion);
  put_u64(out, trace.trace_hi);
  put_u64(out, trace.trace_lo);
  put_u8(out, trace.flags);
  put_u16(out, static_cast<uint16_t>(spans.size()));
  for (const obs::SpanRecord& s : spans) {
    put_u64(out, s.span_id);
    put_u64(out, s.parent_id);
    put_u8(out, static_cast<uint8_t>(s.kind));
    put_u64(out, static_cast<uint64_t>(s.t_start_ns));
    put_u64(out, static_cast<uint64_t>(s.t_end_ns));
    put_u64(out, s.tag);
  }
}

void FrameMsg::encode(std::vector<uint8_t>* out) const {
  out->reserve(out->size() + encoded_size());
  encode_meta(out);
  put_u32(out, static_cast<uint32_t>(encoded.size()));
  out->insert(out->end(), encoded.begin(), encoded.end());
  encode_trace_tail(out);
}

bool FrameMsg::decode(ByteView payload, FrameMsg* out) {
  ByteReader r(payload);
  out->request_id = r.read_u64();
  out->stream_id = r.read_u64();
  out->seq = r.read_u32();
  out->dropped_before = r.read_u32();
  out->render_ms = r.read_f64();
  out->total_ms = r.read_f64();
  out->cache_hit = r.read_u8();
  const uint32_t n = r.read_u32();
  if (!r.ok() || r.remaining() < n) return false;
  out->encoded.resize(n);
  if (n != 0 && !r.read_bytes(out->encoded.data(), n)) return false;
  out->trace = obs::TraceContext{};
  out->spans.clear();
  if (r.remaining() > 0) {
    const uint8_t version = r.read_u8();
    if (!r.ok() || version != kTraceBlockVersion) return false;
    out->trace.trace_hi = r.read_u64();
    out->trace.trace_lo = r.read_u64();
    out->trace.flags = r.read_u8();
    const uint16_t count = r.read_u16();
    if (!r.ok() || !out->trace.valid() ||
        r.remaining() != count * kWireSpanSize) {
      return false;
    }
    out->spans.resize(count);
    for (obs::SpanRecord& s : out->spans) {
      s.trace_hi = out->trace.trace_hi;
      s.trace_lo = out->trace.trace_lo;
      s.span_id = r.read_u64();
      s.parent_id = r.read_u64();
      const uint8_t kind = r.read_u8();
      if (kind >= static_cast<uint8_t>(obs::SpanKind::kCount)) return false;
      s.kind = static_cast<obs::SpanKind>(kind);
      s.t_start_ns = static_cast<int64_t>(r.read_u64());
      s.t_end_ns = static_cast<int64_t>(r.read_u64());
      s.tag = r.read_u64();
    }
  }
  return r.exhausted();
}

size_t StreamEndMsg::encoded_size() const { return 8 + 4 + 4; }

void StreamEndMsg::encode(std::vector<uint8_t>* out) const {
  out->reserve(out->size() + encoded_size());
  put_u64(out, stream_id);
  put_u32(out, frames_sent);
  put_u32(out, frames_dropped);
}

bool StreamEndMsg::decode(ByteView payload, StreamEndMsg* out) {
  ByteReader r(payload);
  out->stream_id = r.read_u64();
  out->frames_sent = r.read_u32();
  out->frames_dropped = r.read_u32();
  return r.exhausted();
}

size_t ErrorMsg::encoded_size() const {
  return 8 + 2 + 4 + message.size() + trace_block_size(trace);
}

void ErrorMsg::encode(std::vector<uint8_t>* out) const {
  out->reserve(out->size() + encoded_size());
  put_u64(out, request_id);
  put_u16(out, status);
  put_string(out, message);
  put_trace_block(out, trace);
}

bool ErrorMsg::decode(ByteView payload, ErrorMsg* out) {
  ByteReader r(payload);
  out->request_id = r.read_u64();
  out->status = r.read_u16();
  out->message = r.read_string();
  if (!r.ok()) return false;
  out->trace = obs::TraceContext{};
  if (r.remaining() > 0 && !read_trace_block(&r, &out->trace)) return false;
  return r.exhausted();
}

bool check_hello(ByteView payload, std::string* rejection) {
  HelloMsg hello;
  if (!HelloMsg::decode(payload, &hello)) return false;
  if (hello.version != kProtocolVersion) {
    *rejection = "unsupported protocol version " + std::to_string(hello.version) +
                 " (want " + std::to_string(kProtocolVersion) + ")";
  }
  return true;
}

size_t MetricsReplyMsg::encoded_size() const { return 4 + json.size(); }

void MetricsReplyMsg::encode(std::vector<uint8_t>* out) const {
  out->reserve(out->size() + encoded_size());
  put_string(out, json);
}

bool MetricsReplyMsg::decode(ByteView payload, MetricsReplyMsg* out) {
  ByteReader r(payload);
  out->json = r.read_string();
  return r.exhausted();
}

}  // namespace psw::net
