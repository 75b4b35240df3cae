// Versioned binary wire protocol for the network frame-delivery subsystem.
//
// Every message on the wire is one frame:
//
//   offset  size  field
//   0       4     magic "PSWN"
//   4       2     protocol version (little-endian, currently 1)
//   6       2     message type (MsgType)
//   8       4     payload length (bytes; <= kMaxPayload)
//   12      4     CRC-32 of the payload bytes
//   16      n     payload
//
// All integers are explicit little-endian; doubles travel as the
// little-endian bytes of their IEEE-754 representation (bit-exact, which
// the served-frame bit-identity guarantee depends on). Decoding is total:
// malformed, truncated or corrupt input yields a typed WireStatus, never a
// crash, and an incomplete frame yields kNeedMore so a stream reader can
// simply retry with more bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/factorization.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"

namespace psw::net {

inline constexpr uint32_t kMagic = 0x4E575350u;  // "PSWN" as LE bytes
inline constexpr uint16_t kProtocolVersion = 1;
inline constexpr size_t kHeaderSize = 16;
// Upper bound on one payload: a 2048^2 RGBA frame plus codec overhead fits
// comfortably; anything larger is a corrupt length field, not real data.
inline constexpr uint32_t kMaxPayload = 32u << 20;

enum class MsgType : uint16_t {
  kHello = 1,           // client -> server: version + client name
  kHelloAck = 2,        // server -> client: version + server name
  kRenderRequest = 3,   // client -> server: one frame of one session
  kFrame = 4,           // server -> client: encoded frame (reply or stream)
  kStreamRequest = 5,   // client -> server: open a pushed animation stream
  kStreamEnd = 6,       // server -> client: stream finished (sent/dropped)
  kMetricsRequest = 7,  // client -> server: ask for the metrics JSON
  kMetricsReply = 8,    // server -> client: metrics JSON string
  kError = 9,           // server -> client: typed failure for one request
  kBye = 10,            // either side: orderly close
};

bool valid_msg_type(uint16_t t);
const char* to_string(MsgType t);

// kMetricsRequest payload selector. An empty payload keeps the original
// meaning (the combined metrics JSON), so pre-trace peers — including the
// router's health prober — interoperate unchanged; one selector byte asks
// for an alternative document.
inline constexpr uint8_t kMetricsSelectorJson = 0;        // default document
inline constexpr uint8_t kMetricsSelectorPrometheus = 1;  // text exposition
inline constexpr uint8_t kMetricsSelectorTrace = 2;       // span dump JSON

// Version tag leading every optional trace block on the wire.
inline constexpr uint8_t kTraceBlockVersion = 1;
// Request-side trace block: version + 128-bit id + parent span + flags.
inline constexpr size_t kTraceBlockSize = 1 + 8 + 8 + 8 + 1;
// Frame-side tail header (version + id + flags + span count) and one span.
inline constexpr size_t kTraceTailHeaderSize = 1 + 8 + 8 + 1 + 2;
inline constexpr size_t kWireSpanSize = 8 + 8 + 1 + 8 + 8 + 8;

// Decode outcome. kNeedMore is the only non-terminal status: everything
// else means the stream is unrecoverable (a framing error implies we no
// longer know where the next message starts) and the connection should be
// closed.
enum class WireStatus {
  kOk = 0,
  kNeedMore,     // incomplete header or payload: feed more bytes
  kBadMagic,     // first four bytes are not "PSWN"
  kBadVersion,   // version field != kProtocolVersion
  kBadType,      // type field names no known MsgType
  kOversized,    // length field exceeds kMaxPayload
  kBadCrc,       // payload checksum mismatch
};

const char* to_string(WireStatus s);

// Read-only bytes of one payload. Converts implicitly from std::vector, so
// decoders accept owned buffers and in-place views alike.
using ByteView = std::span<const uint8_t>;

// One decoded message, viewed in place: nothing is copied, and the view is
// valid only as long as the buffer it was decoded from. `header` points at
// the 16 verified header bytes (CRC already checked), so a proxy can
// forward the message without re-encoding it.
struct WireView {
  MsgType type = MsgType::kBye;
  const uint8_t* header = nullptr;
  ByteView payload;
};

// Writes the 16-byte frame header for a payload that lives in its own
// buffer: senders queue (header, pooled payload) pairs and hand both to
// sendmsg, so a payload is never copied into a flat send buffer.
void encode_header(MsgType type, const uint8_t* payload, size_t payload_size,
                   uint8_t out[kHeaderSize]);

// Appends one flat framed message (header + payload) to `out`: the
// reference encoding encode_header is tested against.
void encode_message(MsgType type, const uint8_t* payload, size_t payload_size,
                    std::vector<uint8_t>* out);

// Attempts to decode one message from the front of [data, data+size).
// kOk: fills *out, *consumed = header + payload bytes.
// kNeedMore: nothing consumed; call again with more bytes.
// Any error: *consumed is 0 and the caller should drop the connection.
WireStatus decode_message(const uint8_t* data, size_t size, WireView* out,
                          size_t* consumed);

// --- little-endian primitive helpers -------------------------------------

void put_u8(std::vector<uint8_t>* out, uint8_t v);
void put_u16(std::vector<uint8_t>* out, uint16_t v);
void put_u32(std::vector<uint8_t>* out, uint32_t v);
void put_u64(std::vector<uint8_t>* out, uint64_t v);
void put_i32(std::vector<uint8_t>* out, int32_t v);
void put_f32(std::vector<uint8_t>* out, float v);
void put_f64(std::vector<uint8_t>* out, double v);
// Length-prefixed (u32) byte string.
void put_string(std::vector<uint8_t>* out, const std::string& v);
// Overwrites 4 already-written bytes at `offset` (little-endian). Used to
// patch a length placeholder after appending data of initially unknown size
// (e.g. a codec blob encoded directly into the wire payload).
void put_u32_at(std::vector<uint8_t>* out, size_t offset, uint32_t v);

// Bounds-checked sequential reader over a payload. Any overrun sets a
// sticky failure flag and makes every subsequent read return zero, so
// decoders can read the whole struct and check ok() once at the end.
class ByteReader {
 public:
  explicit ByteReader(ByteView bytes) : data_(bytes.data()), size_(bytes.size()) {}

  uint8_t read_u8();
  uint16_t read_u16();
  uint32_t read_u32();
  uint64_t read_u64();
  int32_t read_i32();
  float read_f32();
  double read_f64();
  std::string read_string();
  // Copies `n` raw bytes into `dst`; fails (and copies nothing) on overrun.
  bool read_bytes(void* dst, size_t n);

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - off_; }
  // True when the payload was consumed exactly (decoders use this to reject
  // trailing garbage).
  bool exhausted() const { return ok_ && off_ == size_; }

 private:
  bool take(size_t n, const uint8_t** p);

  const uint8_t* data_;
  size_t size_;
  size_t off_ = 0;
  bool ok_ = true;
};

// --- message payloads -----------------------------------------------------
// Each payload struct has encode() appending its wire form, encoded_size()
// returning the exact byte count encode() will append (so callers reserve
// once instead of regrowing through push_back), and a decode() that returns
// false on truncated/trailing/invalid input (typed rejection; the caller
// answers with kError or closes).

struct HelloMsg {
  uint16_t version = kProtocolVersion;
  std::string name;

  size_t encoded_size() const;
  void encode(std::vector<uint8_t>* out) const;
  static bool decode(ByteView payload, HelloMsg* out);
};

struct RenderRequestMsg {
  uint64_t request_id = 0;  // echoed in the kFrame / kError reply
  uint64_t session_id = 0;
  serve::VolumeKey volume;
  Camera camera;
  double deadline_ms = 0.0;  // relative to server receipt; 0 = none
  // Optional distributed-tracing context. Encoded as a versioned trailing
  // block only when sampled, so untraced requests are byte-identical to
  // protocol-v1 peers and decoders without the block still parse.
  obs::TraceContext trace;

  size_t encoded_size() const;
  void encode(std::vector<uint8_t>* out) const;
  static bool decode(ByteView payload, RenderRequestMsg* out);
};

struct StreamRequestMsg {
  uint64_t stream_id = 0;  // client-chosen, echoed on every pushed frame
  uint64_t session_id = 0;
  serve::VolumeKey volume;
  // Orbit animation parameters (frame f renders Camera::orbit at
  // start_yaw + f * step_deg).
  double start_yaw = 0.0;
  double pitch = 0.35;
  double step_deg = 2.0;
  uint32_t frames = 30;
  // Optional trailing trace block, as in RenderRequestMsg; a sampled stream
  // traces every pushed frame under one trace id.
  obs::TraceContext trace;

  size_t encoded_size() const;
  void encode(std::vector<uint8_t>* out) const;
  static bool decode(ByteView payload, StreamRequestMsg* out);
};

struct FrameMsg {
  uint64_t request_id = 0;  // one-shot replies; 0 for stream frames
  uint64_t stream_id = 0;   // stream frames; 0 for one-shot replies
  uint32_t seq = 0;         // frame index within the stream / request
  uint32_t dropped_before = 0;  // frames shed by backpressure since the last
                                // delivered frame of this stream
  double render_ms = 0.0;       // server-side composite+warp time
  double total_ms = 0.0;        // server-side submit->completion time
  uint8_t cache_hit = 0;
  std::vector<uint8_t> encoded;  // frame-codec blob (see frame_codec.hpp)
  // Optional trace tail after the blob: context + the server-side stage
  // spans of this frame (timestamps already wall-anchored). Encoded only
  // when `trace` is sampled; untraced frames stay byte-identical. The tail
  // sits past the fixed metadata prefix, so the router's fixed-offset
  // latency peek never sees it.
  obs::TraceContext trace;
  std::vector<obs::SpanRecord> spans;

  // Fixed-size metadata prefix (everything before the blob length + bytes).
  static constexpr size_t kMetaSize = 41;

  size_t encoded_size() const;
  void encode(std::vector<uint8_t>* out) const;
  // Zero-copy path: appends only the metadata prefix (kMetaSize bytes) so
  // the caller can follow with a u32 blob length and the codec's output
  // encoded directly into the same buffer — producing bytes identical to
  // encode() without the blob ever existing separately. `this->encoded` is
  // not read.
  void encode_meta(std::vector<uint8_t>* out) const;
  // Second half of the zero-copy path: appends the optional trace tail
  // (no-op when unsampled) after the caller has encoded the blob in place.
  void encode_trace_tail(std::vector<uint8_t>* out) const;
  size_t trace_tail_size() const;
  static bool decode(ByteView payload, FrameMsg* out);
};

struct StreamEndMsg {
  uint64_t stream_id = 0;
  uint32_t frames_sent = 0;
  uint32_t frames_dropped = 0;

  size_t encoded_size() const;
  void encode(std::vector<uint8_t>* out) const;
  static bool decode(ByteView payload, StreamEndMsg* out);
};

struct ErrorMsg {
  uint64_t request_id = 0;  // 0 when the error is connection-level
  uint16_t status = 0;      // serve::ServeStatus for admission failures
  std::string message;
  // Correlation: the failing request's trace context (trailing optional
  // block, encoded when sampled) so a client-visible error can be matched
  // to the shard- or router-side trace that recorded it.
  obs::TraceContext trace;

  size_t encoded_size() const;
  void encode(std::vector<uint8_t>* out) const;
  static bool decode(ByteView payload, ErrorMsg* out);
};

struct MetricsReplyMsg {
  std::string json;

  size_t encoded_size() const;
  void encode(std::vector<uint8_t>* out) const;
  static bool decode(ByteView payload, MetricsReplyMsg* out);
};

// --- the serving face every PSWN server (netserve, router) speaks ---------

// Checks a kHello payload: false when malformed; otherwise *rejection gets
// the typed-error text for a protocol version we do not speak (a
// mixed-version peer gets an error, never bytes it cannot parse) and stays
// untouched for an accepted hello.
bool check_hello(ByteView payload, std::string* rejection);

// Answers a kMetricsRequest from an endpoint with metrics_json(),
// prometheus_text() and trace_dump_json(). An empty payload (the router's
// health probe) or an unknown selector byte gets the JSON document.
template <typename Endpoint>
MetricsReplyMsg metrics_reply(const Endpoint& endpoint, ByteView request) {
  const uint8_t selector = request.size() == 1 ? request[0] : kMetricsSelectorJson;
  MetricsReplyMsg reply;
  if (selector == kMetricsSelectorPrometheus) {
    reply.json = endpoint.prometheus_text();
  } else if (selector == kMetricsSelectorTrace) {
    reply.json = endpoint.trace_dump_json();
  } else {
    reply.json = endpoint.metrics_json();
  }
  return reply;
}

}  // namespace psw::net
