// Frame codec for shipped images. Shear-warp output is exactly the kind of
// data a per-scanline run-length coder exploits: mostly-transparent volumes
// (§ PAPER 2.1) warp to final images dominated by long constant background
// runs, and successive small-angle animation frames differ only where the
// object silhouette moved, so within a streaming session unchanged
// scanlines collapse to one byte.
//
// Blob layout (all integers little-endian):
//
//   u16 width, u16 height, u8 codec, u8 reserved
//   codec 0 (raw):   width*height*4 bytes of RGBA
//   codec 1 (rle):   per scanline: u16 nruns, then nruns x { u16 len, 4B px }
//   codec 2 (delta): per scanline: u8 mode
//                      mode 0 (skip): nothing — scanline equals the previous
//                                     frame's scanline
//                      mode 1 (rle):  as codec 1's scanline
//                      mode 2 (raw):  width*4 bytes
//
// The encoder picks, per scanline, the cheapest of skip/rle/raw (skip only
// when a previous frame of identical dimensions exists) and falls back to
// one whole-frame raw blob whenever the clever encoding would expand.
// Decoding is bit-exact and total: corrupt input yields a typed
// CodecStatus, never a crash or an out-of-bounds write.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/wire.hpp"
#include "util/image.hpp"

namespace psw::net {

enum class FrameCodec : uint8_t {
  kRaw = 0,
  kRle = 1,
  kDelta = 2,
};

enum class CodecStatus {
  kOk = 0,
  kTruncated,        // blob ends mid-header, mid-run or mid-scanline
  kBadDimensions,    // zero/oversized width or height
  kBadCodec,         // codec byte names no known codec
  kBadRunLength,     // scanline runs do not sum to the width
  kBadMode,          // delta scanline mode byte out of range
  kMissingPrevious,  // delta frame but the decoder has no previous frame
  kTrailingBytes,    // well-formed image followed by extra bytes
};

const char* to_string(CodecStatus s);

// Stateful encoder for one streaming session: remembers the previously
// encoded frame so the next frame may use the delta codec. Not thread-safe;
// one per connection/stream.
class FrameEncoder {
 public:
  // Appends the encoded blob for `frame` to `out` (which is cleared first).
  // Uses delta against the previous encode() argument when dimensions match
  // and the result is smaller; otherwise plain RLE; falls back to raw when
  // encoding expands. Updates the previous-frame state.
  void encode(const ImageU8& frame, std::vector<uint8_t>* out);

  // Same blob bytes, appended after whatever `out` already holds — the
  // zero-copy path encodes straight into a wire payload that already carries
  // the frame metadata. Scratch buffers are encoder members, so a warm
  // encoder performs no allocations of its own (only `out` may grow).
  void encode_append(const ImageU8& frame, std::vector<uint8_t>* out);

  // Drops the previous-frame state (e.g. the consumer resynchronized).
  void reset() { has_prev_ = false; }

 private:
  ImageU8 prev_;
  bool has_prev_ = false;
  // Persistent scratch: candidate bodies and per-scanline spans into
  // rle_body_, reused across frames.
  std::vector<uint8_t> rle_body_;
  std::vector<uint8_t> delta_body_;
  std::vector<std::pair<size_t, size_t>> line_span_;
};

// Stateful decoder mirroring FrameEncoder: remembers the previously decoded
// frame so delta frames can be reconstructed. The encoder/decoder pair stay
// in lockstep as long as every encoded frame is decoded in order — which is
// why the server applies backpressure *before* encoding (drop-oldest on the
// rendered-frame queue), never after.
class FrameDecoder {
 public:
  // Decodes one blob into *out. On any error *out is left empty and the
  // previous-frame state is unchanged (a corrupt frame must not poison the
  // delta chain).
  CodecStatus decode(ByteView blob, ImageU8* out);

  void reset() { has_prev_ = false; }

 private:
  ImageU8 prev_;
  bool has_prev_ = false;
};

// One-shot helpers (no delta chain): encode with RLE-or-raw, decode a blob
// that must not use the delta codec.
void encode_frame(const ImageU8& frame, std::vector<uint8_t>* out);
CodecStatus decode_frame(ByteView blob, ImageU8* out);

}  // namespace psw::net
