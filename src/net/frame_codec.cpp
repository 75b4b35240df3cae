#include "net/frame_codec.hpp"

#include <cstring>

#include "net/wire.hpp"

namespace psw::net {

namespace {

constexpr int kMaxDim = 16384;
constexpr size_t kHeader = 6;  // u16 w, u16 h, u8 codec, u8 reserved

// Delta scanline modes.
constexpr uint8_t kSkip = 0;
constexpr uint8_t kRleLine = 1;
constexpr uint8_t kRawLine = 2;

void put_pixel(std::vector<uint8_t>* out, const Pixel8& p) {
  out->push_back(p.r);
  out->push_back(p.g);
  out->push_back(p.b);
  out->push_back(p.a);
}

// Appends one scanline's RLE form: u16 nruns, then (u16 len, pixel) runs.
void rle_scanline(const Pixel8* row, int width, std::vector<uint8_t>* out) {
  const size_t count_at = out->size();
  put_u16(out, 0);  // patched below
  uint16_t nruns = 0;
  int x = 0;
  while (x < width) {
    int end = x + 1;
    while (end < width && row[end] == row[x]) ++end;
    put_u16(out, static_cast<uint16_t>(end - x));
    put_pixel(out, row[x]);
    ++nruns;
    x = end;
  }
  (*out)[count_at] = static_cast<uint8_t>(nruns);
  (*out)[count_at + 1] = static_cast<uint8_t>(nruns >> 8);
}

void raw_scanline(const Pixel8* row, int width, std::vector<uint8_t>* out) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(row);
  out->insert(out->end(), bytes, bytes + static_cast<size_t>(width) * 4);
}

void append_header(std::vector<uint8_t>* out, int width, int height,
                   FrameCodec codec) {
  put_u16(out, static_cast<uint16_t>(width));
  put_u16(out, static_cast<uint16_t>(height));
  out->push_back(static_cast<uint8_t>(codec));
  out->push_back(0);  // reserved
}

bool read_pixel(ByteReader* r, Pixel8* p) {
  uint8_t bytes[4];
  if (!r->read_bytes(bytes, 4)) return false;
  p->r = bytes[0];
  p->g = bytes[1];
  p->b = bytes[2];
  p->a = bytes[3];
  return true;
}

CodecStatus decode_rle_scanline(ByteReader* r, Pixel8* row, int width) {
  const uint16_t nruns = r->read_u16();
  if (!r->ok()) return CodecStatus::kTruncated;
  int x = 0;
  for (uint16_t i = 0; i < nruns; ++i) {
    const uint16_t len = r->read_u16();
    Pixel8 px;
    if (!r->ok() || !read_pixel(r, &px)) return CodecStatus::kTruncated;
    if (len == 0 || x + len > width) return CodecStatus::kBadRunLength;
    for (int j = 0; j < len; ++j) row[x + j] = px;
    x += len;
  }
  return x == width ? CodecStatus::kOk : CodecStatus::kBadRunLength;
}

CodecStatus decode_raw_scanline(ByteReader* r, Pixel8* row, int width) {
  return r->read_bytes(row, static_cast<size_t>(width) * 4)
             ? CodecStatus::kOk
             : CodecStatus::kTruncated;
}

}  // namespace

const char* to_string(CodecStatus s) {
  switch (s) {
    case CodecStatus::kOk: return "ok";
    case CodecStatus::kTruncated: return "truncated";
    case CodecStatus::kBadDimensions: return "bad-dimensions";
    case CodecStatus::kBadCodec: return "bad-codec";
    case CodecStatus::kBadRunLength: return "bad-run-length";
    case CodecStatus::kBadMode: return "bad-mode";
    case CodecStatus::kMissingPrevious: return "missing-previous";
    case CodecStatus::kTrailingBytes: return "trailing-bytes";
  }
  return "?";
}

void FrameEncoder::encode(const ImageU8& frame, std::vector<uint8_t>* out) {
  out->clear();
  encode_append(frame, out);
}

void FrameEncoder::encode_append(const ImageU8& frame, std::vector<uint8_t>* out) {
  const int w = frame.width();
  const int h = frame.height();
  const size_t raw_body = static_cast<size_t>(w) * h * 4;

  // Plain RLE body (also reused as the delta codec's per-line rle form).
  // The scratch vectors are members: clear() keeps their capacity, so a
  // warm encoder builds both candidates without touching the allocator.
  rle_body_.clear();
  rle_body_.reserve(raw_body / 4);
  line_span_.assign(static_cast<size_t>(h), {});
  for (int y = 0; y < h; ++y) {
    const size_t begin = rle_body_.size();
    rle_scanline(frame.row(y), w, &rle_body_);
    line_span_[y] = {begin, rle_body_.size() - begin};
  }

  // Delta body: per scanline the cheapest of skip (1 byte), rle, raw.
  delta_body_.clear();
  const bool delta_ok = has_prev_ && prev_.width() == w && prev_.height() == h;
  if (delta_ok) {
    delta_body_.reserve(rle_body_.size() + static_cast<size_t>(h));
    for (int y = 0; y < h; ++y) {
      const size_t line_bytes = static_cast<size_t>(w) * 4;
      if (std::memcmp(frame.row(y), prev_.row(y), line_bytes) == 0) {
        delta_body_.push_back(kSkip);
      } else if (line_span_[y].second < line_bytes) {
        delta_body_.push_back(kRleLine);
        const uint8_t* src = rle_body_.data() + line_span_[y].first;
        delta_body_.insert(delta_body_.end(), src, src + line_span_[y].second);
      } else {
        delta_body_.push_back(kRawLine);
        raw_scanline(frame.row(y), w, &delta_body_);
      }
    }
  }

  FrameCodec codec = FrameCodec::kRaw;
  const std::vector<uint8_t>* body = nullptr;
  if (delta_ok && delta_body_.size() < raw_body &&
      delta_body_.size() <= rle_body_.size()) {
    codec = FrameCodec::kDelta;
    body = &delta_body_;
  } else if (rle_body_.size() < raw_body) {
    codec = FrameCodec::kRle;
    body = &rle_body_;
  }

  out->reserve(out->size() + kHeader + (body ? body->size() : raw_body));
  append_header(out, w, h, codec);
  if (body) {
    out->insert(out->end(), body->begin(), body->end());
  } else {
    for (int y = 0; y < h; ++y) raw_scanline(frame.row(y), w, out);
  }
  prev_ = frame;  // copy-assign: reuses prev_'s pixel storage once warm
  has_prev_ = true;
}

CodecStatus FrameDecoder::decode(ByteView blob, ImageU8* out) {
  out->resize(0, 0);
  ByteReader r(blob);
  const int w = r.read_u16();
  const int h = r.read_u16();
  const uint8_t codec = r.read_u8();
  r.read_u8();  // reserved
  if (!r.ok()) return CodecStatus::kTruncated;
  if (w <= 0 || h <= 0 || w > kMaxDim || h > kMaxDim) {
    return CodecStatus::kBadDimensions;
  }
  if (codec > static_cast<uint8_t>(FrameCodec::kDelta)) {
    return CodecStatus::kBadCodec;
  }
  const bool delta = codec == static_cast<uint8_t>(FrameCodec::kDelta);
  if (delta && (!has_prev_ || prev_.width() != w || prev_.height() != h)) {
    return CodecStatus::kMissingPrevious;
  }

  ImageU8 img(w, h);
  for (int y = 0; y < h; ++y) {
    CodecStatus status = CodecStatus::kOk;
    switch (static_cast<FrameCodec>(codec)) {
      case FrameCodec::kRaw:
        status = decode_raw_scanline(&r, img.row(y), w);
        break;
      case FrameCodec::kRle:
        status = decode_rle_scanline(&r, img.row(y), w);
        break;
      case FrameCodec::kDelta: {
        const uint8_t mode = r.read_u8();
        if (!r.ok()) return CodecStatus::kTruncated;
        if (mode == kSkip) {
          std::memcpy(img.row(y), prev_.row(y), static_cast<size_t>(w) * 4);
        } else if (mode == kRleLine) {
          status = decode_rle_scanline(&r, img.row(y), w);
        } else if (mode == kRawLine) {
          status = decode_raw_scanline(&r, img.row(y), w);
        } else {
          return CodecStatus::kBadMode;
        }
        break;
      }
    }
    if (status != CodecStatus::kOk) return status;
  }
  if (!r.exhausted()) return CodecStatus::kTrailingBytes;
  *out = img;
  prev_ = std::move(img);
  has_prev_ = true;
  return CodecStatus::kOk;
}

void encode_frame(const ImageU8& frame, std::vector<uint8_t>* out) {
  FrameEncoder once;
  once.encode(frame, out);
}

CodecStatus decode_frame(ByteView blob, ImageU8* out) {
  FrameDecoder once;
  return once.decode(blob, out);
}

}  // namespace psw::net
