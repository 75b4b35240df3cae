#include "obs/trace.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/json.hpp"

namespace psw::obs {

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kClient: return "client";
    case SpanKind::kRequest: return "request";
    case SpanKind::kQueueWait: return "queue-wait";
    case SpanKind::kCacheBuild: return "cache-build";
    case SpanKind::kClassify: return "classify";
    case SpanKind::kEncodeVolume: return "encode-volume";
    case SpanKind::kComposite: return "composite";
    case SpanKind::kWarp: return "warp";
    case SpanKind::kFrameEncode: return "frame-encode";
    case SpanKind::kSend: return "send";
    case SpanKind::kRouterProxy: return "router-proxy";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

SpanKind span_kind_from(const std::string& name) {
  for (int i = 0; i < static_cast<int>(SpanKind::kCount); ++i) {
    const auto k = static_cast<SpanKind>(i);
    if (name == to_string(k)) return k;
  }
  return SpanKind::kCount;
}

namespace {

// SplitMix64: full-period mixer, cheap enough to run per id. Seeded per
// stream from the clock and a distinct stream constant so two processes
// started in the same tick still diverge after one step.
uint64_t splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t seed_entropy(uint64_t stream) {
  const uint64_t t = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const uint64_t w = static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  const uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return t ^ (w << 1) ^ (tid * 0x9e3779b97f4a7c15ULL) ^ stream;
}

std::atomic<uint64_t>& id_state() {
  static std::atomic<uint64_t> state{seed_entropy(0x5350414e5f494453ULL)};
  return state;
}

uint64_t next_id64() {
  // relaxed: id generation only needs per-process uniqueness; the fetch_add
  // reserves a distinct stream position and the mixer spreads it — no
  // ordering with any other memory is implied.
  uint64_t s = id_state().fetch_add(0x9e3779b97f4a7c15ULL,
                                    std::memory_order_relaxed);
  uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t next_span_id() {
  uint64_t id = next_id64();
  while (id == 0) id = next_id64();
  return id;
}

TraceContext make_sampled_trace(uint64_t* root_span) {
  TraceContext ctx;
  uint64_t seed = seed_entropy(0x54524143455f4944ULL);
  ctx.trace_hi = splitmix64(seed) ^ next_id64();
  ctx.trace_lo = next_span_id();
  if (ctx.trace_hi == 0 && ctx.trace_lo == 0) ctx.trace_lo = 1;
  ctx.parent_span = next_span_id();
  ctx.flags = TraceContext::kSampledFlag;
  if (root_span != nullptr) *root_span = ctx.parent_span;
  return ctx;
}

std::string trace_id_hex(uint64_t hi, uint64_t lo) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64, hi, lo);
  return buf;
}

std::string trace_id_hex(const TraceContext& ctx) {
  return trace_id_hex(ctx.trace_hi, ctx.trace_lo);
}

std::string span_id_hex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return buf;
}

bool parse_hex_u64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

bool parse_trace_id(const std::string& s, uint64_t* hi, uint64_t* lo) {
  if (s.size() > 16) {
    if (s.size() > 32) return false;
    const size_t split = s.size() - 16;
    return parse_hex_u64(s.substr(0, split), hi) &&
           parse_hex_u64(s.substr(split), lo);
  }
  *hi = 0;
  return parse_hex_u64(s, lo);
}

namespace {

// Stable small ordinal per thread, used to stripe threads across rings.
uint32_t thread_ordinal() {
  static std::atomic<uint32_t> next{0};
  // relaxed: the counter only hands out distinct ordinals; no other state
  // is published through it.
  thread_local uint32_t ord = next.fetch_add(1, std::memory_order_relaxed);
  return ord;
}

}  // namespace

SpanRecorder::SpanRecorder(Options opt) : opt_(opt) {
  if (opt_.rings < 1) opt_.rings = 1;
  if (opt_.ring_capacity < 1) opt_.ring_capacity = 1;
  if (opt_.slow_capacity < 1) opt_.slow_capacity = 1;
  rings_ = std::vector<Ring>(static_cast<size_t>(opt_.rings));
  for (auto& r : rings_) {
    r.slots = std::make_unique<Slot[]>(static_cast<size_t>(opt_.ring_capacity));
  }
}

void SpanRecorder::record(const TraceContext& ctx, const SpanRecord& span) {
  if (!ctx.sampled()) return;  // the hot path: one branch, nothing else
  Ring& ring = rings_[thread_ordinal() % rings_.size()];
  // relaxed: the claim only needs to hand this writer a distinct slot
  // index; publication of the slot contents happens through `seq` below.
  const uint64_t idx = ring.head.fetch_add(1, std::memory_order_relaxed);
  Slot& s = ring.slots[idx % static_cast<uint64_t>(opt_.ring_capacity)];
  // Seqlock write: odd while mid-write, distinct even value when stable.
  s.seq.store(2 * idx + 1, std::memory_order_release);
  // relaxed: plain payload stores; readers validate with the acquire loads
  // of `seq` around their copy and discard torn slots, so per-field
  // ordering carries no meaning.
  s.trace_hi.store(span.trace_hi, std::memory_order_relaxed);
  s.trace_lo.store(span.trace_lo, std::memory_order_relaxed);
  // relaxed: same audit as the ids above — `seq` publishes the slot.
  s.span_id.store(span.span_id, std::memory_order_relaxed);
  s.parent_id.store(span.parent_id, std::memory_order_relaxed);
  s.kind.store(static_cast<uint64_t>(span.kind), std::memory_order_relaxed);
  s.t_start_ns.store(span.t_start_ns, std::memory_order_relaxed);
  // relaxed: same audit as the ids above — `seq` publishes the slot.
  s.t_end_ns.store(span.t_end_ns, std::memory_order_relaxed);
  s.tag.store(span.tag, std::memory_order_relaxed);
  s.seq.store(2 * idx + 2, std::memory_order_release);
}

std::vector<SpanRecord> SpanRecorder::snapshot() const {
  std::vector<SpanRecord> out;
  for (const auto& ring : rings_) {
    // relaxed: advisory bound on how many slots hold data; a concurrent
    // writer past this read is caught by the seq validation per slot.
    const uint64_t head = ring.head.load(std::memory_order_relaxed);
    const uint64_t cap = static_cast<uint64_t>(opt_.ring_capacity);
    const uint64_t n = head < cap ? head : cap;
    for (uint64_t i = 0; i < n; ++i) {
      const Slot& s = ring.slots[i];
      const uint64_t seq1 = s.seq.load(std::memory_order_acquire);
      if (seq1 == 0 || (seq1 & 1) != 0) continue;  // empty or mid-write
      // Acquire payload loads keep the seq re-check below after the copy,
      // so it rejects any slot a writer touched meanwhile. (An acquire
      // fence would do the same, but ThreadSanitizer cannot model fences.)
      constexpr auto acq = std::memory_order_acquire;
      SpanRecord r;
      r.trace_hi = s.trace_hi.load(acq);
      r.trace_lo = s.trace_lo.load(acq);
      r.span_id = s.span_id.load(acq);
      r.parent_id = s.parent_id.load(acq);
      r.kind = static_cast<SpanKind>(s.kind.load(acq));
      r.t_start_ns = s.t_start_ns.load(acq);
      r.t_end_ns = s.t_end_ns.load(acq);
      r.tag = s.tag.load(acq);
      const uint64_t seq2 = s.seq.load(std::memory_order_acquire);
      if (seq1 != seq2) continue;  // torn: writer raced the copy
      out.push_back(r);
    }
  }
  return out;
}

void SpanRecorder::note_request(const TraceContext& ctx,
                                const std::vector<SpanRecord>& spans,
                                double total_ms) {
  if (!ctx.sampled() || opt_.slow_ms <= 0.0 || total_ms < opt_.slow_ms) return;
  RetainedTrace t;
  t.ctx = ctx;
  t.total_ms = total_ms;
  t.spans = spans;
  MutexLock lock(slow_mutex_);
  if (slow_.size() >= static_cast<size_t>(opt_.slow_capacity)) {
    slow_.pop_front();
  }
  slow_.push_back(std::move(t));
}

std::vector<RetainedTrace> SpanRecorder::slow_traces() const {
  MutexLock lock(slow_mutex_);
  return std::vector<RetainedTrace>(slow_.begin(), slow_.end());
}

uint64_t SpanRecorder::recorded() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    // relaxed: monotonic event count for reporting.
    total += ring.head.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t SpanRecorder::overwritten() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    // relaxed: monotonic event count for reporting.
    const uint64_t head = ring.head.load(std::memory_order_relaxed);
    const uint64_t cap = static_cast<uint64_t>(opt_.ring_capacity);
    if (head > cap) total += head - cap;
  }
  return total;
}

namespace {

void write_span(JsonWriter& w, const SpanRecord& s, bool to_wall) {
  const int64_t start = to_wall ? steady_to_wall_ns(s.t_start_ns) : s.t_start_ns;
  const int64_t end = to_wall ? steady_to_wall_ns(s.t_end_ns) : s.t_end_ns;
  w.begin_object();
  w.field("trace", trace_id_hex(s.trace_hi, s.trace_lo));
  w.field("span", span_id_hex(s.span_id));
  w.field("parent", span_id_hex(s.parent_id));
  w.field("kind", to_string(s.kind));
  w.field("start_ns", static_cast<uint64_t>(start));
  w.field("end_ns", static_cast<uint64_t>(end));
  w.field("tag", s.tag);
  w.end_object();
}

}  // namespace

std::string trace_dump_json(const SpanRecorder* r, const std::string& node) {
  JsonWriter w;
  w.begin_object();
  w.field("node", node);
  w.field("anchor_unix_ns", static_cast<uint64_t>(clock_anchor().wall_ns));
  w.field("recorded", r ? r->recorded() : uint64_t{0});
  w.field("overwritten", r ? r->overwritten() : uint64_t{0});
  w.key("spans");
  w.begin_array();
  for (const SpanRecord& s : r ? r->snapshot() : std::vector<SpanRecord>()) {
    write_span(w, s, /*to_wall=*/true);
  }
  w.end_array();
  w.key("slow");
  w.begin_array();
  for (const RetainedTrace& t : r ? r->slow_traces() : std::vector<RetainedTrace>()) {
    w.begin_object();
    w.field("trace", trace_id_hex(t.ctx));
    w.field("total_ms", t.total_ms);
    w.key("spans");
    w.begin_array();
    for (const SpanRecord& s : t.spans) write_span(w, s, /*to_wall=*/true);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace psw::obs
