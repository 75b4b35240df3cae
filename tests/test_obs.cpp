// Tests for the tracing subsystem (src/obs): identity and hex round-trips,
// the clock anchor, the allocation-disciplined SpanRecorder (unsampled =>
// nothing recorded; rings overwrite, never grow), the flight recorder, the
// JSON dump, Prometheus exposition, and cross-dump trace reassembly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/histogram.hpp"
#include "util/json_parse.hpp"
#include "util/timer.hpp"

namespace psw::obs {
namespace {

SpanRecord make_span(const TraceContext& ctx, SpanKind kind, int64_t start,
                     int64_t end, uint64_t parent = 0, uint64_t tag = 0) {
  SpanRecord s;
  s.trace_hi = ctx.trace_hi;
  s.trace_lo = ctx.trace_lo;
  s.span_id = next_span_id();
  s.parent_id = parent;
  s.kind = kind;
  s.t_start_ns = start;
  s.t_end_ns = end;
  s.tag = tag;
  return s;
}

// --- identity ---------------------------------------------------------------

TEST(TraceIdentity, SampledTraceIsValidAndRooted) {
  uint64_t root = 0;
  const TraceContext ctx = make_sampled_trace(&root);
  EXPECT_TRUE(ctx.valid());
  EXPECT_TRUE(ctx.sampled());
  EXPECT_NE(root, 0u);
  EXPECT_EQ(ctx.parent_span, root);
}

TEST(TraceIdentity, DefaultContextIsUnsampled) {
  const TraceContext ctx;
  EXPECT_FALSE(ctx.valid());
  EXPECT_FALSE(ctx.sampled());
}

TEST(TraceIdentity, SpanIdsAreUniqueAndNonzero) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t id = next_span_id();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second);
  }
}

TEST(TraceIdentity, TraceIdsAreDistinct) {
  const TraceContext a = make_sampled_trace();
  const TraceContext b = make_sampled_trace();
  EXPECT_TRUE(a.trace_hi != b.trace_hi || a.trace_lo != b.trace_lo);
}

TEST(TraceIdentity, HexRoundTrip) {
  const TraceContext ctx = make_sampled_trace();
  const std::string hex = trace_id_hex(ctx);
  EXPECT_EQ(hex.size(), 32u);
  uint64_t hi = 0, lo = 0;
  ASSERT_TRUE(parse_trace_id(hex, &hi, &lo));
  EXPECT_EQ(hi, ctx.trace_hi);
  EXPECT_EQ(lo, ctx.trace_lo);

  const uint64_t span = next_span_id();
  uint64_t parsed = 0;
  ASSERT_TRUE(parse_hex_u64(span_id_hex(span), &parsed));
  EXPECT_EQ(parsed, span);
}

TEST(TraceIdentity, ParseRejectsGarbage) {
  uint64_t hi = 0, lo = 0;
  EXPECT_FALSE(parse_trace_id("not-hex", &hi, &lo));
  EXPECT_FALSE(parse_trace_id("", &hi, &lo));
  uint64_t v = 0;
  EXPECT_FALSE(parse_hex_u64("12345678901234567", &v));  // 17 digits
  EXPECT_FALSE(parse_hex_u64("xyz", &v));
}

TEST(TraceIdentity, KindNamesRoundTrip) {
  for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    EXPECT_EQ(span_kind_from(to_string(kind)), kind) << to_string(kind);
  }
  EXPECT_EQ(span_kind_from("no-such-kind"), SpanKind::kCount);
}

// --- clock anchor -----------------------------------------------------------

TEST(ClockAnchor, SteadyToWallPreservesIntervals) {
  const int64_t s0 = steady_now_ns();
  const int64_t s1 = s0 + 5'000'000;  // +5 ms on the steady clock
  const int64_t w0 = steady_to_wall_ns(s0);
  const int64_t w1 = steady_to_wall_ns(s1);
  // The anchor is a constant offset: intervals must map exactly.
  EXPECT_EQ(w1 - w0, s1 - s0);
}

TEST(ClockAnchor, MappedNowIsNearSystemClock) {
  const int64_t mapped = steady_to_wall_ns(steady_now_ns());
  const int64_t wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
  // An independent system_clock reading at the same instant: the anchored
  // mapping must agree to well under a second (the slack is scheduling
  // between the two calls plus anchor-capture jitter at process start).
  EXPECT_LT(std::abs(mapped - wall), 1'000'000'000ll);
}

// --- recorder ---------------------------------------------------------------

TEST(SpanRecorder, UnsampledRecordsNothing) {
  SpanRecorder rec;
  const TraceContext unsampled;  // invalid => never sampled
  for (int i = 0; i < 100; ++i) {
    rec.record(unsampled, make_span(unsampled, SpanKind::kComposite, 0, 10));
  }
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(SpanRecorder, SampledSpansComeBackInSnapshot) {
  SpanRecorder rec;
  const TraceContext ctx = make_sampled_trace();
  const SpanRecord s = make_span(ctx, SpanKind::kWarp, 100, 350, 7, 42);
  rec.record(ctx, s);
  ASSERT_EQ(rec.recorded(), 1u);
  const std::vector<SpanRecord> got = rec.snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].span_id, s.span_id);
  EXPECT_EQ(got[0].parent_id, 7u);
  EXPECT_EQ(got[0].kind, SpanKind::kWarp);
  EXPECT_EQ(got[0].t_start_ns, 100);
  EXPECT_EQ(got[0].t_end_ns, 350);
  EXPECT_EQ(got[0].tag, 42u);
}

TEST(SpanRecorder, FullRingOverwritesOldestInsteadOfGrowing) {
  SpanRecorder::Options opt;
  opt.rings = 1;
  opt.ring_capacity = 8;
  SpanRecorder rec(opt);
  const TraceContext ctx = make_sampled_trace();
  for (int i = 0; i < 20; ++i) {
    rec.record(ctx, make_span(ctx, SpanKind::kSend, i, i + 1));
  }
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);
  const std::vector<SpanRecord> got = rec.snapshot();
  EXPECT_EQ(got.size(), 8u);  // capacity, not total
  for (const SpanRecord& s : got) {
    EXPECT_GE(s.t_start_ns, 12);  // only the newest survive
  }
}

TEST(SpanRecorder, ConcurrentWritersLoseNothingBelowCapacity) {
  SpanRecorder::Options opt;
  opt.rings = 8;
  opt.ring_capacity = 4'096;
  SpanRecorder rec(opt);
  const TraceContext ctx = make_sampled_trace();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, &ctx, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.record(ctx, make_span(ctx, SpanKind::kComposite,
                                  t * kPerThread + i, t * kPerThread + i + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rec.recorded(), static_cast<uint64_t>(kThreads * kPerThread));
  // Worst case every thread hashes onto one ring; capacity still covers it.
  EXPECT_EQ(rec.overwritten(), 0u);
  EXPECT_EQ(rec.snapshot().size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(SpanRecorder, FlightRecorderKeepsOnlySlowRequests) {
  SpanRecorder::Options opt;
  opt.slow_ms = 50.0;
  opt.slow_capacity = 2;
  SpanRecorder rec(opt);
  const TraceContext fast = make_sampled_trace();
  rec.note_request(fast, {make_span(fast, SpanKind::kRequest, 0, 1)}, 10.0);
  EXPECT_TRUE(rec.slow_traces().empty());

  TraceContext slow[3];
  for (int i = 0; i < 3; ++i) {
    slow[i] = make_sampled_trace();
    rec.note_request(slow[i], {make_span(slow[i], SpanKind::kRequest, 0, 1)},
                     60.0 + i);
  }
  const std::vector<RetainedTrace> kept = rec.slow_traces();
  ASSERT_EQ(kept.size(), 2u);  // capacity evicts the oldest
  EXPECT_EQ(kept[0].ctx.trace_lo, slow[1].trace_lo);
  EXPECT_EQ(kept[1].ctx.trace_lo, slow[2].trace_lo);
  EXPECT_DOUBLE_EQ(kept[1].total_ms, 62.0);
}

TEST(SpanRecorder, DisabledFlightRecorderRetainsNothing) {
  SpanRecorder rec;  // slow_ms = 0 disables
  const TraceContext ctx = make_sampled_trace();
  rec.note_request(ctx, {make_span(ctx, SpanKind::kRequest, 0, 1)}, 1e9);
  EXPECT_TRUE(rec.slow_traces().empty());
}

TEST(SpanRecorder, DumpJsonParsesAndWallAnchorsTimestamps) {
  SpanRecorder::Options opt;
  opt.slow_ms = 1.0;
  SpanRecorder rec(opt);
  const TraceContext ctx = make_sampled_trace();
  const int64_t start = steady_now_ns();
  const SpanRecord s = make_span(ctx, SpanKind::kCacheBuild, start,
                                 start + 2'000'000, ctx.parent_span, 5);
  rec.record(ctx, s);
  rec.note_request(ctx, {s}, 2.0);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(trace_dump_json(&rec, "unit"), &doc, &error)) << error;
  EXPECT_EQ(doc.find("node")->as_string(), "unit");
  EXPECT_EQ(doc.find("recorded")->as_u64(), 1u);
  const JsonValue* spans = doc.find("spans");
  ASSERT_TRUE(spans != nullptr && spans->is_array());
  ASSERT_EQ(spans->items.size(), 1u);
  const JsonValue& js = spans->items[0];
  EXPECT_EQ(js.find("trace")->as_string(), trace_id_hex(ctx));
  EXPECT_EQ(js.find("kind")->as_string(), "cache-build");
  // Exported timestamps are wall ns: interval preserved, value shifted by
  // the anchor (i.e. no longer the raw steady reading).
  const int64_t ws = static_cast<int64_t>(js.find("start_ns")->as_u64());
  const int64_t we = static_cast<int64_t>(js.find("end_ns")->as_u64());
  EXPECT_EQ(we - ws, 2'000'000);
  EXPECT_EQ(ws, steady_to_wall_ns(start));
  const JsonValue* slow = doc.find("slow");
  ASSERT_TRUE(slow != nullptr && slow->is_array());
  ASSERT_EQ(slow->items.size(), 1u);
  EXPECT_EQ(slow->items[0].find("trace")->as_string(), trace_id_hex(ctx));
}

// --- Prometheus exposition --------------------------------------------------

TEST(PromText, EmitsHelpTypeAndSamples) {
  LatencyHistogram h;
  h.record_ms(1.0);
  h.record_ms(3.0);
  const std::string out = render_prometheus([&](MetricSink& s) {
    s.counter("widgets", "Widgets made", 3);
    s.begin_list("bins");
    for (const char* id : {"a", "b"}) {
      s.begin_item("id", "bin", id);
      s.counter("widgets", "Widgets per bin", 4);
      s.gauge("depth", "Bin depth", 2.5);
      s.end();
    }
    s.end_list();
    s.begin("queue");
    s.histogram("wait_ms", "Wait", h);
    s.raw("state", "\"idle\"");
    s.end();
    s.gauge("big", "Past 2^32", uint64_t{12'345'678'901});
    s.gauge("ratio", "A third", 1.0 / 3.0);
  });
  // Names derive from the listing path; counters end in _total.
  EXPECT_NE(out.find("# TYPE psw_widgets_total counter\npsw_widgets_total 3\n"),
            std::string::npos);
  // One HELP/TYPE header per family, its labeled samples kept together
  // although the listing interleaves the families per item.
  EXPECT_EQ(out.find("# HELP psw_bins_widgets_total"),
            out.rfind("# HELP psw_bins_widgets_total"));
  EXPECT_NE(out.find("psw_bins_widgets_total{bin=\"a\"} 4\n"
                     "psw_bins_widgets_total{bin=\"b\"} 4\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE psw_bins_depth gauge\npsw_bins_depth{bin=\"a\"} 2.5\n"),
            std::string::npos);
  // A histogram is one summary: the shared quantiles, max as quantile 1,
  // _sum and _count.
  EXPECT_NE(out.find("# TYPE psw_queue_wait_ms summary"), std::string::npos);
  for (const char* q : {"0.5", "0.95", "0.99", "1"}) {
    EXPECT_NE(out.find("psw_queue_wait_ms{quantile=\"" + std::string(q) + "\"} "),
              std::string::npos)
        << q;
  }
  EXPECT_NE(out.find("psw_queue_wait_ms{quantile=\"1\"} 3\n"), std::string::npos);
  EXPECT_NE(out.find("psw_queue_wait_ms_sum 4\n"), std::string::npos);
  EXPECT_NE(out.find("psw_queue_wait_ms_count 2\n"), std::string::npos);
  // Strings are JSON-only; numbers print exactly (integers in full,
  // doubles in their shortest round-trip form).
  EXPECT_EQ(out.find("state"), std::string::npos);
  EXPECT_NE(out.find("psw_big 12345678901\n"), std::string::npos);
  EXPECT_NE(out.find("psw_ratio 0.3333333333333333\n"), std::string::npos);
}

// --- reassembly -------------------------------------------------------------

TEST(Reassembly, GroupsByTraceAndDedupsSpans) {
  const TraceContext a = make_sampled_trace();
  const TraceContext b = make_sampled_trace();
  const SpanRecord ra = make_span(a, SpanKind::kRequest, 100, 300);
  const SpanRecord rb = make_span(b, SpanKind::kRequest, 50, 80);
  // ra appears twice (ring dump + flight recorder): must dedup to one.
  std::vector<TraceTree> trees = assemble_traces({ra, rb, ra});
  ASSERT_EQ(trees.size(), 2u);
  for (const TraceTree& t : trees) {
    EXPECT_EQ(t.spans.size(), 1u);
  }
}

TEST(Reassembly, TreeAndPhaseTableCoverTheRequest) {
  uint64_t root = 0;
  const TraceContext ctx = make_sampled_trace(&root);
  SpanRecord request = make_span(ctx, SpanKind::kRequest, 1'000'000, 9'000'000,
                                 root, 1);
  SpanRecord queue = make_span(ctx, SpanKind::kQueueWait, 1'000'000, 2'000'000,
                               request.span_id, 1);
  SpanRecord comp = make_span(ctx, SpanKind::kComposite, 2'000'000, 6'000'000,
                              request.span_id, 1);
  SpanRecord warp = make_span(ctx, SpanKind::kWarp, 6'000'000, 8'000'000,
                              request.span_id, 1);
  SpanRecord proxy = make_span(ctx, SpanKind::kRouterProxy, 500'000, 9'500'000,
                               root, 1);
  std::vector<TraceTree> trees =
      assemble_traces({warp, request, proxy, queue, comp});
  ASSERT_EQ(trees.size(), 1u);
  const TraceTree& t = trees[0];
  EXPECT_EQ(t.spans.size(), 5u);
  EXPECT_EQ(t.start_ns(), 500'000);
  EXPECT_EQ(t.end_ns(), 9'500'000);
  EXPECT_DOUBLE_EQ(t.total_ms(), 9.0);
  EXPECT_DOUBLE_EQ(t.kind_ms(SpanKind::kComposite), 4.0);
  EXPECT_TRUE(t.has_kind(SpanKind::kRouterProxy));
  EXPECT_FALSE(t.has_kind(SpanKind::kCacheBuild));

  const std::string tree = format_trace_tree(t);
  // Stage spans are indented under the request span; the proxy span (same
  // root parent) stays a sibling at the top level.
  const size_t at_request = tree.find("request");
  const size_t at_comp = tree.find("composite");
  ASSERT_NE(at_request, std::string::npos);
  ASSERT_NE(at_comp, std::string::npos);
  EXPECT_NE(tree.find("router-proxy"), std::string::npos);
  EXPECT_NE(tree.find("\n    composite"), std::string::npos);  // indented child

  const std::string table = format_phase_table(t);
  EXPECT_NE(table.find("composite"), std::string::npos);
  EXPECT_NE(table.find("44.4"), std::string::npos);  // 4 of 9 ms
}

TEST(Reassembly, SpansWithAbsentParentRootTheTree) {
  const TraceContext ctx = make_sampled_trace();
  // Parent id points at a span that never made it into the dump (ring
  // overwrite): the span must still be printed, as a root.
  SpanRecord orphan = make_span(ctx, SpanKind::kWarp, 10, 20, 0xdeadbeef);
  std::vector<TraceTree> trees = assemble_traces({orphan});
  ASSERT_EQ(trees.size(), 1u);
  const std::string tree = format_trace_tree(trees[0]);
  EXPECT_NE(tree.find("warp"), std::string::npos);
}

}  // namespace
}  // namespace psw::obs
