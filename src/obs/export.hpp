// Exporters and reassembly for the tracing subsystem.
//
// PromText builds a Prometheus text-exposition document (counters, gauges,
// and latency summaries from util/histogram.hpp); the serving layers feed
// it their own metrics structs, keeping obs below serve/net/cluster in the
// dependency order. assemble_traces/format_trace_tree turn span dumps from
// any number of processes (router + shards) back into per-request trees
// with a phase-breakdown table — shared by tools/traceview and the tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/histogram.hpp"

namespace psw::obs {

class PromText {
 public:
  // `labels` is the raw label body without braces, e.g. "shard=\"0\"".
  void counter(const std::string& name, const std::string& help, uint64_t v,
               const std::string& labels = "");
  void gauge(const std::string& name, const std::string& help, double v,
             const std::string& labels = "");
  // Prometheus summary: q50/q90/q99 quantile samples plus _sum and _count.
  // Values stay in milliseconds (the unit is in the metric name).
  void summary_ms(const std::string& name, const std::string& help,
                  const LatencyHistogram& h, const std::string& labels = "");
  // The span-recorder counters, when a recorder is attached.
  void recorder_counters(const SpanRecorder* recorder);

  const std::string& str() const { return out_; }

 private:
  void header(const std::string& name, const std::string& help,
              const char* type);
  void sample(const std::string& name, const std::string& labels, double v);

  std::vector<std::string> seen_;  // names with emitted HELP/TYPE headers
  std::string out_;
};

// One reassembled request: every span sharing a trace id, deduplicated by
// span id (the same span can appear in a ring dump and the flight
// recorder) and sorted by start time.
struct TraceTree {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  std::vector<SpanRecord> spans;

  std::string id_hex() const { return trace_id_hex(trace_hi, trace_lo); }
  // The request's time extent: [min start, max end] across all spans.
  int64_t start_ns() const;
  int64_t end_ns() const;
  double total_ms() const;
  // Summed duration of spans of one kind (0 when absent).
  double kind_ms(SpanKind k) const;
  bool has_kind(SpanKind k) const;
};

// Groups spans by trace id. Spans may come from multiple dumps with a
// shared wall-clock axis (trace_dump_json exports wall ns).
std::vector<TraceTree> assemble_traces(std::vector<SpanRecord> spans);

// Indented per-request tree: parentage from span ids, children ordered by
// start time; spans whose parent is absent from the dump root the tree.
std::string format_trace_tree(const TraceTree& t);

// Phase-breakdown table (kind, count, total ms, share of the request's
// time extent), widest phases first. Uses util/table.hpp.
std::string format_phase_table(const TraceTree& t);

}  // namespace psw::obs
