// Metrics export, and reassembly for the tracing subsystem.
//
// Each metrics struct lists every quantity once, in an
// export_to(MetricSink&) naming its JSON key, kind and help text; the sinks
// render that listing as the JSON document and as the Prometheus text
// exposition. The serving layers own the listings, keeping obs below
// serve/net/cluster in the dependency order.
// assemble_traces/format_trace_tree turn span dumps from any number of
// processes (router + shards) back into per-request trees with a
// phase-breakdown table — shared by tools/traceview and the tests.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "obs/trace.hpp"
#include "util/function_ref.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"

namespace psw::obs {

// Receives one metrics listing. The Prometheus rendering names a series
// "psw_" + its JSON path joined by '_' ("_total" on counters) and renders a
// histogram as one summary: the kExportQuantiles, max as quantile 1, _sum
// and _count.
class MetricSink {
 public:
  using Value = std::variant<uint64_t, int64_t, double, bool>;  // typed as JSON writes it

  virtual ~MetricSink() = default;
  virtual void begin(const char* key) = 0;  // a nested object, until end()
  // A list, until end_list(), of items: objects, until end(), whose JSON
  // member `id_key` is `id` — in Prometheus, the label `label`="id".
  virtual void begin_list(const char* key) = 0;
  virtual void begin_item(const char* id_key, const char* label, const std::string& id) = 0;
  virtual void end() = 0;
  virtual void end_list() = 0;
  virtual void counter(const char* key, const char* help, uint64_t v) = 0;
  virtual void gauge(const char* key, const char* help, Value v) = 0;
  virtual void histogram(const char* key, const char* help, const LatencyHistogram& h) = 0;
  // JSON only: a value serialized already, embedded verbatim (null when empty).
  virtual void raw(const char* key, const std::string& json) = 0;
};

// The listing `fill` emits: written into the object open in `w`, as one JSON
// object, or as Prometheus text.
void write_json(JsonWriter& w, FunctionRef<void(MetricSink&)> fill);
std::string render_json(FunctionRef<void(MetricSink&)> fill);
std::string render_prometheus(FunctionRef<void(MetricSink&)> fill);

// The span-recorder counters as a "trace" object; nothing without a recorder.
void export_recorder(MetricSink& sink, const SpanRecorder* recorder);

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
