#include "obs/export.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "util/table.hpp"

namespace psw::obs {

namespace {

class JsonSink final : public MetricSink {
 public:
  explicit JsonSink(JsonWriter& w) : w_(w) {}
  void begin(const char* key) override { w_.key(key).begin_object(); }
  void begin_list(const char* key) override { w_.key(key).begin_array(); }
  void begin_item(const char* id_key, const char*, const std::string& id) override {
    w_.begin_object().field(id_key, id);
  }
  void end() override { w_.end_object(); }
  void end_list() override { w_.end_array(); }
  void counter(const char* key, const char*, uint64_t v) override { w_.field(key, v); }
  void gauge(const char* key, const char*, Value v) override {
    std::visit([&](auto x) { w_.field(key, x); }, v);
  }
  void histogram(const char* key, const char*, const LatencyHistogram& h) override {
    h.write_json(w_.key(key));
  }
  void raw(const char* key, const std::string& json) override {
    w_.key(key).raw(json.empty() ? "null" : json);
  }

 private:
  JsonWriter& w_;
};

// Each family (HELP, TYPE, samples) is kept whole, keyed and so ordered by
// name: the format wants every line of one metric together, and list items
// interleave them.
class PromSink final : public MetricSink {
 public:
  void begin(const char* key) override { path_.push_back(key); }
  void begin_list(const char* key) override { path_.push_back(key); }
  void begin_item(const char*, const char* label, const std::string& id) override {
    path_.emplace_back();  // an item adds a label, not a name segment
    label_ = std::string(label) + "=" + json_quote(id);
  }
  void end() override {
    if (path_.back().empty()) label_.clear();
    path_.pop_back();
  }
  void end_list() override { path_.pop_back(); }
  void counter(const char* key, const char* help, uint64_t v) override {
    const std::string name = family(key, "_total", help, "counter");
    sample(name, name, "", v);
  }
  void gauge(const char* key, const char* help, Value v) override {
    const std::string name = family(key, "", help, "gauge");
    sample(name, name, "", v);
  }
  void histogram(const char* key, const char* help, const LatencyHistogram& h) override {
    const std::string name = family(key, "", help, "summary");
    for (const ExportQuantile& q : kExportQuantiles) {
      sample(name, name, "quantile=\"" + number(q.q) + "\"", h.quantile_ms(q.q));
    }
    sample(name, name, "quantile=\"1\"", h.max_ms());
    sample(name, name + "_sum", "", h.sum_ms());
    sample(name, name + "_count", "", h.count());
  }
  void raw(const char*, const std::string&) override {}

  std::string str() const {
    std::string out;
    for (const auto& [name, text] : families_) out += text;
    return out;
  }

 private:
  // Integers exactly (a bool as 0/1), doubles in shortest round-trip form.
  static std::string number(Value v) {
    return std::visit(
        [](auto x) {
          char buf[32];
          return std::string(buf, std::to_chars(buf, buf + sizeof(buf), +x).ptr);
        },
        v);
  }

  // The name of `key` under the open path; starts its family with the HELP
  // and TYPE lines.
  std::string family(const char* key, const char* suffix, const char* help, const char* type) {
    std::string name = "psw";
    for (const std::string& segment : path_) name += segment.empty() ? "" : "_" + segment;
    name += std::string("_") + key + suffix;
    std::string& text = families_[name];
    if (text.empty()) {
      text = "# HELP " + name + " " + help + "\n# TYPE " + name + " " + type + "\n";
    }
    return name;
  }

  // One sample line of `family`, labelled with the open item's label and `extra`.
  void sample(const std::string& family, const std::string& name, const std::string& extra,
              Value v) {
    const std::string labels = label_ + (label_.empty() || extra.empty() ? "" : ",") + extra;
    families_[family] +=
        name + (labels.empty() ? "" : "{" + labels + "}") + " " + number(v) + "\n";
  }

  std::vector<std::string> path_;
  std::string label_;  // the open list item's label
  std::map<std::string, std::string> families_;
};

}  // namespace

void write_json(JsonWriter& w, FunctionRef<void(MetricSink&)> fill) {
  JsonSink sink(w);
  fill(sink);
}

std::string render_json(FunctionRef<void(MetricSink&)> fill) {
  JsonWriter w;
  w.begin_object();
  write_json(w, fill);
  w.end_object();
  return w.str();
}

std::string render_prometheus(FunctionRef<void(MetricSink&)> fill) {
  PromSink sink;
  fill(sink);
  return sink.str();
}

void export_recorder(MetricSink& sink, const SpanRecorder* recorder) {
  if (recorder == nullptr) return;
  sink.begin("trace");
  sink.counter("spans_recorded", "Spans recorded", recorder->recorded());
  sink.counter("spans_overwritten", "Spans lost to ring wrap", recorder->overwritten());
  sink.end();
}

int64_t TraceTree::start_ns() const {
  int64_t v = 0;
  for (const auto& s : spans) {
    if (v == 0 || s.t_start_ns < v) v = s.t_start_ns;
  }
  return v;
}

int64_t TraceTree::end_ns() const {
  int64_t v = 0;
  for (const auto& s : spans) {
    if (s.t_end_ns > v) v = s.t_end_ns;
  }
  return v;
}

double TraceTree::total_ms() const {
  return static_cast<double>(end_ns() - start_ns()) / 1e6;
}

double TraceTree::kind_ms(SpanKind k) const {
  double ms = 0.0;
  for (const auto& s : spans) {
    if (s.kind == k) ms += s.duration_ms();
  }
  return ms;
}

bool TraceTree::has_kind(SpanKind k) const {
  for (const auto& s : spans) {
    if (s.kind == k) return true;
  }
  return false;
}

std::vector<TraceTree> assemble_traces(std::vector<SpanRecord> spans) {
  // Group by trace id, preserving first-seen trace order; dedup span ids
  // within a trace (ring dump + flight recorder can both carry a span).
  std::vector<TraceTree> out;
  std::map<std::pair<uint64_t, uint64_t>, size_t> index;
  std::unordered_set<uint64_t> seen_span;
  for (const SpanRecord& s : spans) {
    const auto key = std::make_pair(s.trace_hi, s.trace_lo);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, out.size()).first;
      out.push_back(TraceTree{s.trace_hi, s.trace_lo, {}});
    }
    TraceTree& t = out[it->second];
    bool dup = false;
    for (const auto& existing : t.spans) {
      if (existing.span_id == s.span_id) {
        dup = true;
        break;
      }
    }
    if (!dup) t.spans.push_back(s);
  }
  for (TraceTree& t : out) {
    std::sort(t.spans.begin(), t.spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.t_start_ns != b.t_start_ns) return a.t_start_ns < b.t_start_ns;
                return a.span_id < b.span_id;
              });
  }
  return out;
}

namespace {

void format_span_line(std::string& out, const TraceTree& t,
                      const SpanRecord& s, int depth) {
  const double offset_ms =
      static_cast<double>(s.t_start_ns - t.start_ns()) / 1e6;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%*s%-13s %9.3f ms  +%8.3f ms  span=%s tag=%llu\n",
                depth * 2, "", to_string(s.kind), s.duration_ms(), offset_ms,
                span_id_hex(s.span_id).c_str(),
                static_cast<unsigned long long>(s.tag));
  out += buf;
}

void format_subtree(std::string& out, const TraceTree& t,
                    const std::unordered_map<uint64_t, std::vector<size_t>>& kids,
                    size_t idx, int depth) {
  const SpanRecord& s = t.spans[idx];
  format_span_line(out, t, s, depth);
  auto it = kids.find(s.span_id);
  if (it == kids.end() || depth > 16) return;
  for (size_t child : it->second) {
    format_subtree(out, t, kids, child, depth + 1);
  }
}

}  // namespace

std::string format_trace_tree(const TraceTree& t) {
  std::string out = "trace " + t.id_hex() + "  " + fmt(t.total_ms(), 3) +
                    " ms  " + std::to_string(t.spans.size()) + " spans\n";
  std::unordered_set<uint64_t> ids;
  for (const auto& s : t.spans) ids.insert(s.span_id);
  // parent span id -> children (span order is already by start time)
  std::unordered_map<uint64_t, std::vector<size_t>> kids;
  std::vector<size_t> roots;
  for (size_t i = 0; i < t.spans.size(); ++i) {
    const SpanRecord& s = t.spans[i];
    if (s.parent_id != 0 && s.parent_id != s.span_id &&
        ids.count(s.parent_id) != 0) {
      kids[s.parent_id].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  for (size_t r : roots) format_subtree(out, t, kids, r, 1);
  return out;
}

std::string format_phase_table(const TraceTree& t) {
  struct Phase {
    SpanKind kind;
    int count = 0;
    double total_ms = 0.0;
  };
  std::vector<Phase> phases;
  for (const auto& s : t.spans) {
    Phase* p = nullptr;
    for (auto& existing : phases) {
      if (existing.kind == s.kind) {
        p = &existing;
        break;
      }
    }
    if (p == nullptr) {
      phases.push_back(Phase{s.kind, 0, 0.0});
      p = &phases.back();
    }
    p->count += 1;
    p->total_ms += s.duration_ms();
  }
  std::sort(phases.begin(), phases.end(),
            [](const Phase& a, const Phase& b) { return a.total_ms > b.total_ms; });
  const double extent_ms = t.total_ms();
  TextTable table({"phase", "spans", "total ms", "% of request"});
  for (const auto& p : phases) {
    const double share = extent_ms > 0.0 ? 100.0 * p.total_ms / extent_ms : 0.0;
    table.add_row({to_string(p.kind), std::to_string(p.count),
                   fmt(p.total_ms, 3), fmt(share, 1)});
  }
  return table.to_string();
}

}  // namespace psw::obs
