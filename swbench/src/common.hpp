// Shared pieces of the benchmark binary: run configuration, exact
// percentiles over raw samples, the result record every workload fills,
// output checks and the per-layer ledger table.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/image.hpp"

namespace swbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // > 0: count-bounded run (every loop does exactly this many frames), used
  // by the self-test so seed-fixed counts can repeat exactly.
  int frames = 0;
  int setups = 3;      // set-up repetitions; setup_s is their median
  int cold_opens = 20; // cold opens of rotate and interactive (and coldmix's, with frames)
  int workers = 3;     // render workers: nproc - 1
};

// Per-frame samples in buffers reserved up front, so recording never
// allocates on the measured path. Each sample carries its completion time
// (seconds from the phase start). Percentiles are exact order statistics
// (nearest rank), never histogram bucket midpoints.
class Samples {
 public:
  explicit Samples(size_t n = 0) { reserve(n); }
  void reserve(size_t n) {
    v_.reserve(n);
    t_.reserve(n);
  }
  void add(double x, double t = 0.0) {
    v_.push_back(x);
    t_.push_back(t);
    sorted_.clear();
  }
  // Appends o's samples from index `from` on.
  void append(const Samples& o, size_t from = 0);
  size_t size() const { return v_.size(); }
  const std::vector<double>& times() const { return t_; }

  // Nearest-rank q-quantile (q in [0,1]); 0 when empty.
  double quantile(double q) const;
  // True when at least `min_above` samples lie strictly above the
  // q-quantile's rank, the rule for reporting a percentile.
  bool reportable(double q, size_t min_above = 10) const;
  double median() const { return quantile(0.5); }
  double max() const;

 private:
  std::vector<double> v_, t_;
  mutable std::vector<double> sorted_;  // sorted copy of v_, rebuilt lazily
};

// Frames per second robust to short bursts of host noise: the phase is cut
// into whole 1-second windows, and the mean of the middle half of their
// frame counts (completion times in seconds from the phase start) is
// returned; the overall rate when the phase holds fewer than three windows.
double median_window_rate(const std::vector<double>& done_at, double phase_s);

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one workload run returns. `end_to_end` and `per_layer` hold the
// metrics by name; a traced run fills `per_layer`, an untraced one
// `end_to_end`. `counts` are the seed-fixed counts the self-test compares.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // one line per failed check
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, uint64_t> counts;

  void fail(const std::string& why, uint64_t n = 1) {
    failed += n;
    if (errors.size() < 20) errors.push_back(why);
  }
  void put(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

// FNV-1a over an image's dimensions and pixel bytes: the frame identity
// every output check compares.
uint64_t image_hash(const psw::ImageU8& img);

// Peak resident set of this process, MiB.
double peak_rss_mib();

// splitmix64: derives the independent seeds of a run from --seed.
uint64_t mix_seed(uint64_t seed, uint64_t stream);

// The ledger: rows of per-frame costs whose window means at a percentile
// of the client-observed time, plus an explicit unattributed row, add up
// to that percentile exactly.
struct LedgerFrame {
  double client_ms = 0.0;
  std::vector<double> rows;  // one value per named row
};

// Prints one ledger table. `row_names` label LedgerFrame::rows. The columns
// are p50 and the highest percentile with >= 10 frames above it. Returns
// the median over frames of (client - sum of rows) / client.
double print_ledger(const std::string& title, const std::vector<std::string>& row_names,
                    const std::vector<LedgerFrame>& frames);

// Prints the end-to-end figures every workload shares and records them:
// fps, frame_ms_p50, frame_ms_p99, cold_ms_p50 and setup_s.
void report_end_to_end(const char* label, const Samples& frame_ms, double fps,
                       const Samples& cold_ms, const Samples& setup_s, RunResult* out);

// Prints a percentile line with its sample count and reportability.
void print_percentiles(const std::string& name, const Samples& s, const char* unit);

// p99 when at least 10 samples lie above it; otherwise the highest
// quantile that has 10 above it, or the maximum of a sample too small for
// any. *q_used (if non-null) receives the quantile used (1 = maximum).
double tail_quantile(const Samples& s, double* q_used);

}  // namespace swbench
