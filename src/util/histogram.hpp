// Lock-free latency histogram for the frame-serving telemetry: geometric
// buckets from 1 µs to ~70 minutes, atomic counters so concurrent recorders
// (submitters, the scheduler) never serialize on a lock. Quantiles are
// approximate (bucket resolution ~19%, ratio 2^(1/4)); count/sum/max are
// exact.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace psw {

class JsonWriter;

// The quantiles every histogram export reports: the JSON members
// (p50_ms, ...) and the Prometheus summary's quantile samples.
struct ExportQuantile {
  double q;
  const char* json_key;
};
inline constexpr ExportQuantile kExportQuantiles[] = {
    {0.50, "p50_ms"}, {0.95, "p95_ms"}, {0.99, "p99_ms"}};

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 128;
  static constexpr double kMinMs = 1e-3;  // bucket 0 lower bound: 1 µs

  LatencyHistogram() = default;

  // Copying snapshots the atomics (for export under concurrent recording).
  LatencyHistogram(const LatencyHistogram& o) { *this = o; }
  LatencyHistogram& operator=(const LatencyHistogram& o);

  void record_ms(double ms);

  // Adds `other`'s samples into this histogram (bucket-wise; count/sum add,
  // max takes the larger). Lets per-connection histograms recorded without
  // any shared lock aggregate into service-wide quantiles at export time.
  // `other` should be quiescent or a snapshot copy; concurrent recording
  // into *this* stays safe (all updates are atomic RMWs).
  void merge(const LatencyHistogram& other);

  // relaxed: advisory telemetry reads — each field is independently exact,
  // and cross-field consistency is not promised to readers.
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_ms() const { return sum_ms_.load(std::memory_order_relaxed); }
  double max_ms() const { return max_ms_.load(std::memory_order_relaxed); }
  double mean_ms() const;

  // q in [0, 1]; returns the geometric midpoint of the bucket holding the
  // q-th sample (0 when empty).
  double quantile_ms(double q) const;

  // Writes {count, mean_ms, the kExportQuantiles, max_ms} as one object
  // value (caller positions the writer at a value slot).
  void write_json(JsonWriter& w) const;

 private:
  static int bucket_for(double ms);
  static double bucket_lo(int b);

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_ms_{0.0};
  std::atomic<double> max_ms_{0.0};
};

}  // namespace psw
