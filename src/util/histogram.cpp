#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/json.hpp"

namespace psw {

LatencyHistogram& LatencyHistogram::operator=(const LatencyHistogram& o) {
  if (this == &o) return *this;
  // relaxed: copying takes an advisory telemetry snapshot — fields may tear
  // against concurrent recorders, and the copy publishes no other memory.
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[b].store(o.buckets_[b].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  // relaxed: same snapshot rationale as the buckets above.
  count_.store(o.count_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  sum_ms_.store(o.sum_ms_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  max_ms_.store(o.max_ms_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  return *this;
}

int LatencyHistogram::bucket_for(double ms) {
  if (!(ms > kMinMs)) return 0;
  // Four buckets per power of two: index = floor(4 * log2(ms / kMinMs)).
  const int b = static_cast<int>(4.0 * std::log2(ms / kMinMs));
  return std::clamp(b, 0, kBuckets - 1);
}

double LatencyHistogram::bucket_lo(int b) { return kMinMs * std::exp2(b / 4.0); }

void LatencyHistogram::record_ms(double ms) {
  if (!(ms >= 0.0)) ms = 0.0;  // negative/NaN clock glitches clamp to zero
  // relaxed: independent statistic counters; atomic RMWs keep them exact
  // and no reader infers ordering of other memory from them.
  buckets_[bucket_for(ms)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ms_.fetch_add(ms, std::memory_order_relaxed);
  // relaxed: max is a monotonic watermark — the CAS loop retries on races,
  // and readers need no ordering with the other fields.
  double prev = max_ms_.load(std::memory_order_relaxed);
  while (ms > prev &&
         !max_ms_.compare_exchange_weak(prev, ms, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (this == &other) return;
  // relaxed: merge reads a quiescent (or snapshot) source into independent
  // counters; atomic RMWs keep the totals exact, nothing else is published.
  for (int b = 0; b < kBuckets; ++b) {
    const uint64_t n = other.buckets_[b].load(std::memory_order_relaxed);
    if (n != 0) buckets_[b].fetch_add(n, std::memory_order_relaxed);
  }
  // relaxed: same rationale for the scalar totals.
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_ms_.fetch_add(other.sum_ms_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  // relaxed: monotonic max watermark, CAS retry as in record_ms.
  const double other_max = other.max_ms_.load(std::memory_order_relaxed);
  double prev = max_ms_.load(std::memory_order_relaxed);
  while (other_max > prev &&
         !max_ms_.compare_exchange_weak(prev, other_max, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::mean_ms() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum_ms() / static_cast<double>(n);
}

double LatencyHistogram::quantile_ms(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, ceil), as in nearest-rank quantiles.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))));
  uint64_t seen = 0;
  // relaxed: quantiles are approximate by design — a concurrent recorder
  // moving a bucket mid-scan shifts the answer by one sample at most.
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Geometric midpoint of [lo, lo * 2^(1/4)); clamp to observed max.
      return std::min(bucket_lo(b) * std::exp2(0.125), max_ms());
    }
  }
  return max_ms();
}

void LatencyHistogram::write_json(JsonWriter& w) const {
  w.begin_object().field("count", count()).field("mean_ms", mean_ms());
  for (const ExportQuantile& q : kExportQuantiles) w.field(q.json_key, quantile_ms(q.q));
  w.field("max_ms", max_ms()).end_object();
}

}  // namespace psw
