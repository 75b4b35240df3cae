#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace swbench {

static size_t rank_of(double q, size_t n) {
  // Nearest rank: the smallest index whose cumulative share reaches q.
  const double r = std::ceil(q * static_cast<double>(n));
  return std::min(n - 1, static_cast<size_t>(std::max(1.0, r)) - 1);
}

void Samples::append(const Samples& o, size_t from) {
  v_.insert(v_.end(), o.v_.begin() + static_cast<std::ptrdiff_t>(from), o.v_.end());
  t_.insert(t_.end(), o.t_.begin() + static_cast<std::ptrdiff_t>(from), o.t_.end());
  sorted_.clear();
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  if (sorted_.size() != v_.size()) {
    sorted_ = v_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  return sorted_[rank_of(q, v_.size())];
}

bool Samples::reportable(double q, size_t min_above) const {
  if (v_.empty()) return false;
  return v_.size() - 1 - rank_of(q, v_.size()) >= min_above;
}

double Samples::max() const {
  return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end());
}

double median_window_rate(const std::vector<double>& done_at, double phase_s) {
  const size_t windows = static_cast<size_t>(phase_s);
  if (windows < 3) return static_cast<double>(done_at.size()) / phase_s;
  std::vector<double> count(windows, 0.0);
  for (double t : done_at) {
    if (t >= 0 && t < static_cast<double>(windows)) count[static_cast<size_t>(t)] += 1.0;
  }
  // Interquartile mean: the middle half of the windows, sorted by rate.
  std::sort(count.begin(), count.end());
  const size_t lo = windows / 4, hi = windows - windows / 4;
  return std::accumulate(count.begin() + lo, count.begin() + hi, 0.0) /
         static_cast<double>(hi - lo);
}

double tail_quantile(const Samples& s, double* q_used) {
  double q = 0.99;
  if (!s.reportable(q)) {
    q = s.size() > 21 ? 1.0 - 11.0 / static_cast<double>(s.size()) : 1.0;
  }
  if (q_used) *q_used = q;
  return s.quantile(q);
}

void print_percentiles(const std::string& name, const Samples& s, const char* unit) {
  double q = 0.99;
  const double tail = tail_quantile(s, &q);
  char label[16];
  std::snprintf(label, sizeof(label), q < 1.0 ? "p%.3g" : "max", q * 100.0);
  std::printf("  %-30s p50 %9.3f %s  %-6s %9.3f %s  n=%zu%s", name.c_str(), s.median(), unit,
              label, tail, unit, s.size(),
              s.reportable(0.5) ? "" : "  (fewer than 10 samples above p50)");
  std::printf("\n");
}

uint64_t image_hash(const psw::ImageU8& img) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const int32_t dims[2] = {img.width(), img.height()};
  mix(reinterpret_cast<const uint8_t*>(dims), sizeof(dims));
  mix(reinterpret_cast<const uint8_t*>(img.data()), img.pixel_count() * sizeof(psw::Pixel8));
  return h;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t mix_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void report_end_to_end(const char* label, const Samples& frame_ms, double fps,
                       const Samples& cold_ms, const Samples& setup_s, RunResult* out) {
  std::printf("  fps %.2f\n", fps);
  print_percentiles(label, frame_ms, "ms");
  print_percentiles("cold_ms (due -> first frame)", cold_ms, "ms");
  std::printf("  setup_s median %.3f s over %zu set-ups\n", setup_s.median(), setup_s.size());
  out->put("fps", fps, "frames/s");
  out->put("frame_ms_p50", frame_ms.median(), "ms");
  out->put("frame_ms_p99", tail_quantile(frame_ms, nullptr), "ms");
  out->put("cold_ms_p50", cold_ms.median(), "ms");
  out->put("setup_s", setup_s.median(), "s");
}

double print_ledger(const std::string& title, const std::vector<std::string>& row_names,
                    const std::vector<LedgerFrame>& frames) {
  if (frames.empty()) {
    std::printf("\n  ledger: %s — no sampled frames\n", title.c_str());
    return 0.0;
  }
  std::vector<size_t> order(frames.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return frames[a].client_ms < frames[b].client_ms;
  });
  Samples client(frames.size());
  Samples unattributed_share(frames.size());
  for (const LedgerFrame& f : frames) {
    client.add(f.client_ms);
    const double named = std::accumulate(f.rows.begin(), f.rows.end(), 0.0);
    unattributed_share.add(f.client_ms > 0 ? (f.client_ms - named) / f.client_ms : 0.0);
  }
  double tail_q = 0.99;
  tail_quantile(client, &tail_q);
  const double qs[2] = {0.5, tail_q};
  // Window of frames around each percentile's rank: +-2.5% of the frames
  // (at least 2 on each side), clipped to the sample.
  std::vector<double> col[2];
  double pval[2];
  const size_t n = frames.size();
  const size_t half = std::max<size_t>(2, n / 40);
  for (int c = 0; c < 2; ++c) {
    pval[c] = client.quantile(qs[c]);
    const size_t rank = rank_of(qs[c], n);
    const size_t lo = rank > half ? rank - half : 0;
    const size_t hi = std::min(n, rank + half + 1);
    col[c].assign(row_names.size(), 0.0);
    for (size_t i = lo; i < hi; ++i) {
      const LedgerFrame& f = frames[order[i]];
      for (size_t r = 0; r < row_names.size(); ++r) col[c][r] += f.rows[r];
    }
    for (double& x : col[c]) x /= static_cast<double>(hi - lo);
  }
  std::printf("\n  ledger: %s (%zu sampled frames; rows are means over the frames "
              "ranked within +-%zu of each percentile)\n",
              title.c_str(), n, half);
  char tail_label[32];
  std::snprintf(tail_label, sizeof(tail_label), tail_q < 1.0 ? "p%.3g ms" : "max ms",
                tail_q * 100.0);
  std::printf("    %-34s %10s %10s\n", "row", "p50 ms", tail_label);
  for (size_t r = 0; r < row_names.size(); ++r) {
    std::printf("    %-34s %10.3f %10.3f\n", row_names[r].c_str(), col[0][r], col[1][r]);
  }
  double named[2] = {0.0, 0.0};
  for (int c = 0; c < 2; ++c) {
    named[c] = std::accumulate(col[c].begin(), col[c].end(), 0.0);
  }
  std::printf("    %-34s %10.3f %10.3f\n", "unattributed", pval[0] - named[0],
              pval[1] - named[1]);
  std::printf("    %-34s %10.3f %10.3f\n", "= client-observed", pval[0], pval[1]);
  const double frac = unattributed_share.median();
  std::printf("    ledger.unattributed_frac (median over frames) %.4f\n", frac);
  return frac;
}

}  // namespace swbench
