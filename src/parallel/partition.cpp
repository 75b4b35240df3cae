#include "parallel/partition.hpp"

#include <algorithm>
#include <cmath>

namespace psw {

void prefix_sum_into(const std::vector<uint32_t>& cost, std::vector<uint64_t>* out) {
  out->assign(cost.size() + 1, 0);
  for (size_t i = 0; i < cost.size(); ++i) (*out)[i + 1] = (*out)[i] + cost[i];
}

void prefix_sum_parallel_into(const std::vector<uint32_t>& cost, Executor& exec,
                              PartitionScratch* scratch) {
  const int P = exec.procs();
  const size_t n = cost.size();
  if (P <= 1 || n < static_cast<size_t>(4 * P)) {
    prefix_sum_into(cost, &scratch->cum);
    return;
  }

  std::vector<uint64_t>& out = scratch->cum;
  std::vector<uint64_t>& block_sum = scratch->block_sum;
  out.assign(n + 1, 0);
  block_sum.assign(P, 0);
  const size_t block = (n + P - 1) / P;

  // Pass 1: per-block local prefix into out[1..], plus block totals.
  exec.run([&](int p) {
    const size_t lo = std::min(n, p * block);
    const size_t hi = std::min(n, lo + block);
    uint64_t acc = 0;
    for (size_t i = lo; i < hi; ++i) {
      acc += cost[i];
      out[i + 1] = acc;
    }
    block_sum[p] = acc;
  });

  // Scan of block sums (P entries; serial is fine and matches the paper's
  // logarithmic prefix step cost being negligible).
  std::vector<uint64_t>& block_base = scratch->block_base;
  block_base.assign(P + 1, 0);
  for (int p = 0; p < P; ++p) block_base[p + 1] = block_base[p] + block_sum[p];

  // Pass 2: add block bases.
  exec.run([&](int p) {
    if (block_base[p] == 0) return;
    const size_t lo = std::min(n, p * block);
    const size_t hi = std::min(n, lo + block);
    for (size_t i = lo; i < hi; ++i) out[i + 1] += block_base[p];
  });
}

void balanced_partition_into(const std::vector<uint64_t>& cumulative, int procs,
                             std::vector<int>* bounds_out) {
  const int n = static_cast<int>(cumulative.size()) - 1;
  const uint64_t total = cumulative.back();
  if (total == 0) {
    uniform_partition_into(n, procs, bounds_out);
    return;
  }

  std::vector<int>& bounds = *bounds_out;
  bounds.assign(procs + 1, 0);
  bounds[procs] = n;
  for (int p = 1; p < procs; ++p) {
    const double target = static_cast<double>(total) * p / procs;
    // First index with cumulative >= target...
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(),
                                     static_cast<uint64_t>(std::ceil(target)));
    int idx = static_cast<int>(it - cumulative.begin());
    // ...then pick the neighbour closest to the target (§4.3).
    if (idx > 0 &&
        target - static_cast<double>(cumulative[idx - 1]) <
            static_cast<double>(cumulative[std::min(idx, n)]) - target) {
      --idx;
    }
    idx = std::clamp(idx, bounds[p - 1], n);
    bounds[p] = idx;
  }
  // Enforce monotonicity against pathological profiles.
  for (int p = 1; p <= procs; ++p) bounds[p] = std::max(bounds[p], bounds[p - 1]);
}

void uniform_partition_into(int n, int procs, std::vector<int>* bounds_out) {
  std::vector<int>& bounds = *bounds_out;
  bounds.assign(procs + 1, 0);
  for (int p = 0; p <= procs; ++p) {
    bounds[p] = static_cast<int>(static_cast<int64_t>(n) * p / procs);
  }
}

double partition_imbalance(const std::vector<uint64_t>& cumulative,
                           const std::vector<int>& bounds) {
  const int procs = static_cast<int>(bounds.size()) - 1;
  const uint64_t total = cumulative.back();
  if (total == 0 || procs == 0) return 0.0;
  const double mean = static_cast<double>(total) / procs;
  double worst = 0.0;
  for (int p = 0; p < procs; ++p) {
    const double share =
        static_cast<double>(cumulative[bounds[p + 1]] - cumulative[bounds[p]]);
    worst = std::max(worst, std::abs(share - mean));
  }
  return worst / mean;
}

}  // namespace psw
