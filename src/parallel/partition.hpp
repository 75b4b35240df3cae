// Partition computation for the new parallel algorithm (§4.3): a cumulative
// profile built with a (parallel) prefix operation, divided into P equal
// cost shares by searching the cumulative array — so computing partitions
// is not the serial bottleneck the naive approach suffers from.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/executor.hpp"

namespace psw {

// Reusable working set for the per-frame partition computation. The
// renderers keep one per instance (inside FrameScratch) so steady-state
// frames recompute partitions without touching the allocator: every vector
// is written with assign(), which reuses capacity and only grows.
struct PartitionScratch {
  std::vector<uint64_t> cum;         // n+1 cumulative costs (prefix output)
  std::vector<uint64_t> block_sum;   // parallel prefix pass 1: P block totals
  std::vector<uint64_t> block_base;  // scanned block bases (P+1)
  std::vector<int> bounds;           // P+1 partition boundaries
};

// Inclusive-prefix cumulative cost; out[i] = sum of cost[0..i-1], size n+1
// (out[0] = 0, out[n] = total).
void prefix_sum_into(const std::vector<uint32_t>& cost, std::vector<uint64_t>* out);

// Two-pass parallel prefix (block sums, scan of block sums, local fix-up)
// over the executor's processors. Equivalent to prefix_sum_into; leaves the
// result in scratch->cum and allocates only when the scratch capacities
// grow.
void prefix_sum_parallel_into(const std::vector<uint32_t>& cost, Executor& exec,
                              PartitionScratch* scratch);

// P+1 monotone boundaries over [0, n]: boundary p is the index whose
// cumulative cost is closest to p/P of the total (§4.3), found by binary
// search. Zero total cost degenerates to a uniform split.
void balanced_partition_into(const std::vector<uint64_t>& cumulative, int procs,
                             std::vector<int>* bounds);

// Uniform split of [0, n] into P near-equal ranges.
void uniform_partition_into(int n, int procs, std::vector<int>* bounds);

// Largest absolute per-share deviation from perfect balance, as a fraction
// of the mean share (diagnostics and tests).
double partition_imbalance(const std::vector<uint64_t>& cumulative,
                           const std::vector<int>& bounds);

}  // namespace psw
