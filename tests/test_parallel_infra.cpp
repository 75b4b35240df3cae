#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>

#include "parallel/animation.hpp"
#include "parallel/executor.hpp"
#include "parallel/partition.hpp"
#include "parallel/profile.hpp"
#include "parallel/steal_queue.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace psw {
namespace {

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  ThreadPool pool(7);
  std::vector<std::atomic<int>> hits(7);
  pool.run([&](int t) { hits[t].fetch_add(1); });
  for (int t = 0; t < 7; ++t) EXPECT_EQ(hits[t].load(), 1);
}

TEST(ThreadPool, ReusableAcrossRuns) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.run([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, RunIsABarrier) {
  ThreadPool pool(4);
  std::atomic<int> in_phase{0};
  for (int round = 0; round < 5; ++round) {
    pool.run([&](int) { in_phase.fetch_add(1); });
    // After run() returns every body has finished.
    EXPECT_EQ(in_phase.load(), 4 * (round + 1));
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.run([](int t) {
        if (t == 1) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // Pool must still be usable afterwards.
  std::atomic<int> total{0};
  pool.run([&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
}

TEST(Executors, SerialRunsInOrder) {
  SerialExecutor exec(5);
  std::vector<int> order;
  exec.run([&](int p) { order.push_back(p); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(exec.concurrent());
}

TEST(Executors, ThreadedIsConcurrentFlagged) {
  ThreadedExecutor exec(2);
  EXPECT_TRUE(exec.concurrent());
  EXPECT_EQ(exec.procs(), 2);
}

TEST(StealQueues, PopOwnDrainsInChunks) {
  StealQueues q(2);
  q.push(0, {0, 10, 0});
  ScanlineRange r;
  std::vector<int> seen;
  while (q.pop_own(0, 3, &r)) {
    for (int v = r.lo; v < r.hi; ++v) seen.push_back(v);
    EXPECT_LE(r.count(), 3);
    EXPECT_EQ(r.owner, 0);
  }
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(seen, expect);
}

TEST(StealQueues, StealTakesFromBack) {
  StealQueues q(2);
  q.push(0, {0, 10, 0});
  ScanlineRange r;
  ASSERT_TRUE(q.steal(1, 4, &r));
  EXPECT_EQ(r.lo, 6);
  EXPECT_EQ(r.hi, 10);
  EXPECT_EQ(r.owner, 0);
  EXPECT_EQ(q.steals(), 1u);
}

TEST(StealQueues, StealFailsWhenAllEmpty) {
  StealQueues q(3);
  ScanlineRange r;
  EXPECT_FALSE(q.steal(0, 4, &r));
}

TEST(StealQueues, EveryScanlineProcessedExactlyOnceUnderContention) {
  const int P = 8, N = 500;
  StealQueues q(P);
  for (int p = 0; p < P; ++p) {
    // Deliberately unbalanced seed: proc 0 gets most of the work.
    const int lo = p == 0 ? 0 : 400 + (p - 1) * 100 / (P - 1);
    const int hi = p == 0 ? 400 : 400 + p * 100 / (P - 1);
    q.push(p, {lo, hi, p});
  }
  std::vector<std::atomic<int>> processed(N);
  ThreadPool pool(P);
  pool.run([&](int p) {
    ScanlineRange r;
    while (q.pop_own(p, 4, &r)) {
      for (int v = r.lo; v < r.hi; ++v) processed[v].fetch_add(1);
    }
    while (q.steal(p, 4, &r)) {
      for (int v = r.lo; v < r.hi; ++v) processed[v].fetch_add(1);
    }
  });
  for (int v = 0; v < N; ++v) {
    ASSERT_EQ(processed[v].load(), 1) << "scanline " << v;
  }
}

// The partition helpers write into caller-owned storage; these wrap them
// for value-style assertions.
std::vector<uint64_t> cumulative(const std::vector<uint32_t>& cost) {
  std::vector<uint64_t> out;
  prefix_sum_into(cost, &out);
  return out;
}

std::vector<uint64_t> cumulative_parallel(const std::vector<uint32_t>& cost,
                                          Executor& exec) {
  PartitionScratch scratch;
  prefix_sum_parallel_into(cost, exec, &scratch);
  return scratch.cum;
}

std::vector<int> balanced(const std::vector<uint64_t>& cum, int procs) {
  std::vector<int> bounds;
  balanced_partition_into(cum, procs, &bounds);
  return bounds;
}

std::vector<int> uniform(int n, int procs) {
  std::vector<int> bounds;
  uniform_partition_into(n, procs, &bounds);
  return bounds;
}

TEST(PrefixSum, MatchesManualSum) {
  const std::vector<uint32_t> cost{3, 0, 5, 2, 7};
  const auto out = cumulative(cost);
  EXPECT_EQ(out, (std::vector<uint64_t>{0, 3, 3, 8, 10, 17}));
}

TEST(PrefixSum, ParallelMatchesSerial) {
  SplitMix64 rng(23);
  for (int procs : {1, 2, 4, 7}) {
    SerialExecutor exec(procs);
    for (int n : {0, 1, 5, 64, 1000}) {
      std::vector<uint32_t> cost(n);
      for (auto& c : cost) c = static_cast<uint32_t>(rng.below(1000));
      EXPECT_EQ(cumulative_parallel(cost, exec), cumulative(cost))
          << "procs=" << procs << " n=" << n;
    }
  }
}

TEST(PrefixSum, ParallelMatchesSerialOnThreads) {
  SplitMix64 rng(24);
  std::vector<uint32_t> cost(4096);
  for (auto& c : cost) c = static_cast<uint32_t>(rng.below(100));
  ThreadedExecutor exec(6);
  EXPECT_EQ(cumulative_parallel(cost, exec), cumulative(cost));
}

TEST(BalancedPartition, UniformCostSplitsEvenly) {
  std::vector<uint32_t> cost(100, 10);
  const auto bounds = balanced(cumulative(cost), 4);
  EXPECT_EQ(bounds, (std::vector<int>{0, 25, 50, 75, 100}));
}

TEST(BalancedPartition, SkewedCostShrinksExpensiveSide) {
  // All the cost in the first 10 scanlines.
  std::vector<uint32_t> cost(100, 0);
  for (int i = 0; i < 10; ++i) cost[i] = 100;
  const auto bounds = balanced(cumulative(cost), 5);
  // The first partitions must be narrow (2 scanlines each).
  EXPECT_LE(bounds[1], 3);
  EXPECT_LE(bounds[4], 11);
}

TEST(BalancedPartition, MonotoneAndCovering) {
  SplitMix64 rng(25);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(500));
    const int procs = 1 + static_cast<int>(rng.below(32));
    std::vector<uint32_t> cost(n);
    for (auto& c : cost) c = static_cast<uint32_t>(rng.below(50));
    const auto bounds = balanced(cumulative(cost), procs);
    ASSERT_EQ(static_cast<int>(bounds.size()), procs + 1);
    ASSERT_EQ(bounds.front(), 0);
    ASSERT_EQ(bounds.back(), n);
    for (int p = 1; p <= procs; ++p) ASSERT_GE(bounds[p], bounds[p - 1]);
  }
}

TEST(BalancedPartition, ZeroCostFallsBackToUniform) {
  std::vector<uint32_t> cost(40, 0);
  EXPECT_EQ(balanced(cumulative(cost), 4), uniform(40, 4));
}

TEST(BalancedPartition, BalanceBeatsUniformOnBellProfile) {
  // Bell-shaped profile like Figure 10: cost concentrated in the middle.
  const int n = 326;
  std::vector<uint32_t> cost(n, 0);
  for (int i = 0; i < n; ++i) {
    const double x = (i - n / 2.0) / (n / 5.0);
    cost[i] = static_cast<uint32_t>(1000.0 * std::exp(-x * x));
  }
  const auto cum = cumulative(cost);
  EXPECT_LT(partition_imbalance(cum, balanced(cum, 8)), 0.10);
  EXPECT_GT(partition_imbalance(cum, uniform(n, 8)), 0.5);
}

TEST(UniformPartition, CoversExactly) {
  const auto bounds = uniform(10, 3);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 10);
  int total = 0;
  for (size_t p = 0; p + 1 < bounds.size(); ++p) total += bounds[p + 1] - bounds[p];
  EXPECT_EQ(total, 10);
}

TEST(ScanlineProfile, LifecycleAndStaleness) {
  ScanlineProfile prof;
  EXPECT_FALSE(prof.valid_for(10));
  prof.begin_frame(10);
  prof.record(3, 100);
  prof.record(7, 50);
  prof.end_frame();
  EXPECT_TRUE(prof.valid_for(10));
  EXPECT_FALSE(prof.valid_for(11));
  EXPECT_EQ(prof.cost_at(3), 100u);
  EXPECT_EQ(prof.cost_at(0), 0u);
  EXPECT_EQ(prof.frames_since_profile(), 0);
  prof.tick_frame();
  prof.tick_frame();
  EXPECT_EQ(prof.frames_since_profile(), 2);
  prof.invalidate();
  EXPECT_FALSE(prof.valid_for(10));
}

TEST(Animation, ZeroFramePathYieldsEmptySummary) {
  AnimationPath path;
  path.frames = 0;
  int calls = 0;
  const AnimationSummary s = run_animation(path, [&](int, const Camera&) {
    ++calls;
    return ParallelRenderStats{};
  });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(s.frames, 0);
  EXPECT_EQ(s.mean_frame_ms, 0.0);
  EXPECT_EQ(s.frames_per_second, 0.0);
  EXPECT_EQ(s.mean_imbalance, 0.0);
  EXPECT_EQ(s.total_ms, 0.0);

  path.frames = -3;  // negative counts clamp to the same empty summary
  const AnimationSummary neg = run_animation(path, [&](int, const Camera&) {
    ++calls;
    return ParallelRenderStats{};
  });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(neg.frames, 0);
  EXPECT_EQ(neg.frames_per_second, 0.0);
}

TEST(Animation, AggregatesFrameStats) {
  AnimationPath path;
  path.frames = 4;
  const AnimationSummary s = run_animation(path, [&](int frame, const Camera&) {
    ParallelRenderStats stats;
    stats.total_ms = 10.0 + frame;  // 10, 11, 12, 13
    stats.profiled = frame == 0;
    stats.steals = 2;
    return stats;
  });
  EXPECT_EQ(s.frames, 4);
  EXPECT_DOUBLE_EQ(s.total_ms, 46.0);
  EXPECT_DOUBLE_EQ(s.mean_frame_ms, 11.5);
  EXPECT_DOUBLE_EQ(s.worst_frame_ms, 13.0);
  EXPECT_NEAR(s.frames_per_second, 1e3 * 4 / 46.0, 1e-9);
  EXPECT_EQ(s.profiled_frames, 1);
  EXPECT_EQ(s.total_steals, 8u);
}

}  // namespace
}  // namespace psw
