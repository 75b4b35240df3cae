#!/usr/bin/env bash
# Continuous-integration driver: a warnings-as-errors release build with the
# full test suite, the same suite again under ASan+UBSan and under fatal
# UBSan, the threading tests under TSan, clang-tidy and the Clang
# thread-safety analysis (both when clang is available), the repo-invariant
# lint, the trace race-checker over both renderers, a smoke run of the
# kernel benchmarks (JSON report, to catch bit-rot in the --json path), and
# the benchmark's own self-test (swbench/selftest.py).
# Stages whose tool is missing here are skipped, never hidden: the closing
# summary lists every stage that ran and every stage (or part) skipped.
# With PSW_CI_STRICT=1 any skip fails the run after the summary prints.
# Usage: [PSW_CI_STRICT=1] scripts/ci.sh [build-root]   (default: ./ci-build)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-"$root/ci-build"}
jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

ran=()
skipped=()
stage() {
  echo "==> $1"
  ran+=("$1")
}
# skip <name> <why>: naming the current stage moves it from ran to skipped;
# any other name records a skipped part of a stage that ran.
skip() {
  echo "$1: skipping ($2)"
  if [ "$1" = "${ran[-1]}" ]; then unset 'ran[-1]'; fi
  skipped+=("$1 ($2)")
}
summary() {
  echo "==> CI stage summary"
  printf '  ran:     %s\n' "${ran[@]}"
  if [ "${#skipped[@]}" -eq 0 ]; then
    echo "  skipped: none"
  else
    printf '  skipped: %s\n' "${skipped[@]}"
  fi
}

stage "Release build (-Werror) + tests"
cmake -B "$out/release" -S "$root" -DCMAKE_BUILD_TYPE=Release -DPSW_WERROR=ON
cmake --build "$out/release" -j "$jobs"
ctest --test-dir "$out/release" --output-on-failure -j "$jobs"

stage "ASan+UBSan build + tests"
cmake -B "$out/sanitize" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPSW_WERROR=ON -DPSW_SANITIZE=address
cmake --build "$out/sanitize" -j "$jobs"
ctest --test-dir "$out/sanitize" --output-on-failure -j "$jobs"

stage "UBSan build (every finding fatal) + tests"
# The ASan tree above already runs UBSan in recoverable mode; this tree sets
# -fno-sanitize-recover=all so any UB aborts the test instead of printing.
cmake -B "$out/ubsan" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPSW_WERROR=ON -DPSW_SANITIZE=undefined
cmake --build "$out/ubsan" -j "$jobs"
ctest --test-dir "$out/ubsan" --output-on-failure -j "$jobs"

stage "TSan build + threading tests"
# TSan is incompatible with ASan, hence its own tree. Only the tests that
# exercise real threads matter here; the serial/tracing suites are covered
# above and would only slow this stage down.
cmake -B "$out/tsan" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPSW_WERROR=ON -DPSW_SANITIZE=thread
cmake --build "$out/tsan" -j "$jobs" \
  --target test_parallel_infra test_parallel_renderers test_fastpath test_serve \
  test_prepare test_net test_cluster test_metrics test_buffer_pool test_sync \
  test_obs loadgen netbench
# The annotated Mutex/CondVar wrappers themselves (adopt/release handoff
# across the condvar sleep) under the race detector.
"$out/tsan/tests/test_sync"
"$out/tsan/tests/test_parallel_infra"
"$out/tsan/tests/test_parallel_renderers"
"$out/tsan/tests/test_fastpath"
# test_prepare under TSan covers the slab-parallel classifier and the
# concurrent per-axis chunked encoders (disjoint writes, seam stitching).
"$out/tsan/tests/test_prepare"
"$out/tsan/tests/test_serve"
# test_net under TSan covers the poll loop, the completion queue handoff and
# the drop-oldest backpressure path with real sockets.
"$out/tsan/tests/test_net"
# test_cluster under TSan covers the router's poll thread against client
# threads, the probe/eject/rejoin lifecycle and the mid-stream shard-loss
# path (real shards, real sockets).
"$out/tsan/tests/test_cluster"
# The metrics exports read the atomics the poll and render threads write.
"$out/tsan/tests/test_metrics"
# Buffer/frame pool concurrency: the multi-threaded acquire/release hammers
# run here under TSan (and under ASan in the full suite above).
"$out/tsan/tests/test_buffer_pool"
# The span recorder's striped rings and seqlock slots under the race
# detector: many writer threads against a concurrent snapshot reader.
"$out/tsan/tests/test_obs"

stage "clang-tidy"
if command -v "${CLANG_TIDY:-clang-tidy}" >/dev/null 2>&1; then
  "$root/scripts/lint.sh" "$out/lint"
else
  skip "clang-tidy" "${CLANG_TIDY:-clang-tidy} not installed"
fi

stage "Clang thread-safety analysis (-Werror=thread-safety)"
# The capability annotations in util/sync.hpp only do work under Clang;
# this stage proves every GUARDED_BY/REQUIRES contract holds (and the
# configure re-runs tests/compile_fail, whose negative cases only bite
# here). Skips gracefully on toolchains without clang, like lint above.
clangxx=${PSW_CLANGXX:-clang++}
if command -v "$clangxx" >/dev/null 2>&1; then
  cmake -B "$out/tsa" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER="$clangxx" -DPSW_THREAD_SAFETY=ON
  cmake --build "$out/tsa" -j "$jobs"
else
  skip "Clang thread-safety analysis (-Werror=thread-safety)" "$clangxx not installed"
fi

stage "Repo invariants (lock discipline, zero-alloc delivery, relaxed audit)"
"$root/scripts/check_invariants.sh" "$out/invariants"
if ! command -v "${CLANG_QUERY:-clang-query}" >/dev/null 2>&1; then
  skip "invariant rule 4 (zero-alloc delivery AST rules)" \
    "${CLANG_QUERY:-clang-query} not installed; rules 1-3 and 5 ran"
fi

stage "Trace-level race check (both renderers, MRI+CT, 1/4/16 procs)"
"$out/release/tools/racecheck" --size=32 --procs=1,4,16

stage "Kernel benchmark smoke run (JSON report)"
# google-benchmark 1.8+ wants a unit on --benchmark_min_time ("0.01s");
# 1.7 and older reject the suffix and want a bare double. Ask the binary.
min_time=0.01s
if ! "$out/release/bench/kernels" --benchmark_list_tests \
    --benchmark_min_time="$min_time" >/dev/null 2>&1; then
  min_time=0.01
fi
(cd "$out/release/bench" && ./kernels --json "$out/BENCH_kernels.json" \
  --benchmark_min_time="$min_time" >/dev/null)
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out/BENCH_kernels.json"

stage "Frame-serving smoke run (loadgen, small volume, 2 sessions)"
"$out/release/tools/loadgen" --sessions=2 --threads=2 --frames=6 --size=32 \
  --volumes=2 --prepare-threads=2 --json="$out/BENCH_serve.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['results']['failed'] == 0, d; \
assert d['results']['cold_start_latency_ms']['count'] > 0, d; \
assert 'allocs_per_frame' in d['results'], d; \
assert d['service']['frame_pool']['outstanding'] == 0, d" "$out/BENCH_serve.json"
# Same shape under TSan to exercise the queue/cache/scheduler concurrency,
# including the parallel preparation pipeline behind cache misses.
"$out/tsan/tools/loadgen" --sessions=2 --threads=2 --frames=4 --size=24 \
  --volumes=2 --prepare-threads=2 --json=

stage "Volume-preparation benchmark smoke run (bit-identity gate)"
# Exits non-zero if any parallel/serial output hash diverges from the seed
# encoder; the JSON check pins the report shape and the identity flag.
(cd "$out/release/bench" && ./prepare --sizes=128 --threads=1,2 --repeat=1 \
  --json="$out/BENCH_prepare.json" >/dev/null)
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['all_identical'] is True, d" "$out/BENCH_prepare.json"

stage "Network frame-delivery smoke run (netbench, loopback)"
# Exits non-zero on any protocol error or failed frame; the JSON check pins
# the codec's headline guarantee (wire bytes well under raw RGBA).
"$out/release/tools/netbench" --sessions=2 --threads=2 --frames=12 --size=40 \
  --json="$out/BENCH_net.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); r=d['results']; \
assert r['protocol_errors'] == 0 and r['failures'] == 0, d; \
assert r['wire_ratio'] <= 0.6, d; \
assert 'allocs_per_frame' in r, d" "$out/BENCH_net.json"
# Server connection handling + backpressure under TSan through real sockets.
"$out/tsan/tools/netbench" --sessions=2 --threads=2 --frames=6 --size=32 --json=

stage "Sharded-cluster smoke run (2 shards + router, real sockets)"
# netbench --cluster boots the shards and the router in-process and exits
# non-zero if throughput fails to scale, a protocol error appears, or the
# consistent-hash placement misses its warm-shard hit rate. The JSON check
# re-asserts the headline contract: zero protocol errors everywhere, both
# shards actually served frames at width 2, and the router copies each
# relayed payload at most once (copied bytes per forwarded frame within the
# bytes the clients moved per frame).
"$out/release/tools/netbench" --cluster --shards=1,2 \
  --json="$out/BENCH_cluster.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['results']['passed'] is True, d; \
assert all(s['protocol_errors'] == 0 for s in d['sweep']), d; \
assert all(0 < s['router_copied_bytes_per_frame'] <= s['client_bytes_per_frame'] \
           for s in d['sweep']), d; \
two = [s for s in d['sweep'] if s['shards'] == 2][0]; \
assert all(p['frames_forwarded'] > 0 for p in two['per_shard']), d" \
  "$out/BENCH_cluster.json"

stage "Tracing smoke run (sampled request through 2 shards + traceview)"
# The cluster sweep again, this time with span dumps: the traced probe at
# width 2 must yield a Prometheus exposition from the router and per-node
# trace dumps that traceview reassembles into one tree containing the
# router-proxy span and the shard-side stage spans.
"$out/release/tools/netbench" --cluster --shards=2 --trace-out="$out/traces" \
  --json=
grep -q '# TYPE psw_router_requests_routed_total counter' "$out/traces/router_prom.txt"
grep -q 'psw_trace_spans_recorded_total' "$out/traces/router_prom.txt"
"$out/release/tools/traceview" "$out/traces"/*_trace.json > "$out/traces/tree.txt"
python3 - "$out/traces/tree.txt" <<'EOF'
import sys
text = open(sys.argv[1]).read()
for needle in ("trace ", "router-proxy", "request", "composite", "warp",
               "frame-encode", "send", "queue-wait"):
    assert needle in text, (needle, text)
EOF

stage "Serving memory-path smoke run (memserve, allocs-per-frame gates)"
# memserve exits non-zero when the warm delivery path (pooled payload ->
# encode-in-place -> header stamp) costs more than --gate allocations per
# frame, or when the whole warm end-to-end path (admission -> scheduler ->
# pooled render scratch -> delivery) exceeds --gate-e2e; the JSON check
# also pins the zero-copy claim and the before/after contrast against the
# legacy flat-copy shape.
(cd "$out/release/bench" && ./memserve --gate=2 --gate-e2e=2 \
  --json="$out/BENCH_memserve.json" >/dev/null)
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['delivery']['allocs_per_frame'] <= 2, d; \
assert d['delivery']['bytes_copied_per_frame'] == 0, d; \
assert d['end_to_end']['allocs_per_frame'] <= 2, d; \
assert d['end_to_end']['alloc_bytes_per_frame'] <= 256, d; \
assert d['legacy_delivery']['allocs_per_frame'] > d['delivery']['allocs_per_frame'], d; \
assert d['traced_delivery']['wire_bytes_per_frame'] > d['delivery']['wire_bytes_per_frame'], d" \
  "$out/BENCH_memserve.json"

stage "Benchmark self-test (swbench, every workload, count-bounded)"
# Short seeded runs of rotate, interactive and coldmix: each must be correct,
# report every metric BENCHMARK.json registers with its unit, and repeat the
# seed-fixed counts exactly. swbench builds into $CARGO_TARGET_DIR.
(cd "$root" && CARGO_TARGET_DIR="$out/swbench" python3 swbench/selftest.py)

summary
if [ "${PSW_CI_STRICT:-0}" = "1" ] && [ "${#skipped[@]}" -ne 0 ]; then
  echo "CI FAILED (PSW_CI_STRICT=1): ${#skipped[@]} skipped stage(s) or part(s):"
  printf '  %s\n' "${skipped[@]}"
  exit 1
fi
echo "CI OK"
