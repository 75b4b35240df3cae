#!/usr/bin/env bash
# Repo-invariant lint: mechanical rules that the type system and the test
# suite cannot express, checked over the source tree on every CI run.
#
#   1. Lock discipline — raw std::mutex / std::lock_guard / std::unique_lock
#      / std::condition_variable (and friends) appear ONLY in util/sync.hpp;
#      everything else must go through the annotated psw::Mutex / MutexLock /
#      CondVar so Clang's thread-safety analysis sees every acquisition.
#   2. PSW_NO_THREAD_SAFETY_ANALYSIS is an escape hatch with a whitelist
#      (sync.hpp defines it; steal_queue.hpp may use it for the racy
#      victim-selection read). Anywhere else is an error.
#   3. Every memory_order_relaxed carries a "relaxed:" audit comment on the
#      same line or within the 4 lines above it, stating why relaxed
#      ordering is sufficient at that site.
#   4. Zero-allocation delivery path (clang-query, AST-level) — the warm
#      frame-delivery functions that bench/memserve pins at 0 allocs/frame
#      must contain no new-expressions or make_unique/make_shared calls,
#      and the strictly in-place subset must not even grow a container.
#   5. One metrics definition — a "psw_ metric-name string literal appears
#      only in the Prometheus sink (src/obs/export.cpp), which derives every
#      series name from the metrics listings; a hand-written second list of
#      names is an error.
#
# Rules 1-3 and 5 are plain grep/awk and always run. Rule 4 needs
# clang-query (clang-tools); like scripts/lint.sh, it skips gracefully with
# a notice when the binary is absent so the script works on minimal
# toolchains — the GitHub workflow installs clang-tools and gets the real
# run.
# Usage: scripts/check_invariants.sh [build-dir]  (default: ./invariants-build)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-"$root/invariants-build"}
fail=0

# ---------------------------------------------------------------- rule 1
echo "==> invariant: raw std locking primitives only in util/sync.hpp"
lock_pattern='std::(mutex|recursive_mutex|timed_mutex|shared_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)\b'
while IFS= read -r f; do
  # Strip line comments first: prose ("wraps a std::mutex") is fine, code
  # is not. sed keeps line structure, so reported line numbers are real.
  hits=$(sed 's@//.*@@' "$f" | grep -nE "$lock_pattern" || true)
  if [ -n "$hits" ]; then
    echo "FAIL: raw locking primitive outside util/sync.hpp in $f:"
    echo "$hits" | sed 's/^/  /'
    echo "  (use psw::Mutex / psw::MutexLock / psw::CondVar from util/sync.hpp)"
    fail=1
  fi
done < <(find "$root/src" \( -name '*.hpp' -o -name '*.cpp' \) \
           ! -path '*/util/sync.hpp' | sort)

# ---------------------------------------------------------------- rule 2
echo "==> invariant: NO_THREAD_SAFETY_ANALYSIS only in whitelisted files"
escapes=$(grep -rn 'PSW_NO_THREAD_SAFETY_ANALYSIS' "$root/src" \
  | grep -v 'src/util/sync\.hpp' \
  | grep -v 'src/parallel/steal_queue\.hpp' || true)
if [ -n "$escapes" ]; then
  echo "FAIL: thread-safety analysis escape outside the whitelist:"
  echo "$escapes" | sed 's/^/  /'
  echo "  (annotate the real capability instead, or extend the whitelist"
  echo "   here with a justification)"
  fail=1
fi

# ---------------------------------------------------------------- rule 3
echo "==> invariant: every memory_order_relaxed has a 'relaxed:' audit comment"
while IFS= read -r f; do
  bad=$(awk '
    { line[FNR] = $0; code = $0; sub(/\/\/.*/, "", code) }
    code ~ /memory_order_relaxed/ {
      ok = 0
      for (i = FNR; i >= FNR - 4 && i >= 1; i--)
        if (line[i] ~ /relaxed:/) { ok = 1; break }
      if (!ok) printf "  %d: %s\n", FNR, $0
    }' "$f")
  if [ -n "$bad" ]; then
    echo "FAIL: unaudited memory_order_relaxed in $f:"
    echo "$bad"
    echo "  (add a '// relaxed: <why relaxed ordering is sufficient>' comment"
    echo "   on the same line or within the 4 lines above)"
    fail=1
  fi
done < <(grep -rlE 'memory_order_relaxed' "$root/src" --include='*.hpp' \
           --include='*.cpp' | sort)

# ---------------------------------------------------------------- rule 4
echo "==> invariant: zero-allocation delivery path (clang-query AST rules)"
cq=${CLANG_QUERY:-clang-query}
if ! command -v "$cq" >/dev/null 2>&1; then
  echo "invariants: $cq not found, skipping AST rules (install clang-tools"
  echo "to run locally; rules 1-3 and 5 still run)"
else
  cmake -B "$out" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null

  # Functions on the warm delivery path: a rendered frame travels
  # encode_meta/encode_append -> send_frame -> Transport::send (headers via
  # encode_header/put_u32_at) -> write_ready -> Transport::flush (the
  # sendmsg drain), with recycle_frame/release/discard_output returning
  # storage to the pools; completions arrive through drain_completions,
  # requests through receive/next/read_frames, and the router relays frames
  # through handle_upstream_message -> forward. bench/memserve pins this
  # path at 0 allocations per warm frame; these AST rules make the "how" a
  # reviewable invariant instead of a benchmark-only observation.
  #
  # The render inner loop is held to the same no-new rule: render() (both
  # parallel renderers, including every worker lambda in their bodies — the
  # parent map reaches through LambdaExpr), the *_into partition helpers
  # and the warp splitter draw all per-frame storage from the renderer's
  # FrameScratch. The scratch's own grow path (FrameScratch::begin_frame,
  # a separate function in frame_scratch.hpp) is intentionally outside the
  # matched set: growth on a P/dims change is the one legal allocation.
  delivery='"send_frame","send","write_ready","flush","forward","receive","next","read_frames","drain_completions","handle_upstream_message","encode_append","encode_meta","encode_header","put_u32_at","recycle_frame","release","discard_output","render","prefix_sum_into","prefix_sum_parallel_into","balanced_partition_into","uniform_partition_into","warp_x_interval"'
  # The strictly in-place subset: these may not even append to a container
  # (the wider set legitimately push_backs into reserved pooled/member
  # scratch, which reuses capacity on the warm path).
  inplace='"write_ready","flush","put_u32_at","encode_header","discard_output"'
  files=(
    "$root/src/net/server.cpp"
    "$root/src/net/transport.cpp"
    "$root/src/cluster/router.cpp"
    "$root/src/net/frame_codec.cpp"
    "$root/src/net/wire.cpp"
    "$root/src/serve/service.cpp"
    "$root/src/util/buffer_pool.cpp"
    "$root/src/parallel/new_renderer.cpp"
    "$root/src/parallel/old_renderer.cpp"
    "$root/src/parallel/partition.cpp"
  )

  cq_out=$("$cq" -p "$out" \
    -c "match cxxNewExpr(isExpansionInMainFile(), hasAncestor(functionDecl(hasAnyName($delivery))))" \
    -c "match callExpr(isExpansionInMainFile(), callee(functionDecl(hasAnyName(\"make_unique\",\"make_shared\"))), hasAncestor(functionDecl(hasAnyName($delivery))))" \
    -c "match cxxMemberCallExpr(isExpansionInMainFile(), callee(cxxMethodDecl(hasAnyName(\"push_back\",\"emplace_back\",\"emplace\",\"insert\",\"resize\",\"reserve\",\"assign\",\"append\"))), hasAncestor(functionDecl(hasAnyName($inplace))))" \
    "${files[@]}" 2>&1) || {
    echo "FAIL: clang-query did not run cleanly:"
    echo "$cq_out" | tail -40 | sed 's/^/  /'
    fail=1
  }
  matches=$(echo "$cq_out" | grep -c 'binds here' || true)
  if [ "$matches" -ne 0 ]; then
    echo "FAIL: allocation or container growth on the zero-alloc delivery path:"
    echo "$cq_out" | grep -B1 -A3 'binds here' | sed 's/^/  /'
    fail=1
  else
    echo "invariants: delivery-path AST rules clean over ${#files[@]} files"
  fi
fi

# ---------------------------------------------------------------- rule 5
echo "==> invariant: Prometheus metric names only in the metrics sink"
while IFS= read -r f; do
  hits=$(sed 's@//.*@@' "$f" | grep -n '"psw_' || true)
  if [ -n "$hits" ]; then
    echo "FAIL: hand-written Prometheus metric name in $f:"
    echo "$hits" | sed 's/^/  /'
    echo "  (list the quantity in its struct's export_to(obs::MetricSink&);"
    echo "   the sink derives the series name from its JSON path)"
    fail=1
  fi
done < <(find "$root/src" "$root/tools" "$root/bench" "$root/examples" \
           \( -name '*.hpp' -o -name '*.cpp' \) ! -path '*/obs/export.cpp' | sort)

if [ "$fail" -ne 0 ]; then
  echo "INVARIANTS FAILED"
  exit 1
fi
echo "invariants OK"
