#!/usr/bin/env python3
"""Self-test of the benchmark: short, count-bounded runs of every workload.

    python3 swbench/selftest.py

Run it from the repository root. For each workload it makes two untraced
runs and one traced run with the same seed, each bounded by a frame count
instead of a duration, and checks that

  * every run is correct and prints, as its last line, every metric that
    BENCHMARK.json names for its mode, with that metric's unit;
  * the counts the seed fixes repeat exactly across the two untraced runs:
    frames attempted, cache misses and volume builds, and (interactive)
    wire bytes.

Exits 0 when every check holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SHORT = {
    "rotate": ["--frames", "60"],
    "interactive": ["--frames", "40"],
    "coldmix": ["--frames", "60"],
}
FIXED_COUNTS = {
    "rotate": ["frames_attempted", "frames_checked"],
    "interactive": ["frames_attempted", "cache_misses", "cache_builds", "wire_bytes"],
    "coldmix": ["frames_attempted", "cache_misses", "cache_builds"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
           "--setups", "1", "--cold-opens", "3"] + SHORT[workload]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    counts = {}
    for line in lines:
        if line.startswith("counts: "):
            counts = json.loads(line[len("counts: "):])
    return json.loads(lines[-1]), counts, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in SHORT:
        seen_counts = []
        for trace in (0, 0, 1):
            result, counts, err = run(workload, trace)
            label = f"{workload} trace={trace}"
            if err:
                problems.append(f"{label}: {err}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result.get("correct"):
                problems.append(f"{label}: not correct")
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{label}: metric {m['name']} missing or unit {got}")
            if trace == 0:
                seen_counts.append(counts)
            print(f"{label}: correct={result.get('correct')} attempted={result.get('attempted')} "
                  f"counts={counts}", flush=True)
        if len(seen_counts) == 2:
            for name in FIXED_COUNTS[workload]:
                a, b = (c.get(name) for c in seen_counts)
                if a is None or a != b:
                    problems.append(f"{workload}: count {name} differs across runs: {a} vs {b}")
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
