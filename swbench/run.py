#!/usr/bin/env python3
"""Builds and runs the shear-warp pipeline benchmark.

    python3 swbench/run.py --workload rotate|interactive|coldmix --seed N \\
        --seconds S --trace 0|1 [--frames N] [--setups R] [--cold-opens K]

Run it from the repository root. It configures and builds swbench/ (which
compiles ../src and ../tools/alloc_probe.cpp) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs the swbench binary, forwards its
tables, and prints as the last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics
are exactly those BENCHMARK.json names for the run's mode (end_to_end when
--trace 0, per_layer when --trace 1), each checked for presence and unit.
Exits non-zero, without a result line, when the build or the run fails, and
non-zero with "correct": false when an output check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"swbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "swbench", "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the benchmark's.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "swbench")


def source_id():
    """git sha when the tree is a git checkout, else a hash of the sources."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "swbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["rotate", "interactive", "coldmix"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--frames", type=int)
    ap.add_argument("--setups", type=int)
    ap.add_argument("--cold-opens", type=int)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = spec["per_layer" if args.trace == "1" else "end_to_end"]

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", args.trace, "--source-id", source_id()]
    for flag, value in (("--frames", args.frames), ("--setups", args.setups),
                        ("--cold-opens", args.cold_opens)):
        if value is not None:
            cmd += [flag, str(value)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("SWBENCH_RESULT "):
            result = json.loads(line[len("SWBENCH_RESULT "):])
        else:
            print(line)
    if result is None:
        log(f"no result from the benchmark binary (exit {proc.returncode})")
        return 1

    correct = bool(result["correct"]) and proc.returncode == 0
    metrics = {}
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} ({m['unit']}) missing or with another unit: {got}")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(f"counts: {json.dumps(result['counts'], sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
