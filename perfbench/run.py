#!/usr/bin/env python3
"""Repository benchmark entry point.

One run:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the benchmark (a Cargo package of its own in this directory, against
the repository's crates by path) and runs one workload. The run prints the
host record, every metric by name with its unit, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. It exits non-zero
when the build fails or any output check fails.

Steadiness report:

    python3 perfbench/run.py --steadiness [--workload <name>] [--seeds 10] [--first-seed 1]

runs each workload once per seed and prints, for every end-to-end metric, the
median, the quartiles and the quartile spread as a share of the median next to
the metric's bound from BENCHMARK.json.

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build); run output (spans, result records) goes to .perfbench/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
# Seed of ad-hoc runs (README.md names the held-out seed for gain claims).
DEFAULT_SEED = 7
# A run may take at most 180 s; the benchmark binary is stopped before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if proc.returncode != 0:
        log("perfbench: build failed")
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "compat", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            rel = os.path.relpath(f, ROOT)
            if rel.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(rel.encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def host_record():
    commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "usable_parallelism": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": commit or f"unknown (source digest {source_digest()})",
    }


def run_once(binary, workload, seed, seconds, trace, extra):
    """Runs the benchmark binary once; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", WORK_DIR] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def extra_args(args):
    return ["--offered-rate", str(args.offered_rate), "--inflight", str(args.inflight)]


def single(args):
    binary = build()
    if binary is None:
        return 1
    host = host_record()
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                           extra_args(args))
    result = parse_result(lines)
    if code != 0 or result is None:
        for line in lines:
            print(line)
        log(f"perfbench: {args.workload} failed (exit code {code})")
        return code or 1
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "offered_rate": args.offered_rate,
              "inflight": args.inflight, "host": host, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK_DIR, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)
    print("host: " + ", ".join(f"{k} {v}" for k, v in host.items()))
    for line in lines:
        print(line)
    return 0


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    binary = build()
    if binary is None:
        return 1
    print("host: " + ", ".join(f"{k} {v}" for k, v in host_record().items()))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload:
        workloads = [args.workload]
    seconds = args.seconds or spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    status = 0
    for workload in workloads:
        values = {}
        for seed in seeds:
            code, lines = run_once(binary, workload, seed, seconds, 0, extra_args(args))
            result = parse_result(lines)
            if code != 0 or result is None or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit code {code})")
                status = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {len(seeds)} seeds {seeds[0]}..{seeds[-1]}, {seconds} s each")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 2:
                print(f"  {metric['name']:<16} too few values")
                status = 1
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric["bound"]
            if metric["name"] == "setup_s":
                verdict = "(set-up: spread not bounded)"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound, not steady"
            else:
                verdict = "OVER BOUND"
                status = 1
            print(f"  {metric['name']:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6.3f}  {verdict}")
        print(flush=True)
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--offered-rate", type=float, default=15000)
    p.add_argument("--inflight", type=int, default=16)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = 25
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
