#!/usr/bin/env python3
"""Benchmark entry point for the greedy80211 simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (Release + LTO) into
.bench_build/perfbench on first use, runs the workload for S seconds and
prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The line before it holds the host
context (CPU count and model, build type, load average, steal ticks over
the run); every result set is also appended, with that context, to
.bench_out/results.jsonl. Spans of a traced run go to
.bench_out/<workload>-seed<N>-trace1/trace.json.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "g80211_perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then brings the build up to date (a no-op when it is)."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "2"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_context():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": "Release+LTO",
        "loadavg": list(os.getloadavg()),
    }


def check_metrics(metrics, wanted):
    """The binary's metrics, in BENCHMARK.json's order, with their units."""
    if set(metrics) != {m["name"] for m in wanted}:
        missing = sorted({m["name"] for m in wanted} - set(metrics))
        extra = sorted(set(metrics) - {m["name"] for m in wanted})
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    out = {}
    for m in wanted:
        v = metrics[m["name"]]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise RuntimeError(f"metric {m['name']} is not a finite number: {v!r}")
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    return out


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    bench = load_benchmark()
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    build()

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (OUT / "digests").mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work),
           "--record", str(OUT / "digests" / f"{args.workload}-seed{args.seed}.txt")]
    context = host_context()
    steal0 = steal_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        for sub in ("journals", "journals_probe", "captures"):
            shutil.rmtree(work / sub, ignore_errors=True)
    context["steal_ticks"] = steal_ticks() - steal0
    if proc.returncode != 0:
        raise RuntimeError(f"g80211_perfbench exited with {proc.returncode}")
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    if len(lines) != 2 or "context" not in lines[0]:
        raise RuntimeError("unexpected output from g80211_perfbench")
    context.update(lines[0]["context"])
    raw = lines[1]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {
        "correct": bool(raw["correct"]) and raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": check_metrics(raw["metrics"], wanted),
    }
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps({"host": context, "result": result}) + "\n")
    print(json.dumps({"host": context}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
