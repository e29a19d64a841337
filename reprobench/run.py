#!/usr/bin/env python3
"""Benchmark driver: builds ``reprobench``, runs one workload and prints
its end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.

    python3 reprobench/run.py --workload fig8-dnn --seed 1 --seconds 60 --trace 0

Run it from the repository root. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Host time is
measured here, around whole ``reprobench`` processes, and inside
``Engine::run`` by the engines' own run-loop telemetry: the repository's
lint admits wall-clock reads in Rust only there (see README.md).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig8-dnn", "fig6-saturated", "fig4-uniform")
ENGINES = ("patronoc", "packetnoc")
# Set-up is timed by processes that each build every point enough times
# to take about SETUP_SAMPLE_S, so a process start weighs little in a
# sample; a PROBE_REPS process picks that repetition count. The untraced
# run takes SETUP_PER_GAP samples before every pass and after the last one,
# so set-up samples the host over the whole run, as the passes do.
SETUP_SAMPLE_S = 0.3
PROBE_REPS = 20
SETUP_PER_GAP = 4
SETUP_RUNS = 5


class BenchError(Exception):
    """A reprobench process failed; the run has no result."""


def build():
    """Builds the release binary and returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest]
    if subprocess.run(cmd).returncode != 0:
        raise BenchError("reprobench did not build")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "reprobench")


def timed(cmd):
    """Runs ``cmd`` to completion; returns its host seconds and its last
    stdout line parsed as JSON."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


class SetupTimer:
    """Times ``reprobench setup`` processes for one ``part``."""

    def __init__(self, binary, common, part):
        self.cmd = [binary, "setup", *common, "--part", part, "--reps"]
        probe_s = timed(self.cmd + [str(PROBE_REPS)])[0] / PROBE_REPS
        self.reps = max(PROBE_REPS, math.ceil(SETUP_SAMPLE_S / probe_s))
        self.samples = []

    def sample(self, count):
        """Adds ``count`` samples of host seconds to build every point once."""
        for _ in range(count):
            self.samples.append(timed(self.cmd + [str(self.reps)])[0] / self.reps)

    def median(self):
        return statistics.median(self.samples)


def setup_seconds(binary, common, part):
    """Median host seconds to build ``part`` of every point once."""
    timer = SetupTimer(binary, common, part)
    timer.sample(SETUP_RUNS)
    return timer.median()


def failure_lines(points, tag=""):
    return [f"{p['label']}{tag}: {f}" for p in points for f in p["failures"]]


def failed_points(points):
    return sum(1 for p in points if p["failures"])


def untraced(binary, common, seconds):
    """Whole checked passes while the next one fits in ``seconds`` (at
    least one), with set-up samples before each pass and after the last;
    metrics are medians over the passes and over the set-up samples."""
    start = time.perf_counter()
    setup = SetupTimer(binary, common, "both")
    passes = []
    while True:
        gap_start = time.perf_counter()
        setup.sample(SETUP_PER_GAP)
        gap_s = time.perf_counter() - gap_start
        elapsed, result = timed([binary, "pass", *common])
        passes.append((elapsed, result))
        if time.perf_counter() - start + gap_s + elapsed > seconds:
            break
    setup.sample(SETUP_PER_GAP)

    def cycles_per_s(result):
        ok = [p for p in result["points"] if "cycles" in p]
        return sum(p["cycles"] for p in ok) / sum(p["run_s"] for p in ok)

    print(f"{len(passes)} passes: " + ", ".join(f"{e:.3f} s" for e, _ in passes))
    return {
        "attempted": sum(len(r["points"]) for _, r in passes),
        "failed": sum(failed_points(r["points"]) for _, r in passes),
        "failures": [line for _, r in passes for line in failure_lines(r["points"])],
        "metrics": [
            ("wall_s", statistics.median(e for e, _ in passes), "s"),
            ("sim_cycles_per_s", statistics.median(cycles_per_s(r) for _, r in passes), "cycles/s"),
            ("setup_s", setup.median(), "s"),
            ("peak_rss_mib", statistics.median(r["peak_rss_mib"] for _, r in passes), "MiB"),
            ("paper_err_pct", passes[0][1]["paper_err_pct"], "%"),
        ],
    }


def traced(binary, common):
    """One untraced and one traced pass; every traced point must reproduce
    its untraced cycles, payload bytes and state digest."""
    untraced_s, plain = timed([binary, "pass", *common])
    traced_s, trace = timed([binary, "traced", *common])
    failures = failure_lines(plain["points"]) + failure_lines(trace["points"], " (traced)")
    failed = failed_points(plain["points"])
    for u, t in zip(plain["points"], trace["points"]):
        wrong = [k for k in ("cycles", "payload_bytes", "state_digest") if u.get(k) != t.get(k)]
        if t["failures"] or wrong:
            failed += 1
        if wrong and not t["failures"]:
            failures.append(f"{t['label']} (traced): {', '.join(wrong)} differ from the untraced run")

    metrics = [(name, m["value"], m["unit"]) for name, m in trace["layers"].items()]
    layers = {name: value for name, value, _ in metrics}
    for engine in ENGINES:
        run_s = sum(p.get("run_s", 0.0) for p in plain["points"] if p["layer"] == engine)
        steps = layers[f"{engine}.steps"]
        metrics.append((f"{engine}.run_s", run_s, "s"))
        metrics.append((f"{engine}.ns_per_step", 1e9 * run_s / steps if steps else 0.0, "ns"))
    metrics += [
        ("traffic.build_source_ms", 1e3 * setup_seconds(binary, common, "sources"), "ms"),
        ("scenario.build_engine_ms", 1e3 * setup_seconds(binary, common, "engines"), "ms"),
        ("trace.overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s, "%"),
    ]
    return {
        "attempted": len(plain["points"]) + len(trace["points"]),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary = build()
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        outcome = traced(binary, common) if args.trace else untraced(binary, common, args.seconds)
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1

    for line in outcome["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, value, unit in outcome["metrics"]:
        shown = "null" if value is None else f"{value:.6f}"
        print(f"{name:<32} {shown:>18} {unit}")
    print(f"operations: {outcome['attempted']} attempted, {outcome['failed']} failed")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in outcome["metrics"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
