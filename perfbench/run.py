#!/usr/bin/env python3
"""Served-request benchmark of `tsg serve`; see README.md beside this file.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        Builds `tsg` and the `perfbench` binary from source, runs one
        workload and prints its report. The last stdout line is the JSON
        result: end-to-end metrics with --trace 0, per-layer with 1.

    python3 perfbench/run.py --steadiness [--runs 10] [--repeat 1] [--trace 0]
        Runs every workload of BENCHMARK.json once per seed (seeds 1..runs)
        at its run_seconds, and prints per metric the median and quartiles
        across the runs, flagging each metric whose spread exceeds its
        bound. With --repeat 2 it makes two sets of runs, interleaved seed
        by seed like an A/B comparison, and also flags a metric whose
        second median differs from the first, either way, by more than
        its bound.

    python3 perfbench/run.py --self-test
        The `perfbench` unit tests, then a short smoke run of every workload,
        untraced and traced, checked against BENCHMARK.json's metric list.

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); span traces to
its `perfbench/` subdirectory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-small", "analyze-large", "explore-edits"]


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    # Cargo's output goes to stderr: stdout carries only the report.
    subprocess.run(["cargo", *args], env=env, check=True, stdout=sys.stderr)


def build():
    """Builds the `tsg` and `perfbench` binaries; returns their paths."""
    cargo("build", "--release", "--offline", "--quiet",
          "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "tsg-cli", "--bin", "tsg")
    cargo("build", "--release", "--offline", "--quiet",
          "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "tsg"), os.path.join(release, "perfbench")


def one_cpu():
    """Pins the calling process, and so every process and thread it starts,
    to the last CPU it may use. The client, the server's reactor and its
    worker then pass each request along by context switches on one CPU,
    not by waking another one: on a shared virtual machine, waking an idle
    virtual CPU waits for the host to schedule it."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(binaries, workload, seed, seconds, trace, capture):
    tsg, perfbench = binaries
    cmd = [perfbench, "--tsg", tsg, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(target_dir(), "perfbench")]
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True,
                          preexec_fn=one_cpu)


def result_of(proc, what):
    if proc.returncode != 0:
        raise SystemExit(f"{what}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[0], json.loads(lines[-1])


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(binaries, args):
    spec = bench_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    # values[rep][workload][metric]: one list of per-seed values per set.
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(args.repeat)]
    facts = {}
    flagged = 0
    for seed in range(1, args.runs + 1):
        for w in workloads:
            # Alternate which set goes first, so neither set always meets
            # the host a moment later than the other.
            reps = range(args.repeat) if seed % 2 else reversed(range(args.repeat))
            for rep in reps:
                facts[w], res = result_of(
                    run_one(binaries, w, seed, spec["run_seconds"], args.trace, True),
                    f"{w} seed {seed}")
                if not res["correct"] or res["failed"]:
                    print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
                    flagged += 1
                for name, v in values[rep][w].items():
                    v.append(res["metrics"][name]["value"])
                print(f"{w} seed {seed} set {rep + 1}: "
                      + " ".join(f"{name}={v[-1]:.6g}" for name, v in values[rep][w].items()),
                      file=sys.stderr, flush=True)
    for w in workloads:
        for rep in range(args.repeat):
            print(f"\n== {w}: {args.runs} runs, set {rep + 1}; {facts[w]}")
            print(f"{'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            for m in metrics:
                v = values[rep][w][m["name"]]
                med = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else 0.0
                bound = m.get("bound")
                notes = []
                if bound is not None and spread > bound:
                    notes.append("SPREAD > BOUND")
                elif bound is not None and spread > bound / 3:
                    notes.append("spread > bound/3")
                if rep and bound is not None:
                    first = statistics.median(values[0][w][m["name"]])
                    drift = (med - first) / first
                    worse = drift if m["better"] == "lower" else -drift
                    notes.append(f"vs set 1 {worse:+.1%}")
                    if abs(drift) > bound:
                        notes.append("MEDIAN MOVED PAST BOUND")
                flagged += any(n.isupper() for n in notes)
                print(f"{m['name']:<26} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} "
                      f"{'' if bound is None else bound:>6} {' '.join(notes)}")
    return 1 if flagged else 0


def self_test(binaries):
    cargo("test", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    spec = bench_spec()
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            _, res = result_of(run_one(binaries, w, 1, 0.2, trace, True), f"smoke {w} trace {trace}")
            assert res["correct"] and res["failed"] == 0, (w, trace, res)
            assert sorted(res["metrics"]) == sorted(m["name"] for m in metrics), (w, trace)
            for m in metrics:
                assert res["metrics"][m["name"]]["unit"] == m["unit"], (w, m)
            print(f"smoke {w} trace {trace}: ok, {res['attempted']} requests")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        binaries = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binaries)
    if args.steadiness:
        return steadiness(binaries, args)
    if not args.workload or not args.seconds:
        ap.error("--workload and --seconds are required")
    return run_one(binaries, args.workload, args.seed, args.seconds, args.trace, False).returncode


if __name__ == "__main__":
    sys.exit(main())
