#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload from the root of a checkout and prints, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it record the pinned environment and the correctness
checks.  ``--repeat N`` instead runs the workload N times (seeds N..N+R-1,
each a fresh process, as a single run would be) and prints every
metric's median, quartiles and quartile spread; ``--sets 2`` repeats
that with the next N seeds and compares the two medians against the
bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.env import SRC, child_environ, pin_current_process  # noqa: E402
from perfbench.metrics import END_TO_END, end_to_end_output, per_layer_output  # noqa: E402

pin_current_process()  # before numpy is imported anywhere in this process
if SRC not in sys.path:
    sys.path.insert(1, SRC)

STREAM = ("stream-tall", "stream-ranks")
SERVE = ("serve-large", "serve-mixed")
SETUPS = 5            # set-ups per run; setup_s is their median
RUN_TIMEOUT = 170.0

now = time.monotonic


def run_stream(args) -> dict:
    base = [
        sys.executable, "-m", "perfbench.stream", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]

    def launch(extra):
        t_launch = now()
        proc = subprocess.run(
            base + extra, cwd=ROOT, env=child_environ(), capture_output=True,
            text=True, timeout=RUN_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"stream process failed:\n{proc.stderr[-4000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = out["ready"] - t_launch - out["gen_s"]
        return out

    if args.trace:
        return launch([])
    setups = [launch(["--setup-only"])["setup_s"] for _ in range(SETUPS - 1)]
    result = launch([])
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["checks"]["setup_s_runs"] = setups
    return result


def run_serve(args) -> dict:
    from perfbench import serve

    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return serve.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, SETUPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def run_once(args) -> dict:
    result = run_stream(args) if args.workload in STREAM else run_serve(args)
    if args.trace:
        metrics = per_layer_output(result["metrics"])
    else:
        metrics = end_to_end_output(result["metrics"])
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print("checks: " + json.dumps(result["checks"], sort_keys=True))
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def load_bounds() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as handle:
        spec = json.load(handle)
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def run_set(args, seeds) -> list:
    results = []
    for seed in seeds:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"seed {seed} failed:\n{proc.stderr[-4000:]}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + json.dumps(
            {k: v["value"] for k, v in results[-1]["metrics"].items()}), flush=True)
    return results


def repeat(args) -> dict:
    """Run the workload ``repeat`` times per set and summarize each metric."""
    from perfbench.stats import summarize

    bounds = load_bounds()
    sets = []
    for index in range(args.sets):
        first = args.seed + index * args.repeat
        sets.append(run_set(args, range(first, first + args.repeat)))
    report = {"correct": all(r["correct"] for s in sets for r in s),
              "attempted": sum(r["attempted"] for s in sets for r in s),
              "failed": sum(r["failed"] for s in sets for r in s),
              "metrics": {}}
    steady = True
    for name, first in sets[0][0]["metrics"].items():
        summaries = [summarize([r["metrics"][name]["value"] for r in s]) for s in sets]
        entry = {"unit": first["unit"], "sets": summaries}
        bound = bounds.get(name)
        if bound is not None:
            entry["bound"] = bound
            if name != "setup_s":
                entry["spread_ok"] = all(s["spread"] <= bound / 3.0 for s in summaries)
                steady = steady and entry["spread_ok"]
            if len(summaries) == 2:
                better = dict((n, b) for n, _, b in END_TO_END)[name]
                a, b = summaries[0]["median"], summaries[1]["median"]
                shift = (a - b) / a if better == "higher" else (b - a) / a
                entry["second_set_worse_by"] = shift
                entry["sets_agree"] = shift <= bound
                steady = steady and entry["sets_agree"]
        report["metrics"][name] = entry
        print(f"{name:32s} " + "  ".join(
            f"median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}"
            for s in summaries) + (f"  bound={bound}" if bound is not None else ""), flush=True)
    report["steady"] = steady
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=STREAM + SERVE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per set; above 1, print medians and quartiles")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1,
                        help="with 2, also compare the medians of two sets of runs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program is missing ({SRC}/repro); run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.repeat > 1 or args.sets > 1:
        report = repeat(args)
    else:
        report = run_once(args)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
