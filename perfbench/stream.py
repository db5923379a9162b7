"""Streaming workloads: one process that runs the solver's step loop.

Launched by ``run.py`` as ``python -m perfbench.stream`` with BLAS
pinned; prints one JSON line.  The process makes its batch pool from
the seed first (timed, and subtracted from set-up), then imports the
program, starts the session, initializes, warms up and runs a closed
loop: each ``incorporate_data`` call returns before the next is made.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import numpy as np

from .env import environment_record, peak_rss_mb
from .planted import Planted
from .stats import (
    ORTHO_TOL,
    min_samples,
    orthonormality_err,
    percentile,
    subspace_err,
)
from .tracing import (
    Patches,
    SpanRecorder,
    install_stream_tracing,
    step_gflop,
    stream_layer_metrics,
)

now = time.monotonic

WORKLOADS = {
    "stream-tall": {"backend": "self", "ranks": 1, "n_dof": 32768, "batch": 20},
    "stream-ranks": {"backend": "threads", "ranks": 2, "n_dof": 8192, "batch": 20},
}
POOL = 16              # batches generated once and streamed cyclically
WARMUP = 4             # steps after initialize, before the first timed step
SUBSPACE_CEILING = 0.05
K = 10                 # the solver default, which every workload uses


class Context:
    """State shared by the rank threads of one streaming process."""

    def __init__(self, spec, pool, row_blocks, phases, setup_only):
        self.spec = spec
        self.pool = pool
        self.row_blocks = row_blocks
        self.phases = phases          # [(seconds, traced), ...]
        self.setup_only = setup_only
        self.ranks = spec["ranks"]
        # Bounded, so a rank that dies mid-phase breaks the barrier
        # instead of leaving its peers waiting forever.
        self.barrier = threading.Barrier(self.ranks, timeout=60.0)
        self.stop_at = [None] * len(phases)
        self.recorder = SpanRecorder()
        self.patches = Patches()


def bind_rank(rank: int) -> None:
    """Bind the calling rank thread to one core, as an MPI launcher binds
    each rank.  Unbound, two rank threads sometimes share a core and the
    step time of the whole run jumps by half."""
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cores[rank % len(cores)]})


def rank_job(session, ctx: Context) -> dict:
    """The per-rank streaming loop; rank 0 measures and decides when to stop.

    Ranks stay in lockstep (each step needs rank 0's reply), so rank 0
    ends a phase by publishing ``stop_at = done + 1`` before its next
    step: every rank then stops after the same step.
    """
    t_enter = now()
    rank = session.comm.rank
    bind_rank(rank)
    rows = ctx.row_blocks[rank]
    pool = ctx.pool
    count = len(pool)
    state = {"it": 0}

    def step():
        state["it"] += 1
        session.incorporate_data(pool[state["it"] % count][rows])

    t0 = now()
    session.initialize(pool[0][rows])
    init_s = now() - t0
    for _ in range(WARMUP):
        step()
    ready = now()
    out = {"ready": ready, "t_enter": t_enter, "init_s": init_s}
    if ctx.setup_only:
        return out
    phases = []
    rec = ctx.recorder
    for index, (seconds, traced) in enumerate(ctx.phases):
        ctx.barrier.wait()
        if traced and rank == 0:
            install_stream_tracing(rec, ctx.patches)
        ctx.barrier.wait()
        latencies = []
        done = 0
        t_start = now()
        t_end = t_start
        while True:
            stop_at = ctx.stop_at[index]
            if stop_at is not None and done >= stop_at:
                break
            t0 = now()
            if traced:
                with rec.span("core.incorporate"):
                    step()
            else:
                step()
            t_end = now()
            done += 1
            if rank == 0:
                latencies.append(t_end - t0)
                if (
                    ctx.stop_at[index] is None
                    and t_end - t_start >= seconds
                    and (traced or done >= min_samples(95))
                ):
                    ctx.stop_at[index] = done + 1
        phases.append({"steps": done, "elapsed": t_end - t_start, "latencies": latencies})
        ctx.barrier.wait()
        if traced and rank == 0:
            ctx.patches.restore()
    # End on the last pool batch, so the final state is a whole number
    # of pool cycles whatever the step count was.
    while state["it"] % count != count - 1:
        step()
    modes = session.result().modes
    out.update(phases=phases, modes=modes if rank == 0 else None)
    return out


def run(args) -> dict:
    spec = WORKLOADS[args.workload]
    t0 = now()
    planted = Planted(args.seed, spec["n_dof"], K)
    pool = planted.batches(WARMUP + 1 if args.setup_only else POOL, spec["batch"])
    bounds = np.linspace(0, spec["n_dof"], spec["ranks"] + 1).astype(int)
    row_blocks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    gen_s = now() - t0

    if args.trace:
        phases = [(args.seconds / 2.0, False), (args.seconds / 2.0, True)]
    else:
        phases = [(float(args.seconds), False)]
    ctx = Context(spec, pool, row_blocks, phases, args.setup_only)

    from repro.api import BackendConfig, RunConfig, Session

    cfg = RunConfig(backend=BackendConfig(name=spec["backend"], size=spec["ranks"]))
    t_call = now()
    if spec["ranks"] == 1:
        with Session(cfg) as session:
            res = rank_job(session, ctx)
    else:
        res = Session.run(cfg, rank_job, ctx)[0]
    result = {"gen_s": gen_s, "ready": res["ready"]}
    if args.setup_only:
        return result

    modes = res["modes"]
    ortho = orthonormality_err(modes)
    sub = subspace_err(modes, planted.leading)
    main, *rest = res["phases"]
    lat_ms = [x * 1e3 for x in main["latencies"]]
    throughput = main["steps"] / main["elapsed"]
    result.update(
        attempted=sum(p["steps"] for p in res["phases"]),
        failed=0,
        correct=bool(ortho <= ORTHO_TOL and sub <= SUBSPACE_CEILING),
        checks={"orthonormality_err": ortho, "subspace_err": sub,
                "subspace_ceiling": SUBSPACE_CEILING, "samples": len(lat_ms)},
        environment=environment_record(),
    )
    if not args.trace:
        result["metrics"] = {
            "throughput_per_s": throughput,
            "latency_p50_ms": percentile(lat_ms, 50),
            "latency_p95_ms": percentile(lat_ms, 95),
            "peak_rss_mb": peak_rss_mb(),
            "subspace_err": sub,
        }
        return result
    traced = rest[0]
    layers = stream_layer_metrics(ctx.recorder, traced["steps"], spec["ranks"])
    self_sum = layers.pop("_self_sum_ms")
    tolerance = 1e-6 * layers["core.incorporate_ms"]
    result["checks"]["core_self_sum_ms"] = self_sum
    result["correct"] = result["correct"] and abs(self_sum - layers["core.incorporate_ms"]) <= tolerance
    layers.update({
        "api.session_start_ms": (res["t_enter"] - t_call) * 1e3,
        "api.initialize_ms": res["init_s"] * 1e3,
        "core.gflop_per_step": step_gflop(
            [b.stop - b.start for b in row_blocks], cfg.solver.K, spec["batch"]
        ),
        "trace.overhead": (traced["steps"] / traced["elapsed"]) / throughput,
    })
    result["metrics"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.stream")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
