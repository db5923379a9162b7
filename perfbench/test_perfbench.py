"""Self-tests of the benchmark's own helpers (fast; run with pytest)."""

from __future__ import annotations

import argparse
import json
import math
import os

import numpy as np
import pytest

from perfbench import serve, stream
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.planted import Planted
from perfbench.stats import (
    TooFewSamples,
    answer_ok,
    min_samples,
    percentile,
    self_times,
    subspace_err,
    summarize,
)
from perfbench.tracing import step_gflop

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_percentile_refuses_p95_below_200_samples():
    assert min_samples(95) == 200
    assert min_samples(50) == 20
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 199, 95)
    assert percentile(list(range(1, 201)), 95) == 190
    assert percentile(list(range(1, 201)), 50) == 100


def test_failed_operations_count_beyond_every_percentile():
    ok = [1.0] * 190
    assert percentile(ok + [math.inf] * 10, 95) == 1.0
    assert percentile(ok[:-1] + [math.inf] * 11, 95) == math.inf


def span(sid, parent, t0, t1):
    return {"id": sid, "parent": parent, "t0": t0, "t1": t1}


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 3.0),     # sibling children of 1
        span(3, 1, 4.0, 8.0),
        span(4, 2, 1.5, 2.5),     # grandchild: counts against 2, not 1
        span(5, 3, 5.0, 6.0),
        span(6, 3, 5.5, 7.0),     # overlaps its sibling: union, not sum
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)
    # Properly nested, non-overlapping trees sum to the root's duration.
    tree = [s for s in spans if s["id"] != 6]
    assert sum(self_times(tree).values()) == pytest.approx(10.0)


def test_subspace_err_on_known_rotation():
    n, k, theta = 8, 3, 0.3
    planted = np.eye(n)[:, :k]
    modes = planted.copy()
    modes[:, 1] = np.cos(theta) * np.eye(n)[:, 1] + np.sin(theta) * np.eye(n)[:, 5]
    assert subspace_err(modes, planted) == pytest.approx(np.sin(theta), rel=1e-12)
    # A rotation inside the span is no error at all.
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((k, k)))
    assert subspace_err(planted @ q, planted) < 1e-15


def test_answer_check_catches_a_corrupted_result():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal((10, 1))
    assert answer_ok(ref * (1 + 1e-13), ref)
    bad = ref.copy()
    bad[3, 0] *= 1 + 1e-6
    assert not answer_ok(bad, ref)
    assert not answer_ok(ref[:5], ref)


def test_serve_check_fails_a_corrupted_served_answer():
    spec = dict(serve.WORKLOADS["serve-mixed"], n_dof=64)
    planted = Planted(3, spec["n_dof"], serve.K)
    plan = serve.Plan(spec, planted, 3)
    basis = planted.leading
    phase = argparse.Namespace(plan=plan, bases=[(basis, None)], versions={1: 0})
    records = []
    for kind, tail, first, head in plan.queries(6):
        answer = plan.reference(basis, kind, tail, first)
        body = json.dumps({"status": "done", "version": 1, "result": answer.tolist()})
        records.append(((kind, tail, first, head), 0.01, 200, body.encode()))
    assert serve.check(phase, {"records": records})["failed"] == 0
    query, secs, _, body = records[0]
    payload = json.loads(body)
    payload["result"][0][0] += 1e-3
    records[0] = (query, secs, 200, json.dumps(payload).encode())
    records[1] = (records[1][0], secs, 500, b"{}")
    records[2] = (records[2][0], secs, 200, b'{"status": "pending", "version": 1}')
    checked = serve.check(phase, {"records": records})
    assert checked["failed"] == 3
    assert checked["latencies"][:3] == [math.inf] * 3


def traced_stream(monkeypatch, workload, n_dof):
    # Core binding would outlive a single-rank run on the test's own thread.
    monkeypatch.setattr(stream, "bind_rank", lambda rank: None)
    monkeypatch.setitem(
        stream.WORKLOADS, workload, dict(stream.WORKLOADS[workload], n_dof=n_dof)
    )
    args = argparse.Namespace(
        workload=workload, seed=5, seconds=0.4, trace=1, setup_only=False
    )
    return stream.run(args)


def test_smpi_messages_per_step_repeat_exactly_on_stream_ranks(monkeypatch):
    first = traced_stream(monkeypatch, "stream-ranks", 512)
    second = traced_stream(monkeypatch, "stream-ranks", 512)
    assert first["correct"] and second["correct"]
    msgs = first["metrics"]["smpi.msgs_per_step"]
    assert msgs == second["metrics"]["smpi.msgs_per_step"] == 2.0
    assert first["metrics"]["smpi.bytes_per_step"] == second["metrics"]["smpi.bytes_per_step"]
    core = first["metrics"]
    parts = sum(core[name] for name in (
        "core.incorporate_self_ms", "core.tsqr_post_ms", "core.tsqr_finish_ms",
        "core.qr_ms", "core.svd_ms"))
    assert parts == pytest.approx(core["core.incorporate_ms"], rel=1e-6)


def test_single_rank_stream_sends_no_messages(monkeypatch):
    result = traced_stream(monkeypatch, "stream-tall", 1024)
    assert result["correct"]
    assert result["metrics"]["smpi.msgs_per_step"] == 0.0


def test_step_gflop_counts_every_rank():
    one = step_gflop([4096], 10, 20)
    two = step_gflop([2048, 2048], 10, 20)
    assert one > 0 and two > 0
    assert two == pytest.approx(one, rel=0.05)


def test_summary_matches_statistics_quantiles():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert summary["median"] == 5.5
    assert (summary["q1"], summary["q3"]) == (2.75, 8.25)
    assert summary["spread"] == pytest.approx(5.5 / 5.5)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(stream.WORKLOADS) | set(serve.WORKLOADS)
