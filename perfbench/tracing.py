"""Benchmark-owned tracing: spans and counters around calls into the
program's layers, installed by patching each name where its caller
looks it up.  Nothing inside ``src/`` is traced by the program itself.

Spans live in memory (one list per recorder) and are written out only
when the traced process ends.  Times are ``time.monotonic()``, which is
``CLOCK_MONOTONIC`` and so comparable across processes on one machine.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

import numpy as np

from .stats import self_times

now = time.monotonic


class SpanRecorder:
    """In-memory spans with per-thread parent nesting, plus counters."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, nest: bool = True, **attrs: Any) -> Iterator[dict]:
        """Record ``name`` around the block.  ``nest=False`` records a span
        that neither takes nor gives a parent (an ``await`` inside it lets
        unrelated work run on the same thread)."""
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if (nest and stack) else None,
            "name": name,
            "thread": threading.get_ident(),
            "t0": now(),
            "t1": None,
        }
        record.update(attrs)
        if nest:
            stack.append(record["id"])
        try:
            yield record
        finally:
            record["t1"] = now()
            if nest:
                stack.pop()
            self.spans.append(record)

    def add(self, counter: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class Patches:
    """Attribute replacements that ``restore()`` undoes in reverse order.
    A missing attribute raises, so a renamed target fails loudly."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def replace(self, owner: Any, attr: str, new: Any) -> Any:
        old = getattr(owner, attr)
        own = isinstance(owner, type) and attr in owner.__dict__
        setattr(owner, attr, new)
        if isinstance(owner, type) and not own:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, old))
        return old

    def wrap(self, owner: Any, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
        self.replace(owner, attr, wrapper(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def payload_nbytes(obj: Any) -> int:
    """Array bytes carried by a message payload (tuples/lists recursed)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(item) for item in obj)
    return 0


# -- streaming layers: core + smpi --------------------------------------

CORE_SPANS = ("core.incorporate", "core.tsqr_post", "core.tsqr_finish", "core.qr", "core.svd")

_SMPI_CALLS = (
    "send", "recv", "isend", "irecv", "sendrecv", "bcast", "gather",
    "allgather", "scatter", "gatherv_rows", "alltoall", "barrier",
    "allreduce", "ibcast", "igatherv_rows", "iallreduce", "ialltoall",
)


def install_stream_tracing(rec: SpanRecorder, patches: Patches) -> None:
    """Wrap the streaming step's kernels, TSQR phases and communicator."""
    from repro.core import parallel, tsqr
    from repro.smpi import communicator, request, selfcomm

    patches.wrap(tsqr, "qr_positive", lambda fn: rec.wrap(fn, "core.qr"))
    patches.wrap(parallel, "economy_svd", lambda fn: rec.wrap(fn, "core.svd"))
    patches.wrap(parallel, "truncate_svd", lambda fn: rec.wrap(fn, "core.svd"))
    for step_cls in (tsqr.PipelinedGatherStep, tsqr.PipelinedTreeStep):
        patches.wrap(step_cls, "__init__", lambda fn: rec.wrap(fn, "core.tsqr_post"))
        patches.wrap(step_cls, "finish", lambda fn: rec.wrap(fn, "core.tsqr_finish"))

    depth = threading.local()

    def outermost(fn, counter):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            level = getattr(depth, "level", 0)
            if level == 0:
                rec.add(counter)
            depth.level = level + 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth.level = level

        return call

    def timed_wait(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            if getattr(depth, "waiting", False):
                return fn(*args, **kwargs)
            depth.waiting = True
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                depth.waiting = False
                rec.add("smpi.wait_s", now() - t0)

        return call

    def posted(fn):
        @functools.wraps(fn)
        def call(self, dest, tag, payload):
            rec.add("smpi.msgs")
            rec.add("smpi.bytes", payload_nbytes(payload))
            return fn(self, dest, tag, payload)

        return call

    patches.wrap(communicator.Communicator, "_post", posted)
    for cls in (communicator.Communicator, selfcomm.SelfCommunicator):
        for name in _SMPI_CALLS:
            if hasattr(cls, name):
                patches.wrap(cls, name, lambda fn: outermost(fn, "smpi.calls"))
    patches.wrap(communicator.Communicator, "recv", timed_wait)
    patches.wrap(request.RecvRequest, "wait", timed_wait)
    patches.wrap(request.CollectiveRequest, "wait", timed_wait)


def stream_layer_metrics(rec: SpanRecorder, steps: int, ranks: int) -> dict:
    """Per-step core and smpi metrics of a traced streaming phase.

    Times are per rank per step (means over ranks), so the core self
    times add up to ``core.incorporate_ms``; counts are totals over all
    ranks per step.  Only spans inside a ``core.incorporate`` root count.
    """
    core = [s for s in rec.spans if s["name"] in CORE_SPANS]
    by_id = {s["id"]: s for s in core}

    def rooted(span):
        while span["parent"] is not None:
            span = by_id.get(span["parent"])
            if span is None:
                return False
        return span["name"] == "core.incorporate"

    core = [s for s in core if rooted(s)]
    selfs = self_times(core)
    per = float(steps * ranks)
    totals = {name: 0.0 for name in CORE_SPANS}
    incorporate_total = 0.0
    for span in core:
        totals[span["name"]] += selfs[span["id"]]
        if span["name"] == "core.incorporate":
            incorporate_total += span["t1"] - span["t0"]
    incorporate_ms = incorporate_total * 1e3 / per
    self_sum_ms = sum(totals.values()) * 1e3 / per
    c = rec.counters
    return {
        "core.incorporate_ms": incorporate_ms,
        "core.incorporate_self_ms": totals["core.incorporate"] * 1e3 / per,
        "core.tsqr_post_ms": totals["core.tsqr_post"] * 1e3 / per,
        "core.tsqr_finish_ms": totals["core.tsqr_finish"] * 1e3 / per,
        "core.qr_ms": totals["core.qr"] * 1e3 / per,
        "core.svd_ms": totals["core.svd"] * 1e3 / per,
        "smpi.msgs_per_step": c.get("smpi.msgs", 0.0) / steps,
        "smpi.bytes_per_step": c.get("smpi.bytes", 0.0) / steps,
        "smpi.calls_per_step": c.get("smpi.calls", 0.0) / steps,
        "smpi.wait_ms_per_step": c.get("smpi.wait_s", 0.0) * 1e3 / per,
        "_self_sum_ms": self_sum_ms,
    }


def step_gflop(row_counts, k: int, batch: int) -> float:
    """GFLOP of one streaming step, computed from shapes (not measured):
    Householder QR plus explicit Q of each ``(M_i, n)`` block and of the
    stacked ``(p n, n)`` R factors, the ``n x n`` small SVD (Golub-Van
    Loan count with both singular-vector sets), the root's small-first
    ``(n, n) x (n, K)`` fuse products and each rank's ``(M_i, n) x
    (n, K)`` update GEMM, where ``n = K + batch``."""
    n = k + batch

    def qr(m):
        return 4.0 * m * n * n - 4.0 / 3.0 * n ** 3

    total = sum(qr(m) + 2.0 * m * n * k for m in row_counts)
    p = len(row_counts)
    total += qr(p * n) + 22.0 * n ** 3 + p * 2.0 * n * n * k
    return total / 1e9


# -- serving layers: api + serving + net (inside the server process) ----

def install_server_tracing(rec: SpanRecorder, patches: Patches) -> None:
    """Wrap the server's session start, engine, store and HTTP codec."""
    from repro import api
    from repro.net import http, server
    from repro.serving import engine, store

    patches.wrap(api.Session, "__init__", lambda fn: rec.wrap(fn, "api.session_start"))
    patches.wrap(engine.QueryEngine, "submit", lambda fn: rec.wrap(fn, "serving.submit"))
    patches.wrap(store.ModeBaseStore, "version_info", lambda fn: rec.wrap(fn, "serving.store"))
    patches.wrap(store.ModeBaseStore, "get", lambda fn: rec.wrap(fn, "serving.store"))

    def flush(fn):
        @functools.wraps(fn)
        def call(self, *args, **kwargs):
            queued = self.pending
            age = self.oldest_pending_age_s()
            with rec.span("serving.flush", queued=queued, queue_wait_s=age):
                return fn(self, *args, **kwargs)

        return call

    patches.wrap(engine.QueryEngine, "flush", flush)

    def read(fn):
        @functools.wraps(fn)
        async def call(*args, **kwargs):
            with rec.span("net.read_request", nest=False) as span:
                request = await fn(*args, **kwargs)
                span["bytes"] = len(request.body) if request is not None else -1
            return request

        return call

    def encode(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with rec.span("net.encode") as span:
                out = fn(*args, **kwargs)
                span["bytes"] = len(out)
            return out

        return call

    patches.wrap(server, "read_request", read)
    patches.wrap(server, "json_response", encode)
    patches.wrap(http.Request, "json", lambda fn: rec.wrap(fn, "net.decode"))


def server_layer_metrics(spans: List[dict], t_start: float, t_end: float, queries: int) -> dict:
    """Per-layer serving/net metrics from the server's spans whose start
    lies in the client's timed window ``[t_start, t_end]``."""
    window = [s for s in spans if t_start <= s["t0"] <= t_end]
    selfs = self_times(window)

    def pick(name):
        return [s for s in window if s["name"] == name]

    def mean_ms(items, self_time=True):
        if not items:
            return 0.0
        vals = [selfs[s["id"]] if self_time else s["t1"] - s["t0"] for s in items]
        return 1e3 * sum(vals) / len(vals)

    flushes = pick("serving.flush")
    reads = [s for s in pick("net.read_request") if s["bytes"] >= 0]
    encodes = pick("net.encode")
    q = float(max(queries, 1))
    return {
        "serving.submit_ms": mean_ms(pick("serving.submit")),
        "serving.flush_ms": mean_ms(flushes),
        "serving.store_ms": 1e3 * sum(selfs[s["id"]] for s in pick("serving.store")) / q,
        "serving.queue_wait_ms": (
            1e3 * sum(s["queue_wait_s"] for s in flushes) / len(flushes) if flushes else 0.0
        ),
        "serving.queries_per_flush": (
            sum(s["queued"] for s in flushes) / len(flushes) if flushes else 0.0
        ),
        "net.read_request_ms": mean_ms(reads, self_time=False),
        "net.decode_ms": mean_ms(pick("net.decode")),
        "net.encode_ms": mean_ms(encodes),
        "net.request_kb": sum(s["bytes"] for s in reads) / 1024.0 / q,
        "net.response_kb": sum(s["bytes"] for s in encodes) / 1024.0 / q,
        "net.requests_per_query": len(reads) / q,
    }


def session_start_ms(spans: List[dict]) -> float:
    starts = [s["t1"] - s["t0"] for s in spans if s["name"] == "api.session_start"]
    return 1e3 * starts[0] if starts else 0.0
