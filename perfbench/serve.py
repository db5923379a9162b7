"""Serving workloads: a ``repro serve`` subprocess driven over HTTP.

The benchmark process publishes the basis, launches the server with
BLAS pinned, and runs closed-loop clients (one or two threads, one
keep-alive connection each): a client submits a query, long-polls its
job until the answer is in hand, and only then sends the next.  Request
bodies are encoded before the clock starts; answers are decoded and
checked against numpy after it stops.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

import numpy as np

from .env import ROOT, child_environ, environment_record, peak_rss_mb
from .planted import Planted
from .stats import answer_err, answer_ok, min_samples, percentile, subspace_err
from .tracing import server_layer_metrics, session_start_ms

now = time.monotonic

BASIS = "perf"
K = 10
WORKLOADS = {
    # One client, unique 1.2 MB projection bodies: the HTTP body read,
    # JSON decode and the solo-ticket deadline wait dominate.
    "serve-large": {
        "n_dof": 65536, "clients": 1, "hot_share": 0.0, "reconstruct_share": 0.0,
        "publish_every": 0, "stream_batches": 10,
    },
    # Two clients, project/reconstruct mix, half from a hot set, and a
    # new basis version published every 50 queries of client 0.
    "serve-mixed": {
        "n_dof": 1024, "clients": 2, "hot_share": 0.5, "reconstruct_share": 0.5,
        "publish_every": 50, "stream_batches": 24,
    },
}
TAILS = 4            # base payload vectors per kind; cold queries vary element 0
HOT = 4              # hot payloads per kind
VERSIONS = 16        # distinct bases published in turn (serve-mixed)
WARMUP_QUERIES = 3
PLAN_PER_SECOND = 1500   # plan capacity per client per measured second
SERVER_START_TIMEOUT = 60.0
WAIT_S = 30.0
URL_RE = re.compile(r"repro\.net serving on (http://[^\s]+)")


class Plan:
    """Pre-encoded query bodies: ``head + tail`` where ``head`` ends with
    the payload's first element, so cold queries are unique at the cost
    of a few bytes each and the large tails are shared."""

    def __init__(self, spec, planted: Planted, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.vectors = {
            "project": planted.batch(TAILS).T.copy(),
            "reconstruct": rng.standard_normal((TAILS, K)) * 3.0,
        }
        self.tails = {
            kind: [
                (", " + json.dumps(vec[1:].tolist())[1:-1] + "]}").encode()
                for vec in vecs
            ]
            for kind, vecs in self.vectors.items()
        }
        self.hot = {
            kind: [(int(rng.integers(TAILS)), float(rng.standard_normal())) for _ in range(HOT)]
            for kind in self.vectors
        }
        self.spec = spec
        self.rng = rng

    def head(self, kind: str, first: float) -> bytes:
        return (
            '{"basis": "%s", "kind": "%s", "payload": [%r' % (BASIS, kind, first)
        ).encode()

    def queries(self, count: int) -> list:
        """``count`` queries as ``(kind, tail_index, first, head)``."""
        spec, rng = self.spec, self.rng
        out = []
        used = set()
        for _ in range(count):
            kind = "reconstruct" if rng.random() < spec["reconstruct_share"] else "project"
            if rng.random() < spec["hot_share"]:
                tail, first = self.hot[kind][int(rng.integers(HOT))]
            else:
                tail, first = int(rng.integers(TAILS)), float(rng.standard_normal())
                while (kind, tail, first) in used:
                    first = float(rng.standard_normal())
                used.add((kind, tail, first))
            out.append((kind, tail, first, self.head(kind, first)))
        return out

    def reference(self, basis: np.ndarray, kind: str, tail: int, first: float) -> np.ndarray:
        vec = self.vectors[kind][tail].copy()
        vec[0] = first
        out = basis.T @ vec if kind == "project" else basis @ vec
        return out[:, np.newaxis]


def stream_bases(planted: Planted, spec) -> List[np.ndarray]:
    """The bases the server will serve, streamed by the program from the
    planted data with the solver defaults (generator work, untimed)."""
    from repro.api import BackendConfig, RunConfig, Session

    cfg = RunConfig(backend=BackendConfig(name="self"))
    batches = planted.batches(spec["stream_batches"], 20)
    keep = VERSIONS if spec["publish_every"] else 1
    bases = []
    with Session(cfg) as session:
        session.initialize(batches[0])
        for batch in batches[1:]:
            session.incorporate_data(batch)
        for batch in batches[: keep - 1]:
            bases.append((session.modes.copy(), session.singular_values.copy()))
            session.incorporate_data(batch)
        bases.append((session.modes.copy(), session.singular_values.copy()))
    return bases


class Server:
    """One ``repro serve`` process (optionally under the traced launcher)."""

    def __init__(self, store_dir: str, log_path: str, spans_path: Optional[str] = None) -> None:
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, "-m", "perfbench.serve_traced", spans_path, "serve"]
        self.cmd = cmd + ["--store", store_dir, "--port", "0"]
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> str:
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            self.cmd, cwd=ROOT, env=child_environ(unbuffered=True),
            stdout=subprocess.PIPE, stderr=self._log,
        )
        deadline = now() + SERVER_START_TIMEOUT
        while now() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], deadline - now())
            if not ready:
                break
            line = self.proc.stdout.readline().decode(errors="replace")
            if not line:
                break
            match = URL_RE.search(line)
            if match:
                return match.group(1)
        self.stop()
        with open(self.log_path, errors="replace") as log:
            tail = log.read()[-4000:]
        raise RuntimeError(f"server did not announce its URL:\n{tail}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self._log.close()


class Client:
    """One keep-alive connection; sends pre-encoded bodies."""

    def __init__(self, url: str) -> None:
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=WAIT_S + 30)

    def _read(self):
        response = self.conn.getresponse()
        return response.status, response.read()

    def query(self, head: bytes, tail: bytes):
        """Submit and long-poll one query: ``(status, final body)``."""
        conn = self.conn
        conn.putrequest("POST", "/v1/query", skip_accept_encoding=True)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(len(head) + len(tail)))
        conn.endheaders()
        conn.send(head)
        conn.send(tail)
        status, body = self._read()
        if status != 202:
            return status, body
        job = json.loads(body)["job"]
        conn.request("GET", f"/v1/jobs/{job}?wait={WAIT_S:g}")
        return self._read()

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        status, body = self._read()
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


class Phase:
    """One server lifetime: set-up, warm-up and a timed closed loop."""

    def __init__(self, spec, plan: Plan, bases, workdir: str, index: int, spans_path=None):
        self.spec, self.plan, self.bases = spec, plan, bases
        self.store_dir = os.path.join(workdir, f"store{index}")
        self.server = Server(self.store_dir, os.path.join(workdir, "server.log"), spans_path)
        self.versions = {}
        self.store = None
        self.client = None
        self.setup_s = None
        self.publishes = 0
        self.publish_failures = 0

    def publish(self) -> None:
        count = len(self.versions)
        modes, sv = self.bases[count % len(self.bases)]
        version = self.store.publish(BASIS, modes, sv)
        self.versions[version] = count % len(self.bases)

    def setup(self) -> "Phase":
        """The user's cold path: publish, launch until the URL is printed,
        and answer a first query."""
        from repro.serving import ModeBaseStore

        t0 = now()
        try:
            self.store = ModeBaseStore(self.store_dir)
            self.publish()
            self.url = self.server.start()
            self.client = Client(self.url)
            warm = self.plan.queries(1)[0]
            status, _ = self.client.query(warm[3], self.plan.tails[warm[0]][warm[1]])
            self.setup_s = now() - t0
            if status != 200:
                raise RuntimeError(f"first query answered HTTP {status}")
        except BaseException:
            self.teardown()
            raise
        return self

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        self.server.stop()
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def run(self, seconds: float, min_count: int) -> dict:
        spec, plan = self.spec, self.plan
        for query in plan.queries(WARMUP_QUERIES):
            self.client.query(query[3], plan.tails[query[0]][query[1]])
        clients = [self.client] + [Client(self.url) for _ in range(spec["clients"] - 1)]
        plans = [plan.queries(int(max(seconds, 1) * PLAN_PER_SECOND)) for _ in clients]
        records = [[] for _ in clients]
        done = [0]
        lock = threading.Lock()
        barrier = threading.Barrier(len(clients) + 1)
        errors = []

        def loop(index):
            client, queries, out = clients[index], plans[index], records[index]
            tails = plan.tails
            barrier.wait()
            t_start = self.t_start
            own = 0
            for query in queries:
                if now() - t_start >= seconds and done[0] >= min_count:
                    break
                kind, tail = query[0], query[1]
                t0 = now()
                try:
                    status, body = client.query(query[3], tails[kind][tail])
                except (OSError, http.client.HTTPException) as exc:
                    status, body = -1, repr(exc).encode()
                out.append((query, now() - t0, status, body))
                with lock:
                    done[0] += 1
                own += 1
                if index == 0 and spec["publish_every"] and own % spec["publish_every"] == 0:
                    try:
                        self.publish()
                        self.publishes += 1
                    except Exception as exc:  # noqa: BLE001 - counted as a failed write
                        self.publish_failures += 1
                        errors.append(repr(exc))

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(clients))]
        before = self.client.get_json("/metrics")["engine"]
        for thread in threads:
            thread.start()
        self.t_start = now()
        barrier.wait()
        for thread in threads:
            thread.join()
        t_end = now()
        for client in clients[1:]:
            client.close()
        after = self.client.get_json("/metrics")["engine"]
        rss = peak_rss_mb(self.server.pid)
        env = environment_record(self.server.pid)
        return {
            "records": [r for rec in records for r in rec],
            "elapsed": t_end - self.t_start,
            "t_start": self.t_start,
            "t_end": t_end,
            "engine": {key: after.get(key, 0) - before.get(key, 0)
                       for key in ("flushes", "deadline_flushes", "result_cache_hits",
                                   "result_cache_misses", "cache_misses")},
            "peak_rss_mb": rss,
            "environment": env,
            "errors": errors,
        }


def check(phase: Phase, outcome: dict) -> dict:
    """Decode and check every answer against numpy on the basis version
    that answered; a non-2xx status, an unfinished job or a mismatch
    fails the query, and failed queries count as beyond every percentile."""
    plan, bases = phase.plan, phase.bases
    latencies, failed, worst = [], 0, 0.0
    for (kind, tail, first, _), seconds, status, body in outcome["records"]:
        ok = False
        if status == 200:
            payload = json.loads(body)
            version = payload.get("version")
            if payload.get("status") == "done" and version in phase.versions:
                basis = bases[phase.versions[version]][0]
                ref = plan.reference(basis, kind, tail, first)
                answer = np.asarray(payload["result"], dtype=np.float64)
                err = answer_err(answer, ref)
                worst = max(worst, err)
                ok = answer_ok(answer, ref)
        if ok:
            latencies.append(seconds * 1e3)
        else:
            failed += 1
            latencies.append(math.inf)
    return {"latencies": latencies, "failed": failed, "worst_answer_err": worst}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str, setups: int) -> dict:
    spec = WORKLOADS[workload]
    planted = Planted(seed, spec["n_dof"], K)
    plan = Plan(spec, planted, seed)
    bases = stream_bases(planted, spec)
    sub = subspace_err(bases[0][0], planted.leading)

    def timed_phase(index, phase_seconds, min_count, spans_path=None):
        phase = Phase(spec, plan, bases, workdir, index, spans_path)
        phase.setup()
        try:
            outcome = phase.run(phase_seconds, min_count)
        finally:
            phase.teardown()
        outcome["checked"] = check(phase, outcome)
        outcome["publishes"] = (phase.publishes, phase.publish_failures)
        return phase, outcome

    if not trace:
        setup_times = []
        for index in range(setups - 1):
            phase = Phase(spec, plan, bases, workdir, index)
            setup_times.append(phase.setup().setup_s)
            phase.teardown()
        phase, outcome = timed_phase(setups, seconds, min_samples(95))
        setup_times.append(phase.setup_s)
        phases = [outcome]
    else:
        spans_path = os.path.join(workdir, "spans.json")
        _, plain = timed_phase(0, seconds / 2.0, 0)
        _, traced = timed_phase(1, seconds / 2.0, 0, spans_path)
        phases = [plain, traced]

    attempted = sum(len(p["records"]) + sum(p["publishes"]) for p in phases)
    failed = sum(p["checked"]["failed"] + p["publishes"][1] for p in phases)
    main = phases[0]
    lat = main["checked"]["latencies"]
    throughput = sum(1 for x in lat if x != math.inf) / main["elapsed"]
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "checks": {
            "worst_answer_err": max(p["checked"]["worst_answer_err"] for p in phases),
            "samples": len(lat),
            "publishes": sum(p["publishes"][0] for p in phases),
            "errors": [e for p in phases for e in p["errors"]][:5],
        },
        "environment": main["environment"],
    }
    if not trace:
        result["metrics"] = {
            "throughput_per_s": throughput,
            "latency_p50_ms": percentile(lat, 50),
            "latency_p95_ms": percentile(lat, 95),
            "setup_s": float(np.median(setup_times)),
            "peak_rss_mb": main["peak_rss_mb"],
            "subspace_err": sub,
        }
        result["checks"]["setup_s_runs"] = setup_times
        return result

    traced = phases[1]
    with open(spans_path) as handle:
        spans = json.load(handle)["spans"]
    queries = len(traced["records"])
    layers = server_layer_metrics(spans, traced["t_start"], traced["t_end"], queries)
    engine = traced["engine"]
    lookups = engine["result_cache_hits"] + engine["result_cache_misses"]
    layers.update({
        "api.session_start_ms": session_start_ms(spans),
        "serving.deadline_flush_share": (
            engine["deadline_flushes"] / engine["flushes"] if engine["flushes"] else 0.0
        ),
        "serving.result_cache_hit_ratio": (
            engine["result_cache_hits"] / lookups if lookups else 0.0
        ),
        "serving.basis_loads": float(engine["cache_misses"]),
        "trace.overhead": (queries / traced["elapsed"]) / throughput,
    })
    result["metrics"] = layers
    return result
