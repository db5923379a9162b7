"""The benchmark's metric names, units and directions (mirrored in
``BENCHMARK.json``), and the output records built from them."""

from __future__ import annotations

from typing import Dict

END_TO_END = (
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("subspace_err", "sine", "lower"),
)

PER_LAYER = (
    ("api.session_start_ms", "ms", "lower"),
    ("api.initialize_ms", "ms", "lower"),
    ("core.incorporate_ms", "ms", "lower"),
    ("core.incorporate_self_ms", "ms", "lower"),
    ("core.tsqr_post_ms", "ms", "lower"),
    ("core.tsqr_finish_ms", "ms", "lower"),
    ("core.qr_ms", "ms", "lower"),
    ("core.svd_ms", "ms", "lower"),
    ("core.gflop_per_step", "GFLOP-computed", "lower"),
    ("smpi.msgs_per_step", "count", "lower"),
    ("smpi.bytes_per_step", "bytes", "lower"),
    ("smpi.calls_per_step", "count", "lower"),
    ("smpi.wait_ms_per_step", "ms", "lower"),
    ("serving.submit_ms", "ms", "lower"),
    ("serving.flush_ms", "ms", "lower"),
    ("serving.store_ms", "ms", "lower"),
    ("serving.queue_wait_ms", "ms", "lower"),
    ("serving.queries_per_flush", "count", "higher"),
    ("serving.deadline_flush_share", "ratio", "lower"),
    ("serving.result_cache_hit_ratio", "ratio", "higher"),
    ("serving.basis_loads", "count", "lower"),
    ("net.read_request_ms", "ms", "lower"),
    ("net.decode_ms", "ms", "lower"),
    ("net.encode_ms", "ms", "lower"),
    ("net.request_kb", "KiB", "lower"),
    ("net.response_kb", "KiB", "lower"),
    ("net.requests_per_query", "count", "lower"),
    ("trace.overhead", "ratio", "higher"),
)


def end_to_end_output(values: Dict[str, float]) -> Dict[str, dict]:
    """Every end-to-end metric with its unit (all must be present)."""
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, _ in END_TO_END
    }


def per_layer_output(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric with its unit; a layer the workload does
    not exercise reports 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
