"""Pure helpers: percentiles, run summaries, self time, accuracy checks."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

# A percentile is reported only when at least this many samples lie
# beyond it: p95 needs 200 samples, p50 needs 20.
MIN_BEYOND = 10

# Relative tolerance of a served answer against numpy on the same basis.
ANSWER_RTOL = 1e-10

# Largest allowed deviation of the streamed modes from orthonormality.
ORTHO_TOL = 1e-10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to have 10 beyond it."""


def min_samples(pct: int) -> int:
    """Fewest samples for which ``MIN_BEYOND`` of them lie beyond ``pct``."""
    return -(-MIN_BEYOND * 100 // (100 - pct))


def percentile(samples: Sequence[float], pct: int) -> float:
    """Nearest-rank ``pct`` percentile (integer percent).

    Failed operations enter as ``inf`` so they count as beyond every
    percentile.  Refuses (``TooFewSamples``) when fewer than
    ``MIN_BEYOND`` samples would lie beyond the percentile.
    """
    n = len(samples)
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    if n < min_samples(pct):
        raise TooFewSamples(
            f"p{pct} needs at least {min_samples(pct)} samples so that "
            f"{MIN_BEYOND} lie beyond it; got {n}"
        )
    ordered = sorted(samples)
    rank = -(-pct * n // 100)  # ceil(pct * n / 100), exact in integers
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and quartile spread (share of the median) of a
    metric over repeated runs, as ``statistics.quantiles(n=4)`` gives
    them."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else math.inf
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Mapping]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval covered by its direct children (clipped to the parent).

    Each span is a mapping with ``id``, ``parent`` (an id or ``None``),
    ``t0`` and ``t1``.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            start = max(span["t0"], parent["t0"])
            end = min(span["t1"], parent["t1"])
            if end > start:
                children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: (span["t1"] - span["t0"])
        - union_length(children.get(span["id"], ()))
        for span in spans
    }


def subspace_err(modes: np.ndarray, planted: np.ndarray) -> float:
    """Sine of the largest principal angle between the column spans of
    two orthonormal ``(n, K)`` bases: ``||(I - P P^T) M||_2``."""
    residual = modes - planted @ (planted.T @ modes)
    return float(np.linalg.norm(residual, 2))


def orthonormality_err(modes: np.ndarray) -> float:
    """Largest entry of ``|M^T M - I|``."""
    gram = modes.T @ modes
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def answer_err(answer: np.ndarray, reference: np.ndarray) -> float:
    """Relative error of a served answer; ``inf`` on a shape mismatch."""
    answer = np.asarray(answer, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if answer.shape != reference.shape:
        return math.inf
    scale = np.linalg.norm(reference)
    err = np.linalg.norm(answer - reference)
    return float(err / scale) if scale else float(err)


def answer_ok(answer: np.ndarray, reference: np.ndarray) -> bool:
    """Whether an answer matches numpy within ``ANSWER_RTOL`` relative."""
    return answer_err(answer, reference) <= ANSWER_RTOL
