"""Analytic flop and traffic formulas for the distributed SVD kernels.

These formulas are the backbone of the weak-scaling reproduction: the
traffic side is *exact* (and validated against
:class:`repro.smpi.CommTracer` byte counts in the tests), the flop side uses
the standard dense-kernel counts (Golub & Van Loan).

Notation: one APMOS step at ``p`` ranks, each owning ``m_local x n`` data,
local truncation ``r1``, ``k`` global modes, ``itemsize``-byte reals.
:func:`stream_step_flops` models one streaming update instead.
"""

from __future__ import annotations

import dataclasses

from ..exceptions import ConfigurationError

__all__ = [
    "flops_qr",
    "flops_svd",
    "flops_gemm",
    "flops_eigh",
    "flops_apply_q",
    "StreamStepFlops",
    "stream_step_flops",
    "ApmosTraffic",
    "apmos_traffic",
    "apmos_local_flops",
    "apmos_root_svd_flops",
]


def _positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")


def flops_qr(m: int, n: int) -> float:
    """Householder economy QR of an ``m x n`` matrix (``m >= n``):
    ``2 m n^2 - (2/3) n^3``; a wide matrix reflects only ``m`` columns and
    costs the same with ``m`` and ``n`` swapped."""
    _positive(m=m, n=n)
    if m < n:
        m, n = n, m
    return 2.0 * m * n * n - (2.0 / 3.0) * n**3


def flops_apply_q(m: int, r: int, k: int) -> float:
    """Apply the ``r`` Householder reflectors of an ``m``-row QR to an
    ``m x k`` matrix (``?gemqrt``/``?ormqr``): ``4 m r k - 2 r^2 k``."""
    _positive(m=m, r=r, k=k)
    return 4.0 * m * r * k - 2.0 * r * r * k


def flops_svd(m: int, n: int) -> float:
    """Economy SVD (Golub-Reinsch style) of ``m x n``, ``m >= n``:
    ``~ 6 m n^2 + 20 n^3`` (constant factors vary by driver; the model only
    needs the scaling)."""
    _positive(m=m, n=n)
    if m < n:
        m, n = n, m
    return 6.0 * m * n * n + 20.0 * n**3


def flops_gemm(m: int, n: int, k: int) -> float:
    """Dense ``(m x k) @ (k x n)`` multiply: ``2 m n k``."""
    _positive(m=m, n=n, k=k)
    return 2.0 * m * n * k


def flops_eigh(n: int) -> float:
    """Symmetric eigendecomposition of ``n x n``: ``~ 9 n^3``."""
    _positive(n=n)
    return 9.0 * n**3


@dataclasses.dataclass(frozen=True)
class StreamStepFlops:
    """Flops of one streaming update (gather TSQR), per kernel.

    Attributes
    ----------
    local_qr:
        Each rank's compact-WY QR of ``[ff U D | A_i]``, ``(M_i, n)``
        with ``n = K + batch``; ``Q`` stays implicit.
    apply_q:
        Each rank's lift of the ``(n, K)`` fused correction through its
        implicit ``Q`` (the only tall operation after the QR).
    root_refactor:
        Rank 0's QR of the stacked ``(p n, n)`` R factors, its explicit
        correction factor and the ``p`` small-first ``(n, n) x (n, K)``
        fuse products; ``0`` on one rank, where the refactor is skipped.
    small_svd:
        Rank 0's SVD of the ``(n, n)`` global ``R``.
    """

    local_qr: float
    apply_q: float
    root_refactor: float
    small_svd: float

    @property
    def rank0_total(self) -> float:
        """Flops on rank 0, which runs every term."""
        return (
            self.local_qr + self.apply_q + self.root_refactor + self.small_svd
        )


def stream_step_flops(
    m_local: int, k: int, batch: int, p: int = 1
) -> StreamStepFlops:
    """Flop model of one streaming update at ``p`` ranks of ``m_local``
    rows each, ``k`` modes and ``batch`` new snapshots.

    Golub-Van Loan counts for the Householder kernels (the compact-WY
    ``T`` factors add lower-order terms the model omits); the dense small
    SVD uses :func:`flops_svd`.  A rank with fewer rows than ``K + batch``
    ships a short ``R``, which the stack sizes account for.
    """
    _positive(m_local=m_local, k=k, batch=batch, p=p)
    n = k + batch
    r_rows = min(m_local, n)  # rows of each rank's R (its reflectors)
    if p == 1:
        root, global_rows = 0.0, r_rows
    else:
        stack = p * r_rows
        global_rows = min(stack, n)
        root = (
            flops_qr(stack, n)
            + flops_apply_q(stack, global_rows, global_rows)
            + p * flops_gemm(r_rows, k, global_rows)
        )
    return StreamStepFlops(
        local_qr=flops_qr(m_local, n),
        apply_q=flops_apply_q(m_local, r_rows, k),
        root_refactor=root,
        small_svd=flops_svd(global_rows, n),
    )


@dataclasses.dataclass(frozen=True)
class ApmosTraffic:
    """Per-step APMOS message sizes (bytes).

    Attributes
    ----------
    gather_bytes_per_rank:
        ``W_i`` contribution each non-root rank sends: ``n * r1 * itemsize``.
    gather_bytes_root_total:
        Total received at rank 0: ``(p - 1) * n * r1 * itemsize``.
    bcast_bytes:
        Broadcast payload: ``X`` (``n * k``) plus ``Lambda`` (``k``) values.
    """

    gather_bytes_per_rank: int
    gather_bytes_root_total: int
    bcast_bytes: int


def apmos_traffic(
    p: int, n: int, r1: int, k: int, itemsize: int = 8
) -> ApmosTraffic:
    """Exact APMOS traffic for one factorization at ``p`` ranks.

    ``r1`` (and ``k``) are clipped to ``n`` — a rank can never contribute
    more right vectors than there are snapshots — mirroring the clipping the
    implementation applies.
    """
    _positive(p=p, n=n, r1=r1, k=k, itemsize=itemsize)
    r1_eff = min(r1, n)
    k_eff = min(k, n)
    per_rank = n * r1_eff * itemsize
    return ApmosTraffic(
        gather_bytes_per_rank=per_rank,
        gather_bytes_root_total=(p - 1) * per_rank,
        bcast_bytes=(n * k_eff + k_eff) * itemsize,
    )


def apmos_local_flops(
    m_local: int, n: int, r1: int, k: int, method: str = "mos"
) -> float:
    """Per-rank local work of one APMOS step.

    ``method='mos'``: Gram matrix (``2 m n^2``) + ``n x n`` eigh + mode
    assembly GEMM (``2 m n k``).
    ``method='svd'``: economy SVD of the local block + assembly GEMM.
    """
    _positive(m_local=m_local, n=n, r1=r1, k=k)
    if method == "mos":
        local = flops_gemm(n, n, m_local) + flops_eigh(n)
    elif method == "svd":
        local = flops_svd(m_local, n)
    else:
        raise ConfigurationError(f"unknown method {method!r}")
    assembly = flops_gemm(m_local, min(k, n), n)
    return local + assembly


def apmos_root_svd_flops(
    p: int, n: int, r1: int, k: int, randomized: bool = True
) -> float:
    """Rank-0 factorization of the gathered ``W`` (``n x (r1 p)``).

    This is the term that breaks ideal weak scaling: the width of ``W``
    grows linearly with the rank count.  Randomized: sketch + projection +
    small SVD, ``O(n * r1 p * k)``; dense: economy SVD, ``O(n * (r1 p)^2)``
    — the model shows why the paper pairs APMOS with randomization at
    scale.
    """
    _positive(p=p, n=n, r1=r1, k=k)
    width = min(r1, n) * p
    if randomized:
        sketch = flops_gemm(n, min(k, n), width)  # A @ Omega
        qr = flops_qr(n, min(k, n))
        project = flops_gemm(min(k, n), width, n)  # Q^T A
        small = flops_svd(width, min(k, n))
        lift = flops_gemm(n, min(k, n), min(k, n))
        return sketch + qr + project + small + lift
    return flops_svd(max(n, width), min(n, width))
