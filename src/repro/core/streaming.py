"""Functional Levy--Lindenbaum streaming-SVD kernels (paper Algorithm 1).

These pure functions implement the two phases of the streaming SVD and are
shared by :class:`~repro.core.serial.ParSVDSerial` (which applies them to the
whole matrix) and :class:`~repro.core.parallel.ParSVDParallel` (which swaps
the dense QR/SVD for their distributed counterparts but reuses the same
update structure).

State after ``i`` batches is the pair ``(U_i, D_i)`` — the ``K`` leading
left singular vectors and singular values of the (forget-factor-weighted)
data seen so far.  The update for a new batch ``A_i`` is:

1. ``[ff * U_{i-1} diag(D_{i-1}) | A_i] = U' D'``          (QR)
2. ``D' = Utilde Dtilde Vtilde^T``                          (small SVD)
3. keep the ``K`` leading columns:  ``U_i = U' Utilde[:, :K]``,
   ``D_i = Dtilde[:K]``.

With ``ff = 1`` the recursion is *exact*: after any number of batches
``(U_i, D_i)`` equals the truncated SVD of the full concatenated matrix
(up to truncation error), which the property tests assert.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from ..utils.linalg import (
    as_floating,
    economy_svd,
    householder_qr,
    truncate_svd,
)
from ..utils.rng import RngLike
from .randomized import randomized_svd

__all__ = ["StreamingState", "initialize_streaming", "incorporate_batch"]


@dataclasses.dataclass(frozen=True)
class StreamingState:
    """Truncated SVD state carried between streaming updates.

    Attributes
    ----------
    modes:
        ``(M, k)`` left singular vectors (``k <= K``; fewer than ``K``
        only when fewer than ``K`` snapshots have been seen).
    singular_values:
        ``(k,)`` singular values, descending.
    n_seen:
        Total number of snapshots ingested so far.
    batches:
        Number of batches ingested (``i`` in the paper's notation).
    """

    modes: np.ndarray
    singular_values: np.ndarray
    n_seen: int
    batches: int

    @property
    def rank(self) -> int:
        return int(self.singular_values.shape[0])


def _validate_batch(a: np.ndarray, name: str = "A") -> np.ndarray:
    a = as_floating(a, name)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D (dofs x snapshots), got ndim={a.ndim}")
    if a.shape[1] == 0:
        raise ShapeError(f"{name} must contain at least one snapshot")
    return a


def _inner_svd(
    matrix: np.ndarray,
    k: int,
    low_rank: bool,
    oversampling: int,
    power_iters: int,
    rng: RngLike,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense or randomized SVD of the small inner matrix; returns (U, s)."""
    if low_rank:
        u, s, _ = randomized_svd(
            matrix, k, oversampling=oversampling, power_iters=power_iters, rng=rng
        )
        return u, s
    u, s, _ = economy_svd(matrix)
    return u, s


def initialize_streaming(
    a0: np.ndarray,
    k: int,
    low_rank: bool = False,
    oversampling: int = 10,
    power_iters: int = 0,
    rng: RngLike = None,
) -> StreamingState:
    """Phase I of Algorithm 1: factor the first batch.

    ``A_0 = Q R``; ``R = U' D_0 V_0^T``; ``U_0 = Q U'`` truncated to ``K``.
    The QR-first formulation keeps the SVD on the small ``B x B`` factor
    ``R`` instead of the tall ``M x B`` batch; ``Q`` stays implicit and
    only the ``K`` kept columns of ``U'`` are lifted through it.
    """
    a0 = _validate_batch(a0, "A0")
    q, r = householder_qr(a0)
    u_inner, s = _inner_svd(r, k, low_rank, oversampling, power_iters, rng)
    u_inner, s, _ = truncate_svd(u_inner, s, None, k)
    modes = q.apply(u_inner)
    return StreamingState(
        modes=modes,
        singular_values=s,
        n_seen=a0.shape[1],
        batches=1,
    )


def incorporate_batch(
    state: StreamingState,
    a: np.ndarray,
    k: int,
    ff: float,
    low_rank: bool = False,
    oversampling: int = 10,
    power_iters: int = 0,
    rng: RngLike = None,
) -> StreamingState:
    """One streaming update (the ``while`` body of Algorithm 1).

    Parameters mirror :func:`initialize_streaming`; ``ff`` is the forget
    factor weighting the previous state's contribution.
    """
    a = _validate_batch(a)
    if a.shape[0] != state.modes.shape[0]:
        raise ShapeError(
            f"batch has {a.shape[0]} rows but the state was initialised "
            f"with {state.modes.shape[0]} degrees of freedom"
        )
    if not (0.0 < ff <= 1.0):
        # A bad forget factor is a configuration mistake, not bad data.
        raise ConfigurationError(
            f"forget factor must lie in (0, 1], got {ff}"
        )

    # Column-concatenate the forgotten previous factorization with new data:
    # m_ap = [ff * U_{i-1} D_{i-1} | A_i], F-ordered so the QR below can
    # factor it in place.
    kept = state.modes.shape[1]
    m_ap = np.empty(
        (a.shape[0], kept + a.shape[1]),
        dtype=np.result_type(state.modes.dtype, a.dtype),
        order="F",
    )
    np.multiply(
        state.modes,
        (ff * state.singular_values)[np.newaxis, :],
        out=m_ap[:, :kept],
    )
    m_ap[:, kept:] = a

    # Step 1: QR of the concatenation (Q kept implicit).
    u_dash, d_dash = householder_qr(m_ap, overwrite_a=True)

    # Step 2: SVD of the small factor.
    u_tilde, d_tilde = _inner_svd(
        d_dash, k, low_rank, oversampling, power_iters, rng
    )

    # Steps 3-5: truncate to K and lift back through Q.
    keep = min(k, d_tilde.shape[0])
    modes = u_dash.apply(u_tilde[:, :keep])
    return StreamingState(
        modes=modes,
        singular_values=d_tilde[:keep],
        n_seen=state.n_seen + a.shape[1],
        batches=state.batches + 1,
    )
