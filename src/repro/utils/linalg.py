"""Dense linear-algebra helpers used throughout the library.

Conventions
-----------
* Economy-size factorizations everywhere (``full_matrices=False`` /
  ``mode="reduced"``) — the snapshot matrices of the paper are tall-skinny
  (``M >> N``) and the full factors would be catastrophically large.
* QR sign canonicalisation: ``numpy.linalg.qr`` returns a factorization that
  is unique only up to the signs of the columns of ``Q`` (and the rows of
  ``R``).  The paper works around the resulting serial/parallel mismatch with
  an ad-hoc global sign flip (``qglobal = -qglobal  # Trick for consistency``
  in Listing 4).  We instead canonicalise every QR so that ``diag(R) >= 0``
  (:func:`qr_positive`), which makes local and global factors deterministic
  and removes the need for hand-placed flips.
* One QR kernel: every QR runs the compact-WY Householder factorization of
  :func:`householder_qr`, which keeps ``Q`` implicit; :func:`qr_positive`
  and :func:`economy_qr` form it explicitly from the same reflectors.
* Singular vectors are defined up to a global sign per mode; comparisons use
  :func:`align_signs` first.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import ShapeError

try:  # pragma: no cover - exercised via householder_qr/economy_svd
    from scipy.linalg import get_lapack_funcs as _get_lapack_funcs
    from scipy.linalg import svd as _scipy_svd

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - numpy-only environments
    _get_lapack_funcs = None
    _scipy_svd = None
    HAVE_SCIPY = False

__all__ = [
    "as_floating",
    "economy_qr",
    "economy_svd",
    "householder_qr",
    "HouseholderQ",
    "qr_positive",
    "align_signs",
    "orthogonality_defect",
    "subspace_angles_deg",
    "truncate_svd",
]


def as_floating(a, name: str = "array") -> np.ndarray:
    """Coerce ``a`` to a floating NumPy array, *preserving* float32/float64.

    Integer and bool inputs promote to float64; float32 stays float32 so
    memory-constrained pipelines keep their precision choice end to end.
    Complex input is rejected — the library implements the real-matrix
    algorithms of the paper.
    """
    arr = np.asarray(a)
    if np.issubdtype(arr.dtype, np.complexfloating):
        raise ShapeError(f"{name} must be real, got dtype {arr.dtype}")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return arr


def _require_2d(a: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    return arr


def economy_svd(
    a: np.ndarray, overwrite_a: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy-size SVD ``a = U @ diag(s) @ Vt``.

    Backed by ``scipy.linalg.svd`` with ``check_finite=False`` when SciPy is
    available (both route to LAPACK ``gesdd``, so the numbers are identical
    to :func:`numpy.linalg.svd` — SciPy just skips the finite-ness
    pre-scan of the whole matrix); falls back to NumPy otherwise.  Kept as
    a function so callers never accidentally request full factors of a
    tall-skinny matrix (guide: "ask for an incomplete version of the SVD").

    Parameters
    ----------
    overwrite_a:
        Allow the backend to destroy ``a``'s contents (SciPy only).  Pass
        ``True`` only for scratch buffers the caller owns and no longer
        needs — e.g. the streaming workspace after its factors are taken.
    """
    a = _require_2d(a, "a")
    if HAVE_SCIPY and np.issubdtype(np.asarray(a).dtype, np.floating):
        return _scipy_svd(
            a,
            full_matrices=False,
            check_finite=False,
            overwrite_a=overwrite_a,
        )
    return np.linalg.svd(a, full_matrices=False)


#: Block size of the compact-WY QR (``?geqrt``).  Fixed: at 32768 x 30
#: float64, block sizes 8, 10 and 16 time within noise of each other,
#: while one block spanning all 30 columns is about 20% slower.
_QR_BLOCK = 16


def _lapack_qr(dtype: np.dtype):
    """``(?geqrt, ?gemqrt)`` for ``dtype`` (SciPy memoizes the lookup)."""
    return _get_lapack_funcs(("geqrt", "gemqrt"), dtype=dtype)


class HouseholderQ:
    """The orthonormal factor of :func:`householder_qr`, kept implicit.

    ``Q = H_1 ... H_k diag(signs)`` (the leading ``k = min(m, n)``
    columns) is held as the compact-WY form LAPACK's ``?geqrt`` leaves
    behind: the unit lower-trapezoidal reflectors ``V`` (in the factored
    input's storage) and the block triangular factors ``T``.  No
    ``(m, k)`` matrix is ever formed; :meth:`apply` lifts a small
    ``(k, j)`` matrix to ``Q @ c`` with one ``?gemqrt``.  Without SciPy
    the factor is held explicitly and :meth:`apply` is a GEMM.
    """

    __slots__ = ("_v", "_t", "signs", "shape", "dtype")

    def __init__(self, v: np.ndarray, t, signs: np.ndarray) -> None:
        self._v = v
        self._t = t
        self.signs = signs
        self.shape = (v.shape[0], signs.shape[0])
        self.dtype = v.dtype

    def apply(
        self, c: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``Q @ c`` for a ``(k, j)`` matrix ``c``; returns ``(m, j)``.

        ``out`` is an optional destination: an F-ordered ``(m, j)`` array
        of this factor's dtype, overwritten in place (``[signs * c ; 0]``
        is written into it and ``Q`` applied there).
        """
        m, k = self.shape
        c = np.asarray(c)
        if c.ndim != 2 or c.shape[0] != k:
            raise ShapeError(
                f"cannot apply a {self.shape} Q factor to shape {c.shape}"
            )
        shape = (m, c.shape[1])
        if out is None:
            out = np.empty(shape, dtype=self.dtype, order="F")
        elif (
            out.shape != shape
            or out.dtype != self.dtype
            or not out.flags.f_contiguous
        ):
            raise ShapeError(
                f"out must be an F-ordered {shape} {self.dtype} array, got "
                f"{out.shape} {out.dtype}"
            )
        if self._t is None:  # numpy-only: the factor is explicit
            return np.matmul(self._v, c, out=out)
        np.multiply(self.signs[:, np.newaxis], c, out=out[:k])
        out[k:] = 0.0
        gemqrt = _lapack_qr(self.dtype)[1]
        _, info = gemqrt(self._v, self._t, out, overwrite_c=1)
        if info != 0:  # pragma: no cover - argument errors only
            raise np.linalg.LinAlgError(f"?gemqrt failed (info={info})")
        return out

    def explicit(self) -> np.ndarray:
        """The ``(m, k)`` orthonormal factor as an F-ordered array."""
        return self.apply(np.eye(self.shape[1], dtype=self.dtype))


def householder_qr(
    a: np.ndarray, overwrite_a: bool = False
) -> Tuple[HouseholderQ, np.ndarray]:
    """Reduced Householder QR ``a = Q @ R`` with ``diag(R) >= 0`` and
    ``Q`` kept implicit.

    The one QR kernel of the package.  LAPACK's blocked ``?geqrf`` drops
    to unblocked BLAS-2 code below its block size (32 columns), and the
    streaming step's ``K + batch`` is usually under that; the recursive
    compact-WY ``?geqrt`` (Elmroth & Gustavson 2000) stays BLAS-3 at any
    width.  Keeping ``Q`` implicit also skips the ``(m, k)`` explicit
    factor that a caller needing only ``Q @ c`` for a few columns would
    otherwise build and multiply.

    Parameters
    ----------
    overwrite_a:
        Let LAPACK factor ``a`` in place (zero-copy for an F-ordered
        float32/float64 ``a``); ``a`` then holds the reflectors, which the
        returned factor references.  Pass ``True`` only for scratch.

    Returns
    -------
    (Q, R):
        ``Q`` a :class:`HouseholderQ` of shape ``(m, k)``; ``R`` the fresh
        ``(k, n)`` upper-triangular factor, ``k = min(m, n)``.  Signs are
        canonical: row ``j`` of ``R`` (and column ``j`` of ``Q``) is
        flipped when ``R[j, j] < 0``; a zero diagonal keeps sign ``+1``.
        This makes the factorization of a full-column-rank matrix unique.
    """
    a = as_floating(_require_2d(a, "a"), "a")
    if a.dtype.char not in "fd":
        a = a.astype(np.float64)
    k = min(a.shape)
    if not HAVE_SCIPY or k == 0:  # numpy-only, or nothing to reflect
        q, r = np.linalg.qr(a, mode="reduced")
        signs = _canonical_signs(r)
        q *= signs[np.newaxis, :]
        r *= signs[:, np.newaxis]
        return HouseholderQ(q, None, signs), r
    geqrt, _ = _lapack_qr(a.dtype)
    vr, t, info = geqrt(min(_QR_BLOCK, k), a, overwrite_a=overwrite_a)
    if info != 0:  # pragma: no cover - argument errors only
        raise np.linalg.LinAlgError(f"?geqrt failed (info={info})")
    r = np.triu(vr[:k])
    signs = _canonical_signs(r)
    r *= signs[:, np.newaxis]
    return HouseholderQ(vr[:, :k], t, signs), r


def _canonical_signs(r: np.ndarray) -> np.ndarray:
    """``-1`` for each negative diagonal entry of ``r``, else ``+1`` (a
    zero diagonal of a rank-deficient factor keeps its column as is)."""
    return np.where(np.diagonal(r) < 0, -1.0, 1.0).astype(r.dtype)


def qr_positive(
    a: np.ndarray, overwrite_a: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced QR with the sign convention ``diag(R) >= 0`` and an
    explicit ``Q``: :func:`householder_qr` with ``Q`` formed as ``?gemqrt``
    applied to ``[I ; 0]``.

    With this convention the factorization of a full-column-rank matrix is
    unique, which is what makes the distributed TSQR reduction
    deterministic across rank counts.  ``overwrite_a`` as in
    :func:`householder_qr`.

    Returns
    -------
    (Q, R):
        ``Q`` has orthonormal columns (F-ordered), ``R`` is upper
        triangular with a nonnegative diagonal and ``a == Q @ R`` to
        round-off.
    """
    q, r = householder_qr(a, overwrite_a=overwrite_a)
    return q.explicit(), r


def economy_qr(
    a: np.ndarray, overwrite_a: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Economy-size (reduced) QR factorization ``a = Q @ R``.

    The same canonical factorization as :func:`qr_positive` — every QR in
    the package runs the one compact-WY kernel of
    :func:`householder_qr`.
    """
    return qr_positive(a, overwrite_a=overwrite_a)


def truncate_svd(
    u: np.ndarray, s: np.ndarray, vt: Optional[np.ndarray], rank: int
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Retain the leading ``rank`` triplets of an SVD, preserving order.

    ``rank`` larger than the available number of triplets is clipped rather
    than raised: streaming callers routinely ask for ``K`` modes before ``K``
    snapshots have been seen.  ``vt`` may be ``None`` (callers that only
    track the left factors — the streaming classes — need no throwaway
    right-vector dummy); it is then returned as ``None``.
    """
    if rank <= 0:
        raise ShapeError(f"rank must be positive, got {rank}")
    k = min(rank, s.shape[0])
    return u[:, :k], s[:k], None if vt is None else vt[:k, :]


def align_signs(reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Flip columns of ``candidate`` to best match the signs of ``reference``.

    Singular vectors are defined up to a per-mode factor of ``-1``; any
    serial-vs-parallel comparison must be performed modulo that ambiguity.
    The returned array is a sign-flipped *copy* of ``candidate``.
    """
    reference = _require_2d(reference, "reference")
    candidate = _require_2d(candidate, "candidate")
    if reference.shape != candidate.shape:
        raise ShapeError(
            "align_signs requires equal shapes, got "
            f"{reference.shape} vs {candidate.shape}"
        )
    dots = np.einsum("ij,ij->j", reference, candidate)
    signs = np.where(dots < 0.0, -1.0, 1.0)
    return candidate * signs[np.newaxis, :]


def orthogonality_defect(q: np.ndarray) -> float:
    """``max |Q^T Q - I|`` — how far the columns of ``Q`` are from orthonormal."""
    q = _require_2d(q, "q")
    gram = q.T @ q
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def subspace_angles_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles (degrees) between the column spaces of ``a`` and ``b``.

    Both inputs are orthonormalised internally, so raw (non-orthonormal)
    bases are accepted.  The result is sorted ascending; a perfect subspace
    match yields all-zero angles.
    """
    a = _require_2d(a, "a")
    b = _require_2d(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(
            f"subspace bases must share the ambient dimension, got "
            f"{a.shape[0]} vs {b.shape[0]}"
        )
    qa, _ = economy_qr(a)
    qb, _ = economy_qr(b)
    sigma = np.linalg.svd(qa.T @ qb, compute_uv=False)
    sigma = np.clip(sigma, -1.0, 1.0)
    return np.degrees(np.arccos(sigma))[::-1]
