"""Seeded inputs with a planted spectrum.

Each batch is ``B diag(s) G_j + noise``: ``B`` holds 2K orthonormal
modes drawn from the workload seed, ``s`` drops by a factor of 10
after mode K, and the coefficient blocks ``G_j`` come from a fixed
generator shared by every seed.  The solver is equivariant under an
orthogonal change of the row space, so the streamed basis's angle to
``B[:, :K]`` depends on ``G_j`` alone: ``subspace_err`` repeats across
seeds up to rounding (and the tiny seeded noise), while the seed still
changes every number the kernels see.
"""

from __future__ import annotations

import numpy as np

LEAD = (10.0, 5.0)   # geometric range of the leading K singular values
TAIL = (0.5, 0.1)    # geometric range of the K planted modes after the gap
NOISE = 1e-6         # norm of the seeded dense noise added to each column
COEFF_SEED = 20250   # generator of the coefficient blocks, fixed on purpose


class Planted:
    def __init__(self, seed: int, n_dof: int, k: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.coeff_rng = np.random.default_rng(COEFF_SEED)
        self.k = k
        self.n_dof = n_dof
        basis, _ = np.linalg.qr(self.rng.standard_normal((n_dof, 2 * k)))
        self.basis = basis
        self.spectrum = np.concatenate(
            (np.geomspace(*LEAD, k), np.geomspace(*TAIL, k))
        )

    @property
    def leading(self) -> np.ndarray:
        """The planted leading K modes, ``(n_dof, K)`` orthonormal."""
        return self.basis[:, : self.k]

    def batch(self, columns: int) -> np.ndarray:
        coeffs = self.coeff_rng.standard_normal((2 * self.k, columns))
        coeffs *= self.spectrum[:, np.newaxis]
        data = self.basis @ coeffs
        noise = self.rng.standard_normal((self.n_dof, columns))
        data += noise * (NOISE / np.sqrt(self.n_dof))
        return data

    def batches(self, count: int, columns: int) -> list:
        return [self.batch(columns) for _ in range(count)]
