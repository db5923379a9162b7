"""The compact-WY QR kernel: implicit Q, sign canonicalisation, in-place
semantics and destination-buffer reuse."""

import numpy as np
import pytest

from repro.core.workspace import Workspace
from repro.exceptions import ShapeError
from repro.utils.linalg import HouseholderQ, householder_qr, qr_positive

TOL = {np.float64: 1e-12, np.float32: 1e-5}


def reference_qr(a):
    """numpy's QR with the same diag(R) >= 0 canonicalisation."""
    q, r = np.linalg.qr(a.astype(np.float64))
    signs = np.where(np.diagonal(r) < 0, -1.0, 1.0)
    return q * signs, r * signs[:, np.newaxis]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(300, 30), (40, 7), (12, 12), (5, 12)])
class TestApplyMatchesExplicit:
    def test_apply_matches_qr_positive_q(self, rng, dtype, shape):
        a = rng.standard_normal(shape).astype(dtype)
        q_implicit, r = householder_qr(a)
        q_explicit, r_explicit = qr_positive(a)
        c = rng.standard_normal((q_implicit.shape[1], 4)).astype(dtype)
        lifted = q_implicit.apply(c)
        assert lifted.dtype == dtype
        assert lifted.shape == (shape[0], 4)
        assert np.max(np.abs(lifted - q_explicit @ c)) <= TOL[dtype]
        assert np.array_equal(r, r_explicit)

    def test_factors_match_numpy_reference(self, rng, dtype, shape):
        a = rng.standard_normal(shape).astype(dtype)
        q, r = qr_positive(a)
        q_ref, r_ref = reference_qr(a)
        k = min(shape)
        assert q.shape == (shape[0], k) and r.shape == (k, shape[1])
        assert np.max(np.abs(q - q_ref)) <= 100 * TOL[dtype]
        assert np.max(np.abs(r - r_ref)) <= 100 * TOL[dtype]
        assert np.allclose(r, np.triu(r))
        assert np.all(np.diagonal(r) >= 0)


class TestMemoryOrder:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_c_and_f_inputs_agree_exactly(self, rng, dtype):
        a = rng.standard_normal((80, 9)).astype(dtype)
        q_c, r_c = householder_qr(np.ascontiguousarray(a))
        q_f, r_f = householder_qr(np.asfortranarray(a))
        c = rng.standard_normal((9, 3)).astype(dtype)
        assert np.array_equal(r_c, r_f)
        assert np.array_equal(q_c.apply(c), q_f.apply(c))

    def test_integer_input_promotes_to_float64(self):
        a = np.arange(1, 13).reshape(4, 3) ** 2
        q, r = householder_qr(a)
        assert q.dtype == np.float64 and r.dtype == np.float64
        assert np.allclose(q.explicit() @ r, a)


class TestOverwriteSemantics:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_preserved_by_default(self, rng, order):
        a = np.array(rng.standard_normal((50, 6)), order=order)
        before = a.copy()
        householder_qr(a)
        qr_positive(a)
        assert np.array_equal(a, before)

    def test_f_ordered_scratch_is_factored_in_place(self, rng):
        a = np.asfortranarray(rng.standard_normal((50, 6)))
        original = a.copy()
        q, r = householder_qr(a, overwrite_a=True)
        # The input now holds the reflectors the factor references.
        assert not np.array_equal(a, original)
        assert np.shares_memory(q._v, a)
        assert np.max(np.abs(q.explicit() @ r - original)) <= 1e-12

    def test_c_ordered_scratch_is_copied_not_corrupted(self, rng):
        # LAPACK needs Fortran layout: a C-ordered input is copied, so the
        # factor never references (or half-overwrites) the caller's array.
        a = np.ascontiguousarray(rng.standard_normal((50, 6)))
        original = a.copy()
        q, r = householder_qr(a, overwrite_a=True)
        assert not np.shares_memory(q._v, a)
        assert np.max(np.abs(q.explicit() @ r - original)) <= 1e-12


class TestRankDeficient:
    def test_zero_diagonal_keeps_positive_sign(self, rng):
        a = rng.standard_normal((30, 5))
        a[:, 2] = 0.0
        q, r = householder_qr(a)
        assert r[2, 2] == 0.0
        assert q.signs[2] == 1.0
        assert np.all(np.diagonal(r) >= 0)
        explicit = q.explicit()
        assert np.max(np.abs(explicit @ r - a)) <= 1e-12
        assert np.max(np.abs(explicit.T @ explicit - np.eye(5))) <= 1e-12

    def test_upper_triangular_input_reflects_to_identity(self, rng):
        # The one-rank gather step relies on this: a canonical R refactors
        # to Q = I and itself, exactly.
        _, r = qr_positive(rng.standard_normal((40, 8)))
        q, r_again = qr_positive(r)
        assert np.array_equal(q, np.eye(8))
        assert np.array_equal(r_again, r)


class TestShapes:
    def test_square(self, rng):
        a = rng.standard_normal((16, 16))
        q, r = householder_qr(a)
        assert q.shape == (16, 16) and r.shape == (16, 16)
        assert np.max(np.abs(q.apply(r) - a)) <= 1e-12

    def test_wide(self, rng):
        a = rng.standard_normal((5, 12))
        q, r = householder_qr(a)
        assert q.shape == (5, 5) and r.shape == (5, 12)
        assert np.max(np.abs(q.apply(r) - a)) <= 1e-12
        assert np.all(np.diagonal(r) >= 0)

    def test_empty(self):
        q, r = qr_positive(np.ones((0, 3)))
        assert q.shape == (0, 0) and r.shape == (0, 3)

    def test_apply_rejects_wrong_inner_dimension(self, rng):
        q, _ = householder_qr(rng.standard_normal((20, 4)))
        with pytest.raises(ShapeError):
            q.apply(np.ones((5, 2)))


class TestOutBuffer:
    def test_out_is_written_in_place_and_reusable(self, rng):
        a = rng.standard_normal((60, 8))
        q, _ = householder_qr(a)
        explicit = qr_positive(a)[0]
        out = np.empty((60, 3), order="F")
        for _ in range(2):  # stale contents must not leak into the result
            c = rng.standard_normal((8, 3))
            assert q.apply(c, out=out) is out
            assert np.max(np.abs(out - explicit @ c)) <= 1e-12

    @pytest.mark.parametrize(
        "bad",
        [
            np.empty((60, 3), order="C"),
            np.empty((60, 3), dtype=np.float32, order="F"),
            np.empty((59, 3), order="F"),
        ],
    )
    def test_out_must_match_exactly(self, rng, bad):
        q, _ = householder_qr(rng.standard_normal((60, 8)))
        with pytest.raises(ShapeError):
            q.apply(np.ones((8, 3)), out=bad)

    def test_workspace_double_buffering_in_fortran_order(self, rng):
        """The streaming update's pattern: take a destination, lift into
        it, give the previous generation back."""
        ws = Workspace()
        a = rng.standard_normal((60, 8))
        q, _ = householder_qr(a)
        explicit = qr_positive(a)[0]
        c1 = rng.standard_normal((8, 3))
        first = q.apply(c1, out=ws.take("u", (60, 3), np.float64, order="F"))
        assert first.flags.f_contiguous
        second = ws.take("u", (60, 3), np.float64, order="F")
        assert second is not first
        ws.give_back("u", first)
        q.apply(rng.standard_normal((8, 3)), out=second)
        # The handed-out generation survives one more lift; the lift after
        # that reuses its buffer.
        assert np.max(np.abs(first - explicit @ c1)) <= 1e-12
        assert ws.take("u", (60, 3), np.float64, order="F") is first

    def test_take_reallocates_on_order_mismatch(self):
        ws = Workspace()
        c_buf = ws.take("u", (6, 3), np.float64)
        ws.give_back("u", c_buf)
        f_buf = ws.take("u", (6, 3), np.float64, order="F")
        assert f_buf is not c_buf and f_buf.flags.f_contiguous


def test_householder_q_is_exported():
    from repro.utils import linalg

    assert "HouseholderQ" in linalg.__all__
    assert isinstance(householder_qr(np.eye(3))[0], HouseholderQ)


def test_numpy_only_fallback_holds_q_explicitly(rng, monkeypatch):
    from repro.utils import linalg

    monkeypatch.setattr(linalg, "HAVE_SCIPY", False)
    a = rng.standard_normal((40, 6))
    q, r = householder_qr(a)
    assert np.all(np.diagonal(r) >= 0)
    c = rng.standard_normal((6, 2))
    out = np.empty((40, 2), order="F")
    assert q.apply(c, out=out) is out
    assert np.max(np.abs(out - reference_qr(a)[0] @ c)) <= 1e-12
