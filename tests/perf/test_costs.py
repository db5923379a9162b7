"""Unit tests for the flop/traffic cost formulas."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.perf.costs import (
    apmos_local_flops,
    apmos_root_svd_flops,
    apmos_traffic,
    flops_apply_q,
    flops_eigh,
    flops_gemm,
    flops_qr,
    flops_svd,
    stream_step_flops,
)


class TestStreamStepFlops:
    def test_single_rank_terms(self):
        # m = 1000, n = K + batch = 30: hand-evaluated counts.
        step = stream_step_flops(1000, 10, 20)
        assert step.local_qr == pytest.approx(2 * 1000 * 900 - 18000)
        assert step.apply_q == pytest.approx(4 * 1000 * 30 * 10 - 2 * 900 * 10)
        assert step.root_refactor == 0.0  # one rank skips the refactor
        assert step.small_svd == pytest.approx(26 * 30**3)
        assert step.rank0_total == pytest.approx(
            step.local_qr + step.apply_q + step.small_svd
        )

    def test_root_refactor_at_several_ranks(self):
        step = stream_step_flops(1000, 10, 20, p=4)
        expected = flops_qr(120, 30) + flops_apply_q(120, 30, 30)
        expected += 4 * flops_gemm(30, 10, 30)
        assert step.root_refactor == pytest.approx(expected)
        assert step.local_qr == stream_step_flops(1000, 10, 20).local_qr

    def test_short_blocks_ship_short_r(self):
        # 8 rows per rank < n = 12: each R has 8 rows, the stack 16.
        step = stream_step_flops(8, 4, 8, p=2)
        assert step.apply_q == pytest.approx(flops_apply_q(8, 8, 4))
        assert step.small_svd == pytest.approx(flops_svd(12, 12))
        assert step.root_refactor > 0

    def test_local_qr_dominates_the_tall_step(self):
        # The shape of the benchmark's single-rank step.
        step = stream_step_flops(32768, 10, 20)
        assert step.local_qr > step.apply_q > 10 * step.small_svd

    def test_positive_required(self):
        with pytest.raises(ConfigurationError):
            stream_step_flops(100, 0, 5)
        with pytest.raises(ConfigurationError):
            stream_step_flops(100, 5, 5, p=0)


class TestFlopCounts:
    def test_gemm(self):
        assert flops_gemm(2, 3, 4) == 48.0

    def test_qr_scaling(self):
        # doubling rows doubles the dominant 2mn^2 term
        small = flops_qr(100, 10)
        large = flops_qr(200, 10)
        assert large / small == pytest.approx(2.0, rel=0.05)

    def test_qr_handles_wide(self):
        assert flops_qr(10, 100) == flops_qr(100, 10)

    def test_svd_handles_wide(self):
        assert flops_svd(10, 100) == flops_svd(100, 10)

    def test_eigh_cubic(self):
        assert flops_eigh(20) / flops_eigh(10) == pytest.approx(8.0)

    def test_positive_required(self):
        with pytest.raises(ConfigurationError):
            flops_qr(0, 3)
        with pytest.raises(ConfigurationError):
            flops_gemm(2, -1, 3)


class TestApmosTraffic:
    def test_exact_bytes(self):
        t = apmos_traffic(p=4, n=40, r1=10, k=4)
        assert t.gather_bytes_per_rank == 40 * 10 * 8
        assert t.gather_bytes_root_total == 3 * 40 * 10 * 8
        assert t.bcast_bytes == (40 * 4 + 4) * 8

    def test_r1_clipped_to_n(self):
        t = apmos_traffic(p=2, n=5, r1=100, k=3)
        assert t.gather_bytes_per_rank == 5 * 5 * 8

    def test_k_clipped_to_n(self):
        t = apmos_traffic(p=2, n=3, r1=3, k=50)
        assert t.bcast_bytes == (3 * 3 + 3) * 8

    def test_single_rank_no_gather(self):
        t = apmos_traffic(p=1, n=10, r1=5, k=2)
        assert t.gather_bytes_root_total == 0

    def test_itemsize(self):
        t8 = apmos_traffic(p=2, n=10, r1=5, k=2, itemsize=8)
        t4 = apmos_traffic(p=2, n=10, r1=5, k=2, itemsize=4)
        assert t8.gather_bytes_per_rank == 2 * t4.gather_bytes_per_rank

    def test_matches_measured_bytes(self):
        """The formulas must equal the tracer-recorded traffic exactly."""
        from repro.perf.scaling import WeakScalingStudy

        study = WeakScalingStudy(
            points_per_rank=64, n_snapshots=30, k=3, r1=8, calibrate=False
        )
        for ranks in (2, 3, 4):
            report = study.validate_traffic(ranks)
            assert report["measured_gather_root"] == report["model_gather_root"]
            assert report["measured_bcast"] == report["model_bcast"]


class TestApmosFlops:
    def test_local_flops_grow_with_m(self):
        small = apmos_local_flops(100, 40, 10, 4)
        large = apmos_local_flops(200, 40, 10, 4)
        assert large > small

    def test_methods_differ(self):
        mos = apmos_local_flops(1000, 50, 10, 4, method="mos")
        svd = apmos_local_flops(1000, 50, 10, 4, method="svd")
        assert mos != svd
        with pytest.raises(ConfigurationError):
            apmos_local_flops(10, 5, 2, 2, method="bogus")

    def test_root_svd_grows_linearly_when_randomized(self):
        f1 = apmos_root_svd_flops(64, 800, 50, 10, randomized=True)
        f2 = apmos_root_svd_flops(128, 800, 50, 10, randomized=True)
        assert f2 / f1 == pytest.approx(2.0, rel=0.15)

    def test_root_svd_superlinear_when_dense_and_narrow(self):
        # while r1 * p < n the dense SVD cost grows superlinearly in p
        f1 = apmos_root_svd_flops(4, 800, 50, 10, randomized=False)
        f2 = apmos_root_svd_flops(8, 800, 50, 10, randomized=False)
        assert f2 / f1 > 2.5

    def test_randomized_cheaper_at_scale(self):
        dense = apmos_root_svd_flops(1024, 800, 50, 10, randomized=False)
        rand = apmos_root_svd_flops(1024, 800, 50, 10, randomized=True)
        assert rand < dense
