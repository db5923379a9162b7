"""Performance modelling: the stand-in for the paper's Theta runs.

The weak-scaling experiment of Figure 1(c) ran on up to 256 nodes of the
Theta KNL machine.  Offline and single-node, we reproduce its *shape* with a
calibrated analytic model:

* the **compute term** is measured by timing the actual local kernels on
  this machine (:func:`repro.perf.scaling.measure_local_compute`) — under
  weak scaling it is constant per rank by construction;
* the **communication term** uses the classic α-β (latency-bandwidth) model
  with message sizes given by the exact traffic formulas of APMOS
  (:mod:`repro.perf.costs`); those formulas are validated against byte
  counts recorded by :class:`repro.smpi.CommTracer` on runnable rank counts;
* the **root-SVD term** (the ``W`` factorization at rank 0, whose width
  grows linearly with the rank count) uses flop counts divided by a
  measured effective flop rate.
"""

from .costs import (
    ApmosTraffic,
    StreamStepFlops,
    apmos_root_svd_flops,
    apmos_traffic,
    flops_gemm,
    flops_qr,
    flops_svd,
    stream_step_flops,
)
from .machine import MachineModel, THETA_KNL, LAPTOP
from .scaling import (
    ScalingPoint,
    ScalingResult,
    StrongScalingStudy,
    WeakScalingStudy,
    measure_effective_flops,
    measure_local_compute,
)

__all__ = [
    "MachineModel",
    "THETA_KNL",
    "LAPTOP",
    "flops_qr",
    "flops_svd",
    "flops_gemm",
    "apmos_traffic",
    "ApmosTraffic",
    "apmos_root_svd_flops",
    "StreamStepFlops",
    "stream_step_flops",
    "WeakScalingStudy",
    "StrongScalingStudy",
    "ScalingPoint",
    "ScalingResult",
    "measure_local_compute",
    "measure_effective_flops",
]
