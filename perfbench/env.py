"""Pinned environment for every process the benchmark launches.

numpy and scipy each load their own OpenBLAS, each defaulting to one
thread per core; on a small box the two pools oversubscribe the cores
and step times turn bimodal.  Every benchmark process therefore runs
with BLAS pinned to one thread, and every output records what was
pinned and which BLAS libraries the measured process mapped.
"""

from __future__ import annotations

import os
import platform
import re
from typing import Dict, List, Union

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_BLAS_RE = re.compile(r"(openblas|blas|lapack|mkl|flexiblas|blis)", re.I)


def pin_current_process() -> None:
    """Pin this process's BLAS threads; call before numpy is imported."""
    os.environ.update(PINNED_THREADS)


def child_environ(*, unbuffered: bool = False) -> Dict[str, str]:
    """Environment for a launched program process: pinned BLAS and the
    checkout's ``src`` (the program) and root (this package) importable."""
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def blas_libraries(pid: Union[int, str] = "self") -> List[str]:
    """Basenames of the BLAS/LAPACK shared objects mapped into ``pid``."""
    found = set()
    try:
        with open(f"/proc/{pid}/maps") as maps:
            for line in maps:
                parts = line.split()
                if len(parts) >= 6 and ".so" in parts[5]:
                    name = os.path.basename(parts[5])
                    if _BLAS_RE.search(name):
                        found.add(name)
    except OSError:
        return []
    return sorted(found)


def peak_rss_mb(pid: Union[int, str] = "self") -> float:
    """``VmHWM`` (peak resident set) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def environment_record(pid: Union[int, str] = "self") -> dict:
    """What the measurement ran on: cores, versions, mapped BLAS, pins."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_libraries": blas_libraries(pid),
        "thread_env": {key: os.environ.get(key) for key in PINNED_THREADS},
    }
