"""Run manifest: interpreter, library and BLAS versions, threads in force, source identity.

The thread count is read back from OpenBLAS itself, so the manifest shows the
policy the program actually applied, whatever ``MFLOW_THREADS`` asked for.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("MFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas() -> dict:
    """Version string and live thread count of the OpenBLAS that numpy loaded."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas*.so*")) if libs.is_dir() else []
    if not found:
        return {"library": None, "version": None, "threads": None}
    lib = ctypes.CDLL(str(found[0]))
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return {"library": found[0].name, "version": get_config().decode(),
            "threads": int(get_threads())}


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(root: Path) -> str:
    """sha256 over the program's source files, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "mflow").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = _openblas()
    requested = os.environ.get("MFLOW_THREADS")
    honored = None
    if requested and requested.strip().isdigit() and blas["threads"] is not None:
        honored = int(requested) == blas["threads"]
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_policy": {
            "blas_threads_in_force": blas["threads"],
            "mflow_threads_requested": requested,
            "mflow_threads_honored": honored,
            "threadpoolctl_installed": importlib.util.find_spec("threadpoolctl") is not None,
        },
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }
