"""Environment record stored with every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS copy loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                   and line.split()[-1].startswith("/")})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in _GET_THREADS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def record(root: Path, pool_threads: int, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "pool_threads": pool_threads,
        "seed": seed,
        "git_commit": git_commit(root),
    }
