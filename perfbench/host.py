"""Host description and a short roofline probe.

The probe puts each layer's achieved GMAC/s and weight GB/s next to what
this machine can do: memory bandwidth from summing a large float64 array,
and float64 matrix-vector and matrix-matrix multiply throughput.
"""

import ctypes
import glob
import os
import platform
import sys
from time import perf_counter

import numpy as np
import scipy

_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")


def blas_threads():
    """Threads the loaded BLAS will use, asked of the library itself; -1 if unknown."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*"))):
        if "blas" not in os.path.basename(path).lower():
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _BLAS_GETTERS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def _best(fn, reps):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def roofline_probe():
    """Memory GB/s, float64 matvec GMAC/s and GEMM GMAC/s (best of a few reps).

    The matrix (328 MB) is larger than the last-level cache of common
    servers, so its sum and its matvec stream from memory, as the default
    model's 238 MB of weights do on every streaming hop.
    """
    mat = np.ones((6400, 6400))
    vec = np.ones(mat.shape[1])
    mem = mat.nbytes / _best(mat.sum, 3) / 1e9
    matvec = mat.size / _best(lambda: mat @ vec, 3) / 1e9
    del mat
    a = np.ones((1024, 1024))
    gemm = a.size * a.shape[1] / _best(lambda: a @ a, 3) / 1e9
    return {"mem_gb_s": mem, "matvec_gmac_s": matvec, "gemm_gmac_s": gemm}


def _blas_name():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # numpy before 1.26 only prints its config
        return "unknown"
    return f"{info.get('name', '?')} {info.get('version', '?')}"


def describe():
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": blas_threads(),
    }
