"""Machine facts and a speed probe that share no code with branchcl.

The probe runs before and after each benchmark run, so a slow stretch of
a shared machine shows up next to the figures it disturbed. It uses only
numpy and plain Python: if it called into branchcl, a real speed-up of the
package would speed up the probe too and hide itself.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import time

import numpy as np


def _blas() -> tuple[str, str]:
    """(library and version, thread count) of the BLAS numpy loaded."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return name, threads


def machine_facts() -> dict:
    blas, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def _tape_block(a: np.ndarray, w: np.ndarray) -> None:
    """A fixed forward/backward loop of small matmuls with Python closures,
    the same kind of work as one training batch of the default config."""
    closures = []
    h = a
    for _ in range(64):
        out = np.tanh(h @ w)
        closures.append(lambda g, h=h, out=out: (g * (1.0 - out * out)) @ w.T)
        h = out
    g = np.ones_like(h)
    for back in reversed(closures):
        g = back(g)


def probe(blocks: int = 15) -> dict:
    """Median milliseconds of a small-matrix tape loop and of a 256-wide
    matmul, over `blocks` timed blocks each."""
    rng = np.random.default_rng(20240601)
    a = rng.standard_normal((32, 32))
    w = rng.standard_normal((32, 32)) / 8.0
    wide = rng.standard_normal((256, 256))
    tape_ms, wide_ms = [], []
    _tape_block(a, w)
    wide @ wide  # the first BLAS call starts its threads; keep it untimed
    for _ in range(blocks):
        t0 = time.perf_counter()
        _tape_block(a, w)
        t1 = time.perf_counter()
        for _ in range(8):
            wide @ wide
        t2 = time.perf_counter()
        tape_ms.append(1e3 * (t1 - t0))
        wide_ms.append(1e3 * (t2 - t1))
    return {"tape_ms": statistics.median(tape_ms), "wide_matmul_ms": statistics.median(wide_ms)}
