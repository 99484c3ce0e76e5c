"""Small shared helpers."""

from __future__ import annotations

import contextlib
import ctypes
import functools


def parallel_map(fn, items):
    """Map fn over items in order, in the calling thread.

    iso_scan maps its members through this one call.  Each member is a small
    dense solve, and a thread pool measured slower than this loop.
    """
    return [fn(x) for x in items]


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of numpy's OpenBLAS, or None for another BLAS."""
    import numpy as np

    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    # numpy's wheels bundle OpenBLAS under the scipy_openblas prefix, 64-bit
    # integer builds with a trailing 64_
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    Its one caller is cli.run, around each subcommand: at their sizes (82 rows at
    k_max 20) a second thread buys no wall time and doubles the CPU, and one
    thread makes the printed bytes independent of the caller's setting.  The
    count is process-wide, so this suits code that calls BLAS from one Python
    thread, as every subcommand does.  Under another BLAS it does nothing.
    """
    calls = _openblas_thread_calls()
    before = calls[0]() if calls else 1
    if before == 1:
        yield
        return
    calls[1](1)
    try:
        yield
    finally:
        calls[1](before)
