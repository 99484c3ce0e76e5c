"""Small shared helpers."""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np


def parallel_map(fn, items):
    """Map fn over items in order, in the calling thread.

    iso_scan maps its members through this one call.  Each member is a small
    dense solve, and a thread pool measured slower than this loop.
    """
    return [fn(x) for x in items]


@functools.cache
def _openblas():
    """numpy's OpenBLAS as (library, symbol prefix, symbol suffix), or None for another BLAS.

    numpy's wheels bundle OpenBLAS with every symbol under a scipy_ prefix and, in
    64-bit integer builds, a trailing 64_: scipy_openblas_set_num_threads64_,
    scipy_dpbtrf_64_.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            if hasattr(lib, f"{prefix}openblas_get_num_threads{suffix}"):
                return lib, prefix, suffix
    return None


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of numpy's OpenBLAS, or None for another BLAS."""
    if (found := _openblas()) is None:
        return None
    lib, prefix, suffix = found
    get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
    set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@functools.cache
def _banded_lapack():
    """(dpbtrf, dtbtrs) of numpy's OpenBLAS, or None where it exports no 64-bit integer ones.

    Each takes gfortran's hidden lengths of its character arguments at the end.
    """
    found = _openblas()
    if found is None or found[2] != "64_":
        return None
    lib, prefix, _ = found
    try:
        pbtrf, tbtrs = (getattr(lib, f"{prefix}{name}_64_") for name in ("dpbtrf", "dtbtrs"))
    except AttributeError:  # an OpenBLAS built without LAPACK
        return None
    int_ = ctypes.POINTER(ctypes.c_int64)
    pbtrf.restype = tbtrs.restype = None
    # uplo, n, kd, ab, ldab, info
    pbtrf.argtypes = [ctypes.c_char_p, int_, int_, ctypes.c_void_p, int_, int_, ctypes.c_size_t]
    # dtbtrs(uplo, trans, diag, n, kd, nrhs, ab, ldab, b, ldb, info) gets no argtypes:
    # converting against them cost about 2 us a call, a tenth of a 40/8 plate solve
    # (2 CPUs, Xeon).  `cholesky_band` builds each argument as a ctypes object of its
    # type instead, once per factor
    return pbtrf, tbtrs


def _ints(*values):
    """Pointers to 64-bit integers, as Fortran passes integer arguments."""
    return [ctypes.byref(ctypes.c_int64(v)) for v in values]


def cholesky_band(ab):
    """Cholesky factor L of a symmetric positive definite A, both as lower bands, and L's solver.

    Row i of the (n, kd + 1) band holds A[i, i] .. A[i + kd, i]; C-contiguous, it
    is LAPACK's column-major lower band with ldab = kd + 1, so a float64 one is
    factored in place.  Returns (L, solve) with solve(b, trans) = L^-1 b (trans
    "N") or L^-T b (trans "T") for a vector b of L's order, left as it is; raises
    LinAlgError naming the first leading minor that is not positive definite.
    solve needs no zero on L's diagonal; its arguments are set up once, for the
    many solves of an iteration, and it writes into its own buffer, so it serves
    one thread at a time.  LAPACK's dpbtrf and dtbtrs run from numpy's OpenBLAS,
    or from scipy on a numpy built without them.
    """
    ab = np.require(ab, np.float64, ["C", "W"])
    n, kd1 = ab.shape
    if (lapack := _banded_lapack()) is None:
        from scipy.linalg.lapack import dpbtrf, dtbtrs

        c, info = dpbtrf(ab.T, lower=1, overwrite_ab=1)
        ab = c.T

        def solve(b, trans: str):
            return dtbtrs(c, b.reshape(n, 1), uplo="L", trans=trans)[0][:, 0]
    else:
        x, info = np.empty(n), ctypes.c_int64()
        lapack[0](b"L", *_ints(n, kd1 - 1), ab.ctypes.data, *_ints(kd1), ctypes.byref(info), 1)
        info = info.value
        one = ctypes.c_size_t(1)  # the hidden length of each character argument
        # the data_as pointers keep ab and x alive
        args = (*_ints(n, kd1 - 1, 1), ab.ctypes.data_as(ctypes.c_void_p), *_ints(kd1),
                x.ctypes.data_as(ctypes.c_void_p), *_ints(max(n, 1)), ctypes.byref(ctypes.c_int64()),
                one, one, one)

        def solve(b, trans: str):
            x[:] = b
            lapack[1](b"L", trans.encode(), b"N", *args)
            return x.copy()
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")
    return ab, solve


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    Its one caller is cli.run, around each subcommand: at their sizes (82 rows at
    k_max 20) a second thread buys no wall time and doubles the CPU, and one
    thread makes the printed bytes independent of the caller's setting.  The
    count is process-wide, so this suits code that calls BLAS from one Python
    thread, as every subcommand does.  It covers LAPACK from numpy's OpenBLAS
    too, the plate solver's `cholesky_band` and the solves it returns among it.
    Under another BLAS it does nothing.
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
