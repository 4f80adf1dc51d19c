"""Dense linear-algebra kernels shared by the whole package.

Thin wrappers around LAPACK (via numpy/scipy) plus Lambert W, written directly;
the triangular solves call dtrtrs and check only shapes and a zero diagonal.
The QR of [a | b] holds OpenBLAS at one thread (see _qr_solve_joined), and so
does the thin QR of a block of at most _THIN_QR_ONE_THREAD_MAX entries
(_thin_qr). The hold covers both copies of OpenBLAS: NumPy's and SciPy's.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg.lapack
from numpy.linalg import lapack_lite


class SingularMatrixError(ValueError):
    """A triangular factor has an exactly-zero diagonal entry."""


_trtrs = scipy.linalg.lapack.dtrtrs  # fetched once, not per call


def _tri_solve(r: np.ndarray, c: np.ndarray, trans: int) -> np.ndarray:
    """y with op(r) @ y = c, op(r) = r or r.T (trans 0 or 1), by dtrtrs mapped
    as solve_triangular maps it, so y is its bits: an F-contiguous r goes in
    as it is, any other as the lower-triangular r.T."""
    r = np.asarray(r, dtype=float)
    if r.shape != (len(c), len(c)):  # dtrtrs checks neither
        raise ValueError(f"expected a square matrix of order {len(c)}, got shape {r.shape}")
    if r.flags.f_contiguous:
        y, info = _trtrs(r, c, lower=0, trans=trans)
    else:
        y, info = _trtrs(r.T, c, lower=1, trans=1 - trans)
    if info > 0:
        raise SingularMatrixError("zero diagonal entry in triangular factor")
    return y


def tri_solve_upper(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve r @ y = c by back substitution (r upper triangular). Checks only
    the shapes and r's diagonal; a NaN or inf in r or c propagates into y."""
    return _tri_solve(r, c, 0)


def tri_solve_upper_transpose(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve r.T @ y = c by forward substitution, checked as tri_solve_upper."""
    return _tri_solve(r, c, 1)


def _find_openblas_threads(package):
    """(get, set) of the thread count of the OpenBLAS that package (numpy or scipy)
    ships in its own `<name>.libs` folder; or None."""
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for path in libs.glob("lib*openblas*"):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for pre, suf in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            get, set_ = (getattr(lib, f"{pre}{op}_num_threads{suf}", None) for op in ("get", "set"))
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_


_get_threads, _set_threads = _find_openblas_threads(np) or (None, None)
_scipy_get_threads, _scipy_set_threads = _find_openblas_threads(scipy) or (None, None)
_one_thread_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold NumPy's and SciPy's OpenBLAS at one thread, then restore their counts
    (a no-op for a copy not found). The counts are process-wide, so windows that
    may overlap take _one_thread_lock."""
    with contextlib.ExitStack() as restore:
        for get, set_ in ((_get_threads, _set_threads), (_scipy_get_threads, _scipy_set_threads)):
            if set_ is not None:
                restore.callback(set_, get())
                set_(1)
        yield


# _thin_qr holds OpenBLAS at one thread for blocks of at most this many entries.
# One thread's time over two threads' (2-core host, NumPy 2.4.6, OpenBLAS 0.3.31,
# two runs): 0.52-0.55 at 4000 x 50, 0.77-0.78 at 8000 x 64, 0.94-0.96 at
# 13000 x 50, 1.06-1.11 at 7000 x 100, 1.17-1.41 at 10000 x 100, 1.45-1.61 at
# 1e5 x 100. Tall blocks cross at about 6.5e5 entries; the limit sits below that.
# Wider blocks, on dgeqrf's blocked path, cross later (0.78-0.81 at 5000 x 200).
_THIN_QR_ONE_THREAD_MAX = 2**19

# NumPy's LAPACK, not SciPy's: above the limit a call into SciPy's OpenBLAS wakes its
# own worker threads, which spin on after it and slowed NumPy's BLAS calls that came
# next: gen_randsvd(20000, 60, ...) took 1.3-1.6x as long, and a solve after it 2x.
_geqrf, _orgqr = lapack_lite.dgeqrf, lapack_lite.dorgqr


def _lapack(fn, *args) -> None:
    """fn(*args, work, lwork, info), a routine of NumPy's lapack_lite, after a
    workspace query; a non-zero info raises LinAlgError."""
    work = np.empty(1)
    fn(*args, work, -1, 0)
    work = np.empty(int(work[0]))
    info = fn(*args, work, work.size, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {fn.__name__} returned info={info}")


def _thin_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q (m x n, C-contiguous) and R of a tall m x n block: the bits of
    np.linalg.qr(a, mode="reduced") at the same thread count, from the same
    dgeqrf and dorgqr of NumPy's LAPACK, which here work in place on one
    column-major copy of a. A block of at most _THIN_QR_ONE_THREAD_MAX entries
    runs on one OpenBLAS thread: below 128 columns (dgeqrf's unblocked path)
    its ~2n level-2 calls then skip the threads' hand-offs, and from 128 on its
    bits no longer depend on the thread count."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if m < n:
        raise ValueError(f"need m >= n, got {m} x {n}")
    qr = np.array(a.T, order="C")  # a's columns, one after another
    tau = np.empty(n)
    with contextlib.ExitStack() as window:
        if a.size <= _THIN_QR_ONE_THREAD_MAX:
            window.enter_context(_one_thread_lock)
            window.enter_context(_one_blas_thread())
        _lapack(_geqrf, m, n, qr, m, tau)
        r = np.triu(qr[:, :n].T)
        _lapack(_orgqr, m, n, n, qr, m, tau)
    return np.ascontiguousarray(qr.T), r


def qr_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder least-squares solution of min ||b - a x|| for a vector b,
    and the R factor of a with nonnegative diagonal.

    Only R of [a | b] is computed: its leading n x n block is R and the last
    column of those rows is Q'b, so Q is never formed.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return _qr_solve_joined(np.column_stack([a, b]))


def _qr_solve_joined(ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qr_solve(a, b) given the joined m x (n+1) array [a | b], which it reads
    without copying; LAPACK works on its own copy, on one OpenBLAS thread. Below 128
    columns dgeqrf's unblocked dgeqr2 makes ~2(n+1) level-2 calls that OpenBLAS would
    split and join over its threads; R comes ~2x sooner, in bits the count cannot change."""
    m, n = ab.shape[0], ab.shape[1] - 1
    if m < n:
        raise ValueError(f"need m >= n, got {m} x {n}")
    with _one_thread_lock, _one_blas_thread():
        r_aug = np.linalg.qr(ab, mode="r")
    signs = np.sign(np.diag(r_aug)[:n])
    signs[signs == 0] = 1.0
    r = signs[:, None] * r_aug[:n, :n]
    return tri_solve_upper(r, signs * r_aug[:n, n]), r


def svd_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a, sorted descending."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return np.linalg.svd(a, compute_uv=False)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for x >= 0.

    Newton iteration from the initial guess log(1 + x); converges to
    1e-14 absolute well within the 100-iteration cap for all x >= 0.
    """
    if x < 0:
        raise ValueError(f"lambert_w0 requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    w = math.log1p(x)
    for _ in range(100):
        ew = math.exp(w)
        step = (w * ew - x) / (ew * (1.0 + w))
        w -= step
        if abs(step) <= 1e-14:
            break
    return w
