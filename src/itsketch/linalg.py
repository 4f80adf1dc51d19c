"""Dense linear-algebra kernels shared by the whole package: thin wrappers
around LAPACK and BLAS (via numpy/scipy). The triangular solves call dtrtrs
and check only shapes and a zero diagonal. Every QR is _householder: NumPy's
dgeqrf (and dorgqr for Q) in place on one column-major copy, with both
OpenBLAS copies (NumPy's and SciPy's) held at one thread for qr_solve and for
thin QRs of at most _THIN_QR_ONE_THREAD_MAX entries.
"""

from __future__ import annotations

import contextlib
import ctypes
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


def _as_rhs(a, b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError(f"b must be a vector of length m={a.shape[0]}, got shape {b.shape}")
    return b


def _householder(cols: np.ndarray, one_thread: bool, form_q: bool = False) -> np.ndarray:
    """R (min(m, k) x k) of the m x k matrix stored column after column in the
    C-contiguous k x m buffer cols, by dgeqrf in place; form_q (m >= k) then
    leaves Q's columns in cols, by dorgqr. one_thread holds both OpenBLAS copies
    at one thread: below 128 columns dgeqrf's ~2k level-2 calls then skip the
    threads' hand-offs, and from 128 on its bits no longer depend on the count."""
    k, m = cols.shape
    tau = np.empty(min(m, k))
    with contextlib.ExitStack() as window:
        if one_thread:
            window.enter_context(_one_thread_lock)
            window.enter_context(_one_blas_thread())
        _lapack(_geqrf, m, k, cols, m, tau)
        r = np.triu(cols[:, : tau.size].T)
        if form_q:
            _lapack(_orgqr, m, k, k, cols, m, tau)
    return r


def _thin_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q (m x n, C-contiguous) and R of a tall m x n block, from one column-major
    copy of a; on one OpenBLAS thread for at most _THIN_QR_ONE_THREAD_MAX entries."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if m < n:
        raise ValueError(f"need m >= n, got {m} x {n}")
    qr = np.array(a.T, order="C")  # a's columns, one after another
    r = _householder(qr, one_thread=a.size <= _THIN_QR_ONE_THREAD_MAX, form_q=True)
    return np.ascontiguousarray(qr.T), r


def qr_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder least-squares solution of min ||b - a x|| for a length-m
    vector b, and the R factor of a with nonnegative diagonal. Only R of [a | b]
    is computed, by the thin QR's kernel from one column-major copy of a and b,
    on one OpenBLAS thread at any size: its leading n x n block is R, and the
    last column of those rows is Q'b."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    (m, n), b = a.shape, _as_rhs(a, b)
    if m < n:
        raise ValueError(f"need m >= n, got {m} x {n}")
    cols = np.empty((n + 1, m))
    cols[:n], cols[n] = a.T, b
    r_aug = _householder(cols, one_thread=True)
    del cols  # keep the peak at one copy of [a | b]
    signs = np.sign(np.diag(r_aug)[:n])
    signs[signs == 0] = 1.0
    r = signs[:, None] * r_aug[:n, :n]
    return tri_solve_upper(r, signs * r_aug[:n, n]), r


def _norm2(v: np.ndarray) -> float:
    """2-norm by BLAS nrm2, which scales as it sums and so overflows only when
    the norm itself does (np.linalg.norm squares first, past about 1.3e154).
    A NaN or inf entry gives a NaN or inf norm."""
    return float(scipy.linalg.norm(v, check_finite=False))


def svd_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a, sorted descending."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return np.linalg.svd(a, compute_uv=False)

