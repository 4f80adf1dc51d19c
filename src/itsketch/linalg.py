"""Dense linear-algebra kernels shared by the whole package: thin wrappers
around LAPACK and BLAS (via numpy/scipy). The triangular solves call dtrtrs
and check only shapes and a zero diagonal. Every QR is _householder: NumPy's
dgeqrf (and dorgqr for Q) in place on one column-major copy, or on the
column-major sketch itself, with both OpenBLAS copies (NumPy's and SciPy's)
held at one thread for qr_solve and for thin QRs of at most
_THIN_QR_ONE_THREAD_MAX entries. Every public entry of the package reads
the arrays a caller passes it through _as_matrix and _as_vector.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg.lapack
import scipy.sparse as sp
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
    the shapes and r's diagonal, not through _as_matrix: each solver step
    makes two of these calls, on an R of its own. A NaN or inf in r or c
    propagates into y."""
    return _tri_solve(r, c, 0)


def tri_solve_upper_transpose(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve r.T @ y = c by forward substitution, checked as tri_solve_upper."""
    return _tri_solve(r, c, 1)


def _find_openblas(package):
    """symbol(op), the function op (say "get_config") or None, of the OpenBLAS that
    package (numpy or scipy) ships in its own `<name>.libs` folder, under the
    symbol prefix and suffix of that copy's thread-count pair; or None."""
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for path in libs.glob("lib*openblas*"):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for pre, suf in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            if all(hasattr(lib, f"{pre}{op}_num_threads{suf}") for op in ("get", "set")):
                return lambda op: getattr(lib, f"{pre}{op}{suf}", None)


def _find_openblas_threads(package):
    """(get, set) of the thread count of _find_openblas(package); or None."""
    symbol = _find_openblas(package)
    if symbol is not None:
        get, set_ = symbol("get_num_threads"), symbol("set_num_threads")
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


def _read(name: str, v, sparse: bool = False):
    """v as a float64 array, or a ValueError naming it. A complex v is refused
    (a cast would keep its real part alone), a list is read as its array, any
    other real dtype converted once, and a float64 ndarray or subclass returned
    uncopied. A sparse v is taken, as float64 sparse, only where sparse is set."""
    if sp.issparse(v) and not sparse:
        raise ValueError(f"{name} must be a dense array, not sparse")
    try:
        v = v if sp.issparse(v) else np.asanyarray(v)
    except ValueError as e:  # a ragged list
        raise ValueError(f"{name} must be a numeric array: {e}") from None
    if np.iscomplexobj(v):
        raise ValueError(f"{name} must be real, not complex")
    return v.astype(float, copy=False)


def _check_integer(name: str, value, least: int | None = None) -> None:
    """ValueError unless value is a Python or NumPy integer, and, given least,
    no smaller than it. A bool is refused too: Python counts it an int, but no
    count of the package is a flag."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_number(name: str, value, least: float, strict: bool = False) -> None:
    """ValueError unless value is a finite number >= least (> least if strict).
    A NaN is refused: it compares false."""
    if not (least < value if strict else least <= value) or not value < np.inf:
        rel = ">" if strict else ">="
        raise ValueError(f"{name} must be a finite number {rel} {least}, got {value!r}")


def _as_matrix(name: str, a, sparse: bool = False, tall: bool = False):
    """_read's a, or a ValueError naming it unless a matrix (m >= n if tall)."""
    a = _read(name, a, sparse)
    if a.ndim != 2 or tall and a.shape[0] < a.shape[1]:
        rule = " with m >= n" if tall else ""
        raise ValueError(f"{name} must be a matrix{rule}, got shape {a.shape}")
    return a


def _as_vector(name: str, v, length: int | None = None) -> np.ndarray:
    """_read's v, or a ValueError naming it unless a vector (of length, if given)."""
    v = _read(name, v)
    if v.ndim != 1 or length is not None and v.size != length:
        of = "" if length is None else f" of length {length}"
        raise ValueError(f"{name} must be a vector{of}, got shape {v.shape}")
    return v


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
    """Q (m x n, C-contiguous) and R of a tall m x n float64 block, from one
    column-major copy of a; on one OpenBLAS thread for at most
    _THIN_QR_ONE_THREAD_MAX entries. Its callers check a's shape on entry."""
    qr = np.array(a.T, order="C")  # a's columns, one after another
    r = _householder(qr, one_thread=a.size <= _THIN_QR_ONE_THREAD_MAX, form_q=True)
    return np.ascontiguousarray(qr.T), r


def qr_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder least-squares solution of min ||b - a x|| for a length-m
    vector b, and the R factor of a with nonnegative diagonal. Only R of [a | b]
    is computed, by the thin QR's kernel from one column-major copy of a and b,
    on one OpenBLAS thread at any size: its leading n x n block is R, and the
    last column of those rows is Q'b. The copy is freed before the solve;
    _qr_solve_in_place factors a caller's column-major [a | b] with none."""
    a = _as_matrix("A", a, tall=True)
    m, n = a.shape
    b = _as_vector("b", b, m)
    cols = np.empty((n + 1, m))
    cols[:n], cols[n] = a.T, b
    r_aug = _householder(cols, one_thread=True)
    del cols  # keep the peak at one copy of [a | b]
    return _solve_joined(r_aug)


def _qr_solve_in_place(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qr_solve(a, b) for the m x n a and the b stored as the rows of the
    C-contiguous (n+1) x m buffer cols, a's columns first: dgeqrf overwrites
    cols, and no copy is made. The transpose of a column-major [a | b] is
    such a buffer; its caller, solvers.sketch_and_solve, checks m >= n."""
    return _solve_joined(_householder(cols, one_thread=True))


def _solve_joined(r_aug: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qr_solve's x and R from the R factor of [a | b]."""
    n = r_aug.shape[1] - 1
    signs = np.sign(np.diag(r_aug)[:n])
    signs[signs == 0] = 1.0
    r = signs[:, None] * r_aug[:n, :n]
    return tri_solve_upper(r, signs * r_aug[:n, n]), r


def _norm2(v: np.ndarray) -> float:
    """2-norm by BLAS nrm2, which scales as it sums and so overflows only when
    the norm itself does (np.linalg.norm squares first, past about 1.3e154).
    A NaN or inf entry gives a NaN or inf norm."""
    return float(scipy.linalg.norm(v, check_finite=False))


def _divisor_norm(name: str, v: np.ndarray, quotient: str) -> float:
    """_norm2(v), or a ValueError naming v unless it is nonzero and finite (nrm2
    is NaN or inf if an entry is): the quotient divides by it."""
    norm = _norm2(v)
    if not 0 < norm < np.inf:
        raise ValueError(f"{name} must be nonzero and finite: the {quotient} divides by its norm")
    return norm


def svd_values(a: np.ndarray) -> np.ndarray:
    """Singular values of the real matrix a, sorted descending."""
    return np.linalg.svd(_as_matrix("A", a), compute_uv=False)

