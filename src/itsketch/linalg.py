"""Dense linear-algebra kernels shared by the whole package.

Thin wrappers around LAPACK (via numpy/scipy) plus Lambert W, written directly;
the triangular solves call dtrtrs and check only shapes and a zero diagonal.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg.lapack


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
    """qr_solve(a, b) given the joined m x (n+1) array [a | b], which it
    reads without copying; LAPACK works on its own copy."""
    m, n = ab.shape[0], ab.shape[1] - 1
    if m < n:
        raise ValueError(f"need m >= n, got {m} x {n}")
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
