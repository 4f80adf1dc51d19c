"""Problem generation and ingestion.

Controlled-spectrum dense instances with known solution and residual,
random sparse +-1 instances, square-exponential kernel regression
matrices, and numeric CSV handling.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .linalg import _as_matrix, _as_vector, _check_integer, _check_number, _thin_qr


@dataclass
class Truth:
    x: np.ndarray
    r: np.ndarray
    kappa: float
    beta: float  # ||r(x)||


@dataclass
class LsProblem:
    a: np.ndarray | sp.csr_matrix
    b: np.ndarray
    truth: Truth | None = None


def _haar_stiefel(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """First n columns of a Haar m x m orthogonal matrix: the QR of an m x n
    Gaussian matrix with the R-diagonal sign correction Haar measure needs."""
    g = rng.standard_normal((m, n))
    q, r = _thin_qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def gen_randsvd(m: int, n: int, kappa: float, beta: float, seed: int) -> LsProblem:
    """Dense instance A = U1 Sigma V' with log-equispaced singular values in
    [1/kappa, 1], unit-norm planted solution, and residual of norm beta drawn
    uniformly in the orthogonal complement of range(U1)."""
    for name, count, least in (("m", m, None), ("n", n, None), ("seed", seed, 0)):
        _check_integer(name, count, least)
    if not (m > n >= 2):
        raise ValueError(f"need m > n >= 2, got m={m}, n={n}")
    _check_number("kappa", kappa, 1)
    _check_number("beta", beta, 0)
    rng = np.random.default_rng(seed)
    u1 = _haar_stiefel(m, n, rng)
    v = _haar_stiefel(n, n, rng)
    sigma = kappa ** (-np.arange(n) / (n - 1))
    a = (u1 * sigma) @ v.T
    w = rng.standard_normal(n)
    x = w / np.linalg.norm(w)
    z = rng.standard_normal(m)
    # project z onto the complement of range(U1); second pass kills the
    # rounding-level leakage so that A'r is orthogonal to working accuracy
    p = z - u1 @ (u1.T @ z)
    p -= u1 @ (u1.T @ p)
    r = beta * p / np.linalg.norm(p)
    b = a @ x + r
    return LsProblem(a=a, b=b, truth=Truth(x=x, r=r, kappa=float(kappa), beta=float(beta)))


def gen_sparse(m: int, n: int, seed: int) -> LsProblem:
    """Sparse instance: exactly 3 distinct uniformly random column positions
    per row with +-1 values, Gaussian right-hand side. No ground truth."""
    for name, count, least in (("m", m, None), ("n", n, None), ("seed", seed, 0)):
        _check_integer(name, count, least)
    if not (m >= n >= 3):
        raise ValueError(f"need m >= n >= 3, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    # by rejection: only the rows holding a repeat are drawn again, and only
    # they are checked again; at n = 3 every row takes all three, undrawn
    cols = np.tile(np.arange(3), (m, 1)) if n == 3 else rng.integers(0, n, size=(m, 3))
    redraw, drawn = np.arange(m), cols
    while True:
        c0, c1, c2 = drawn.T
        redraw = redraw[(c0 == c1) | (c0 == c2) | (c1 == c2)]
        if not redraw.size:
            break
        cols[redraw] = drawn = rng.integers(0, n, size=(redraw.size, 3))
    vals = rng.choice(np.array([-1.0, 1.0]), size=(m, 3))
    indptr = 3 * np.arange(m + 1)
    a = sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(m, n))
    a.sort_indices()
    b = rng.standard_normal(m)
    return LsProblem(a=a, b=b, truth=None)


def kernel_problem(
    points: np.ndarray, targets: np.ndarray, bandwidth: float = 4.0,
    subset_size: int = 100, seed: int = 0,
) -> LsProblem:
    """Square-exponential kernel regression design matrix against a random
    subset of n centers; features standardized to zero mean, unit variance.

    Zero-variance feature columns are dropped with a warning. points (m x k)
    and targets (length m) are read by linalg._as_matrix and _as_vector.
    """
    points = _as_matrix("points", points)
    m = points.shape[0]
    targets = _as_vector("targets", targets, m)
    for name, count, least in (("subset_size", subset_size, None), ("seed", seed, 0)):
        _check_integer(name, count, least)
    if not 1 <= subset_size <= m:
        raise ValueError(f"need 1 <= subset_size <= row count {m}, got {subset_size}")
    try:
        width = 2.0 * float(bandwidth) ** 2  # the kernel's denominator
    except OverflowError:
        width = math.inf
    if not (bandwidth > 0 and 0 < width < math.inf):
        raise ValueError(
            f"need a positive bandwidth whose 2*bandwidth**2 is a finite nonzero double, "
            f"got {bandwidth}")
    mean = points.mean(axis=0)
    std = points.std(axis=0)
    keep = std > 0
    if not keep.all():
        warnings.warn(
            f"dropping {int((~keep).sum())} zero-variance feature column(s)",
            stacklevel=2,
        )
    z = (points[:, keep] - mean[keep]) / std[keep]
    rng = np.random.default_rng(seed)
    centers = rng.choice(m, size=subset_size, replace=False)
    d2 = cdist(z, z[centers], metric="sqeuclidean")
    a = np.exp(-d2 / width)
    return LsProblem(a=a, b=targets, truth=None)


class CsvParseError(ValueError):
    pass


def load_csv(path: str, target_column: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a numeric CSV with header; returns (features, targets) with row
    order preserved. A cell that is not a finite number raises CsvParseError."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        if target_column not in header:
            raise CsvParseError(f"{path}: no column named {target_column!r}")
        t_idx = header.index(target_column)
        feats: list[list[float]] = []
        targs: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                vals = [float(c) for c in row]
            except ValueError as exc:
                raise CsvParseError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
            if not np.isfinite(vals).all():
                raise CsvParseError(f"{path}:{lineno}: non-finite cell in {row}")
            targs.append(vals[t_idx])
            feats.append([v for j, v in enumerate(vals) if j != t_idx])
    if not feats:
        raise CsvParseError(f"{path}: no data rows")
    return np.array(feats), np.array(targs)


def save_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    """Write a numeric CSV using shortest round-trip decimal formatting."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in np.atleast_2d(rows):
            writer.writerow([repr(float(v)) for v in row])
