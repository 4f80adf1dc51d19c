"""Random subspace embeddings.

The sparse sign embedding: a d x m matrix whose columns each carry exactly
zeta entries of value +-1/sqrt(zeta) in distinct random rows. Also the
distortion measurement and the embedding-dimension formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import lambert_w0, svd_values


@dataclass(frozen=True)
class DistortionReport:
    """Measured distortion of an embedding on a given subspace."""

    epsilon: float
    sigma_max: float
    sigma_min: float


def _has_repeat(idx: np.ndarray) -> np.ndarray:
    """Per row of idx, whether it holds a value twice."""
    srt = np.sort(idx, axis=1)
    return np.any(srt[:, 1:] == srt[:, :-1], axis=1)


def _distinct_rows(d: int, m: int, zeta: int, rng: np.random.Generator) -> np.ndarray:
    """zeta distinct uniform row indices for each of m columns, shape (m, zeta).

    Sampled by vectorized rejection: redraw only the columns whose draw
    contains a repeat, and check only those again. For zeta << d almost no
    redraws are needed.
    """
    if zeta == d:
        return np.tile(np.arange(d), (m, 1))
    idx = rng.integers(0, d, size=(m, zeta))
    bad = np.flatnonzero(_has_repeat(idx))
    while bad.size:
        idx[bad] = rng.integers(0, d, size=(bad.size, zeta))
        bad = bad[_has_repeat(idx[bad])]
    return idx


@dataclass(frozen=True)
class SparseSignEmbedding:
    """Sparse sign embedding S (d x m, zeta nonzeros per column), held once as a CSC matrix."""

    d: int
    m: int
    zeta: int
    scale: float
    matrix: sp.csc_matrix = field(repr=False, compare=False)

    def apply_dense(self, a: np.ndarray) -> np.ndarray:
        """S @ a for a dense m x n matrix (or length-m vector)."""
        a = np.asarray(a, dtype=float)
        if a.shape[0] != self.m:
            raise ValueError(f"dimension mismatch: S is {self.d}x{self.m}, input has {a.shape[0]} rows")
        return self.matrix @ a

    def apply_sparse(self, a: sp.spmatrix) -> np.ndarray:
        """S @ a for a sparse m x n matrix, returned dense (d is small)."""
        if a.shape[0] != self.m:
            raise ValueError(f"dimension mismatch: S is {self.d}x{self.m}, input has {a.shape[0]} rows")
        return np.asarray((self.matrix @ a.tocsc()).todense())


def sparse_sign_new(d: int, m: int, zeta: int, rng_seed: int) -> SparseSignEmbedding:
    """Construct a sparse sign embedding, deterministic for a given seed."""
    if d < 1 or m < 1:
        raise ValueError("d and m must be >= 1")
    if not 1 <= zeta <= d:
        raise ValueError(f"need 1 <= zeta <= d, got zeta={zeta}, d={d}")
    rng = np.random.default_rng(rng_seed)
    indices = _distinct_rows(d, m, zeta, rng).ravel()
    scale = 1.0 / math.sqrt(zeta)
    data = rng.choice(np.array([-scale, scale]), size=m * zeta)
    indptr = zeta * np.arange(m + 1)
    mat = sp.csc_matrix((data, indices, indptr), shape=(d, m))
    return SparseSignEmbedding(d=d, m=m, zeta=zeta, scale=scale, matrix=mat)


def measure_distortion(s, basis_q: np.ndarray) -> DistortionReport:
    """Distortion of an embedding on the subspace spanned by the columns of
    basis_q, which must be orthonormal."""
    basis_q = np.asarray(basis_q, dtype=float)
    k = basis_q.shape[1]
    gram_err = np.linalg.norm(basis_q.T @ basis_q - np.eye(k))
    if gram_err > 1e-10:
        raise ValueError(f"basis is not orthonormal (||Q'Q - I|| = {gram_err:.2e})")
    sv = svd_values(s.apply_dense(basis_q))
    sigma_max, sigma_min = float(sv[0]), float(sv[-1])
    epsilon = max(sigma_max - 1.0, 1.0 - sigma_min)
    return DistortionReport(epsilon=epsilon, sigma_max=sigma_max, sigma_min=sigma_min)


def default_distortion(n: int, d: int) -> float:
    """Fallback distortion value sqrt(n/d) used to set solver parameters
    when no measurement is requested."""
    return math.sqrt(n / d)


def choose_dim(m: int, n: int, accuracy_u: float, variant: str = "basic") -> int:
    """Embedding dimension balancing sketch-factorization cost against
    iteration cost, with floors guaranteeing a convergent scheme.

    variant is one of {"basic", "damped", "momentum"}.
    """
    if m < n or n < 1:
        raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
    if not 0 < accuracy_u < 1:
        raise ValueError(f"accuracy must be in (0, 1), got {accuracy_u}")
    log_inv_u = math.log(1.0 / accuracy_u)
    if variant == "basic":
        arg = (6 - 4 * math.sqrt(2)) * (m / n**2) * log_inv_u
        d = math.ceil((6 + 4 * math.sqrt(2)) * n * math.exp(lambert_w0(arg)))
        return max(d, 20 * n)
    if variant in ("damped", "momentum"):
        a = 2.0 if variant == "damped" else 1.0
        arg = (4 * m / (a * n**2)) * log_inv_u
        d = math.ceil(a * n * math.exp(lambert_w0(arg)))
        return max(d, 4 * n)
    raise ValueError(f"unknown variant {variant!r}")
