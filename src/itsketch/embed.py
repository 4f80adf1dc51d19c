"""Random subspace embeddings.

The sparse sign embedding: a d x m matrix whose columns each carry zeta
entries of value +-1/sqrt(zeta), one in each of zeta contiguous row blocks,
drawn and applied in column blocks so that it is never held whole. Also the
distortion measurement and the embedding-dimension formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import lambert_w0, svd_values


@dataclass(frozen=True)
class DistortionReport:
    """Measured distortion of an embedding on a given subspace."""

    epsilon: float
    sigma_max: float
    sigma_min: float


# Columns of S drawn from one random stream. S does not depend on how many
# columns are applied at a time, so this is a constant, not a setting.
COLUMN_BLOCK = 8192


@dataclass(frozen=True)
class SparseSignEmbedding:
    """Sparse sign embedding S (d x m) in the OSNAP block form.

    The d rows are split into zeta contiguous blocks, block k starting at
    row (k*d)//zeta, and each column holds one entry +-scale in a uniform
    row of every block, with an independent sign. Columns are drawn in
    blocks of COLUMN_BLOCK, block j from the stream
    ``default_rng([rng_seed, j])``, so the first m columns of S do not
    depend on m. No array is held: S is drawn again, block by block, each
    time it is applied.
    """

    d: int
    m: int
    zeta: int
    scale: float
    rng_seed: int

    def _row_starts(self) -> np.ndarray:
        """First row of each of the zeta row blocks, then d."""
        return (np.arange(self.zeta + 1) * self.d) // self.zeta

    def _column_block(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows (int32) and entries (+-scale) of column block j, each of shape
        (columns, zeta), rows ascending along each column."""
        count = min(COLUMN_BLOCK, self.m - j * COLUMN_BLOCK)
        starts = self._row_starts()
        # one draw v gives both the row offset v >> 1 and the sign bit v & 1
        high = 2 * (self.d // self.zeta) if self.d % self.zeta == 0 else 2 * np.diff(starts)
        v = np.random.default_rng([self.rng_seed, j]).integers(
            0, high, size=(count, self.zeta), dtype=np.int32)
        rows = v >> 1
        rows += starts[:-1].astype(np.int32)
        vals = (v & 1).astype(float)
        vals *= -2 * self.scale  # exact: 0 or -2*scale, then +scale or -scale
        vals += self.scale
        return rows, vals

    def apply(self, a, b: np.ndarray | None = None) -> np.ndarray:
        """S @ a for a dense or sparse m x n a (or a dense length-m vector),
        returned dense. Given b (length m) as well, [S @ a | S @ b] as one
        d x (n+1) array, in one pass that draws S once.

        A is read through its rows and, if sparse, its CSR arrays; no product
        with A or A' is formed."""
        if a.shape[0] != self.m:
            raise ValueError(f"dimension mismatch: S is {self.d}x{self.m}, input has {a.shape[0]} rows")
        if b is not None and b.shape != (self.m,):
            raise ValueError(f"dimension mismatch: S is {self.d}x{self.m}, b has shape {b.shape}")
        sparse = sp.issparse(a)
        a = a.tocsr() if sparse else np.asarray(a, dtype=float)
        out = np.zeros((self.d, a.shape[1] + 1) if b is not None else (self.d,) + a.shape[1:])
        sa, sb = (out[:, :-1], out[:, -1]) if b is not None else (out, None)
        for j in range(-(-self.m // COLUMN_BLOCK)):
            lo = j * COLUMN_BLOCK
            rows, vals = self._column_block(j)
            hi = lo + rows.shape[0]
            if sparse:
                self._scatter_csr(out, a, b, lo, hi, rows, vals)
            else:
                chunk = sp.csc_matrix(
                    (vals.ravel(), rows.ravel(),
                     np.arange(0, rows.size + 1, self.zeta, dtype=np.int32)),
                    shape=(self.d, hi - lo))
                sa += chunk @ a[lo:hi]
                if b is not None:
                    sb += chunk @ b[lo:hi]
        return out

    def _scatter_csr(self, out, a, b, lo, hi, rows, vals) -> None:
        """Add to out S's columns lo..hi-1 times rows lo..hi-1 of the CSR a
        (and b, as the last column, if given). Row block k of S touches only
        rows starts[k]..starts[k+1]-1 of out, so each row block is one
        bincount over that slice."""
        width = out.shape[1]
        start, stop = a.indptr[lo], a.indptr[hi]
        col = np.repeat(np.arange(hi - lo), np.diff(a.indptr[lo:hi + 1]))
        idx, val = a.indices[start:stop], a.data[start:stop]
        if b is not None:
            col = np.concatenate([col, np.arange(hi - lo)])
            idx = np.concatenate([idx, np.full(hi - lo, width - 1, dtype=idx.dtype)])
            val = np.concatenate([val, b[lo:hi]])
        starts = self._row_starts()
        # per row block, each column's offset into that block's slice of out
        offsets = rows.T.astype(np.intp, order="C")
        offsets -= starts[:-1, None]
        offsets *= width
        vals = np.ascontiguousarray(vals.T)
        for k in range(self.zeta):
            flat = np.take(offsets[k], col)
            flat += idx
            weight = np.take(vals[k], col)
            weight *= val
            block = out[starts[k]:starts[k + 1]]
            block += np.bincount(flat, weight, minlength=block.size).reshape(block.shape)


def sparse_sign_new(d: int, m: int, zeta: int, rng_seed: int) -> SparseSignEmbedding:
    """A sparse sign embedding, deterministic for a given seed. Nothing is
    drawn until it is applied."""
    if d < 1 or m < 1:
        raise ValueError("d and m must be >= 1")
    if not 1 <= zeta <= d:
        raise ValueError(f"need 1 <= zeta <= d, got zeta={zeta}, d={d}")
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be >= 0, got {rng_seed}")
    return SparseSignEmbedding(d=d, m=m, zeta=zeta, scale=1.0 / math.sqrt(zeta), rng_seed=rng_seed)


def measure_distortion(s, basis_q: np.ndarray) -> DistortionReport:
    """Distortion of an embedding on the subspace spanned by the columns of
    basis_q, which must be orthonormal."""
    basis_q = np.asarray(basis_q, dtype=float)
    k = basis_q.shape[1]
    gram_err = np.linalg.norm(basis_q.T @ basis_q - np.eye(k))
    if gram_err > 1e-10:
        raise ValueError(f"basis is not orthonormal (||Q'Q - I|| = {gram_err:.2e})")
    sv = svd_values(s.apply(basis_q))
    sigma_max, sigma_min = float(sv[0]), float(sv[-1])
    epsilon = max(sigma_max - 1.0, 1.0 - sigma_min)
    return DistortionReport(epsilon=epsilon, sigma_max=sigma_max, sigma_min=sigma_min)


def default_distortion(n: int, d: int) -> float:
    """Fallback distortion value sqrt(n/d) used to set solver parameters
    when no measurement is requested."""
    return math.sqrt(n / d)


def choose_dim(m: int, n: int, accuracy_u: float, variant: str) -> int:
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
