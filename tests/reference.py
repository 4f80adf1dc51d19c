"""Reference implementations for tests to compare against.

A Householder QR that forms Q: the package computes only R
(``itsketch.linalg.qr_solve``); tests that need an orthonormal basis or a
Q-formed solve use this one. The OSNAP sparse sign embedding built
entry by entry as a dense matrix, from the same random draws as the
package's streamed construction. And S applied as the package applied it
before it built the sketch a few of S's row blocks at a time, whose bits
the package keeps.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class QrFactors:
    """Economy QR factors: q has orthonormal columns, r is upper triangular
    with nonnegative diagonal."""

    q: np.ndarray
    r: np.ndarray


def householder_qr_econ(a: np.ndarray) -> QrFactors:
    """Economy QR of an m x n matrix (m >= n) with nonnegative R diagonal.

    The sign convention makes the factorization unique, so repeated calls
    on identical input are bitwise reproducible.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    m, n = a.shape
    if m < n:
        raise ValueError(f"need m >= n, got {m} x {n}")
    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    r = np.triu(signs[:, None] * r)
    return QrFactors(q=q, r=r)


def osnap_sparse_sign(d: int, m: int, zeta: int, seed: int, column_block: int) -> np.ndarray:
    """Dense d x m sparse sign embedding in the OSNAP block form.

    Row block k is rows (k*d)//zeta .. ((k+1)*d)//zeta - 1. Columns are drawn
    column_block at a time, block j from ``default_rng([seed, j])``, as one
    integer v per column and row block in [0, 2 * block size): the entry sits
    at row offset v // 2 of the block and is -1/sqrt(zeta) if v is odd,
    +1/sqrt(zeta) if even.
    """
    starts = [(k * d) // zeta for k in range(zeta + 1)]
    sizes = np.diff(starts)
    scale = 1.0 / math.sqrt(zeta)
    s = np.zeros((d, m))
    for j, lo in enumerate(range(0, m, column_block)):
        count = min(column_block, m - lo)
        v = np.random.default_rng([seed, j]).integers(
            0, 2 * sizes, size=(count, zeta), dtype=np.int32)
        for i in range(count):
            for k in range(zeta):
                s[starts[k] + v[i, k] // 2, lo + i] = -scale if v[i, k] % 2 else scale
    return s


def sparse_sign_apply(s, a, b=None, column_block: int = 8192) -> np.ndarray:
    """S @ a, or [S @ a | S @ b], for the package's sparse sign embedding s,
    formed in row-major order from the same draws: one d x columns CSC product
    per column block of a dense a (and one with b), and for a CSR a one
    bincount per row block over a's entries with b's appended as a last
    column."""
    starts = (np.arange(s.zeta + 1) * s.d) // s.zeta
    sparse = sp.issparse(a)
    a = a.tocsr() if sparse else np.asarray(a, dtype=float)
    out = np.zeros((s.d, a.shape[1] + 1) if b is not None else (s.d,) + a.shape[1:])
    sa, sb = (out[:, :-1], out[:, -1]) if b is not None else (out, None)
    for j, lo in enumerate(range(0, s.m, column_block)):
        hi = min(lo + column_block, s.m)
        v = np.random.default_rng([s.rng_seed, j]).integers(
            0, 2 * np.diff(starts), size=(hi - lo, s.zeta), dtype=np.int32)
        rows = (v >> 1) + starts[:-1].astype(np.int32)
        vals = np.where(v & 1, -s.scale, s.scale)
        if not sparse:
            chunk = sp.csc_matrix(
                (vals.ravel(), rows.ravel(), np.arange(0, rows.size + 1, s.zeta, dtype=np.int32)),
                shape=(s.d, hi - lo))
            sa += chunk @ a[lo:hi]
            if b is not None:
                sb += chunk @ b[lo:hi]
            continue
        width = out.shape[1]
        col = np.repeat(np.arange(hi - lo), np.diff(a.indptr[lo:hi + 1]))
        idx = a.indices[a.indptr[lo]:a.indptr[hi]]
        val = a.data[a.indptr[lo]:a.indptr[hi]]
        if b is not None:
            col = np.concatenate([col, np.arange(hi - lo)])
            idx = np.concatenate([idx, np.full(hi - lo, width - 1, dtype=idx.dtype)])
            val = np.concatenate([val, b[lo:hi]])
        for k in range(s.zeta):
            block = out[starts[k]:starts[k + 1]]
            flat = (rows[:, k] - starts[k]).astype(np.intp)[col] * width + idx
            block += np.bincount(flat, vals[:, k][col] * val,
                                 minlength=block.size).reshape(block.shape)
    return out
