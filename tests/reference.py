"""Reference implementations for tests to compare against.

A Householder QR that forms Q: the package computes only R
(``itsketch.linalg.qr_solve``); tests that need an orthonormal basis or a
Q-formed solve use this one. And the OSNAP sparse sign embedding built
entry by entry as a dense matrix, from the same random draws as the
package's streamed construction.
"""

import math
from dataclasses import dataclass

import numpy as np


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
