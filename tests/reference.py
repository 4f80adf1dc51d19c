"""Reference Householder QR that forms Q, for tests to compare against.

The package computes only R (``itsketch.linalg.qr_solve``); tests that need
an orthonormal basis or a Q-formed solve use this one.
"""

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
