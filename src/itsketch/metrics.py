"""Error metrics for least-squares solutions.

Forward error, residual error, the optimal relative Frobenius backward
error (Walden-Karlsson-Sun characterization), and Wedin-style perturbation
bounds used as reference accuracy levels.
"""

from __future__ import annotations

import numpy as np

from .linalg import _norm2, _thin_qr, svd_values


class WedinHypothesisError(ValueError):
    """The perturbation-bound hypothesis eps * kappa <= 0.1 is violated."""


def forward_error(x_true: np.ndarray, x_hat: np.ndarray) -> float:
    """Relative forward error ||x - x_hat|| / ||x||."""
    x_true = np.asarray(x_true, dtype=float)
    nx = np.linalg.norm(x_true)
    if nx == 0.0:
        raise ValueError("forward_error: true solution has zero norm")
    return float(np.linalg.norm(x_true - np.asarray(x_hat, dtype=float)) / nx)


def residual_error(r_true: np.ndarray, r_hat: np.ndarray) -> float:
    """Relative residual error ||r(x) - r(x_hat)|| / ||r(x)||."""
    r_true = np.asarray(r_true, dtype=float)
    nr = np.linalg.norm(r_true)
    if nr == 0.0:
        raise ValueError("residual_error: true residual has zero norm (consistent system)")
    return float(np.linalg.norm(r_true - np.asarray(r_hat, dtype=float)) / nr)


# Largest row count backward_error accepts.
BE_MAX_M = 4000


def _wks_sigma_min_fast(a: np.ndarray, r_hat: np.ndarray, nu: float) -> float:
    """sigma_min of C = [A | nu*(I - qq')] with q = r_hat/||r_hat||, without
    forming the m x (n+m) matrix. Holds for any m >= n.

    sigma_min(C)^2 minimizes ||A'u||^2 + nu^2 ||(I - qq')u||^2 over unit u.
    With A = QR (economy) and s the normalized component of q orthogonal to
    range(Q), any u-component outside span([Q s]) leaves the first term at
    zero and contributes a full nu^2 per unit mass to the second, so the
    minimum is min(nu^2, ||F w||^2 over unit w) where u = [Q s] w and

        F = [[R', 0], [nu * (I - zz')]],   z = [Q'q; ||(I - QQ')q||].

    F is (2n+1) x (n+1), and working with it directly (instead of the
    eigenvalues of C C') keeps absolute accuracy at the unit-roundoff level
    of ||A||, which matters when sigma_min is many orders below ||A||. Where
    q lies in range(A), as it always does at m = n, z's last entry is 0 and
    the extra coordinate gives a singular value of exactly nu, the cap.
    """
    n = a.shape[1]
    q_hat, r_fac = _thin_qr(a)
    q = r_hat / _norm2(r_hat)
    p = q_hat.T @ q
    tau = float(np.linalg.norm(q - q_hat @ p))
    z = np.concatenate([p, [tau]])
    nz = np.linalg.norm(z)
    if nz > 0:
        z = z / nz
    proj = np.eye(n + 1) - np.outer(z, z)
    f = np.vstack([
        np.column_stack([r_fac.T, np.zeros((n, 1))]),
        nu * proj,
    ])
    sigma = float(svd_values(f)[-1])
    return min(nu, sigma)


def backward_error(a: np.ndarray, b: np.ndarray, x_hat: np.ndarray) -> float:
    """Optimal relative Frobenius backward error of x_hat: the smallest
    ||dA||_F / ||A||_F such that x_hat exactly minimizes ||b - (A+dA)y||.

    Only A is perturbed. Computed from the exact minimal-perturbation
    characterization: with nu = ||r_hat|| / ||x_hat||,
    BE = min(nu, sigma_min([A | nu*(I - r r'/||r||^2)])) / ||A||_F, where
    sigma_min comes from a (2n+1) x (n+1) matrix (_wks_sigma_min_fast).
    An A wider than tall or with more than BE_MAX_M rows, a zero or
    non-finite x_hat, or an overflowing norm or nu raises ValueError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    m, n = a.shape
    if m > BE_MAX_M:
        raise ValueError(f"backward_error capped at m <= {BE_MAX_M}, got m = {m}")
    if m < n:
        raise ValueError(f"backward_error requires m >= n, got A of shape {m} x {n}")
    nx = _norm2(x_hat)
    if not 0.0 < nx < np.inf:
        raise ValueError(f"backward_error requires x_hat != 0 with a finite norm, got {nx}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        r_hat = b - a @ x_hat
    nr = _norm2(r_hat)
    if nr == 0.0:
        return 0.0
    nu = nr / nx
    if not np.isfinite(nu):
        raise ValueError(f"backward_error requires a finite ||r_hat|| / ||x_hat||, got {nu}")
    return float(_wks_sigma_min_fast(a, r_hat, nu) / np.linalg.norm(a, "fro"))


def wedin_bounds(
    kappa: float, norm_a: float, norm_x: float, norm_r: float, epsilon: float
) -> tuple[float, float]:
    """Absolute perturbation bounds on ||x - x_hat|| and ||r(x) - r(x_hat)||
    for a perturbation of relative size epsilon; requires eps * kappa <= 0.1.

    Callers divide by ||x|| or ||r|| for relative displays.
    """
    if epsilon * kappa > 0.1:
        raise WedinHypothesisError(
            f"requires eps * kappa <= 0.1, got {epsilon * kappa:.3e}"
        )
    fe_bound = 2.23 * kappa * (norm_x + (kappa / norm_a) * norm_r) * epsilon
    re_bound = 2.23 * (norm_a * norm_x + kappa * norm_r) * epsilon
    return float(fe_bound), float(re_bound)
