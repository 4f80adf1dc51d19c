"""Error metrics for least-squares solutions.

Forward error, residual error, the optimal relative Frobenius backward
error (Walden-Karlsson-Sun characterization), and Wedin-style perturbation
bounds used as reference accuracy levels.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    _as_matrix,
    _as_vector,
    _check_number,
    _divisor_norm,
    _norm2,
    _thin_qr,
    svd_values,
)


class WedinHypothesisError(ValueError):
    """The perturbation-bound hypothesis eps * kappa <= 0.1 is violated."""


def forward_error(x_true: np.ndarray, x_hat: np.ndarray) -> float:
    """Relative forward error ||x - x_hat|| / ||x|| of two real n-vectors, x
    nonzero and finite."""
    x_true = _as_vector("x_true", x_true)
    nx = _divisor_norm("x_true", x_true, "forward error")
    return _norm2(x_true - _as_vector("x_hat", x_hat, x_true.size)) / nx


def residual_error(r_true: np.ndarray, r_hat: np.ndarray) -> float:
    """Relative residual error ||r(x) - r(x_hat)|| / ||r(x)|| of real m-vectors,
    r(x) nonzero (not a consistent system's) and finite."""
    r_true = _as_vector("r_true", r_true)
    nr = _divisor_norm("r_true", r_true, "residual error")
    return _norm2(r_true - _as_vector("r_hat", r_hat, r_true.size)) / nr


def _backward_error_of(a: np.ndarray):
    """be(b, x_hat) = backward_error(a, b, x_hat), with the work that depends
    only on a (reading it, a thin QR and ||A||_F) done here, once.

    sigma_min of C = [A | nu*(I - qq')], q = r_hat/||r_hat||, comes without
    forming the m x (n+m) matrix, for any m >= n. sigma_min(C)^2 minimizes
    ||A'u||^2 + nu^2 ||(I - qq')u||^2 over unit u. With A = QR (economy) and
    s the normalized component of q orthogonal to range(Q), any u-component
    outside span([Q s]) leaves the first term at zero and contributes a full
    nu^2 per unit mass to the second, so the minimum is min(nu^2, ||F w||^2
    over unit w) where u = [Q s] w and

        F = [[R', 0], [nu * (I - zz')]],   z = [Q'q; ||(I - QQ')q||].

    F is (2n+1) x (n+1), and working with it directly (instead of the
    eigenvalues of C C') keeps absolute accuracy at the unit-roundoff level
    of ||A||, which matters when sigma_min is many orders below ||A||. Where
    q lies in range(A), as it always does at m = n, z's last entry is 0 and
    the extra coordinate gives a singular value of exactly nu, the cap.
    """
    a = _as_matrix("A", a, tall=True)
    m, n = a.shape
    q_hat, r_fac = _thin_qr(a)
    f_top = np.column_stack([r_fac.T, np.zeros((n, 1))])  # F's rows [R', 0]
    norm_a = _norm2(a.ravel())  # the 2-D norms square before they sum

    def be(b: np.ndarray, x_hat: np.ndarray) -> float:
        b, x_hat = _as_vector("b", b, m), _as_vector("x_hat", x_hat, n)
        nx = _divisor_norm("x_hat", x_hat, "backward error")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            r_hat = b - a @ x_hat
        nr = _norm2(r_hat)
        if nr == 0.0:
            return 0.0
        nu = nr / nx
        if not np.isfinite(nu):
            raise ValueError(f"backward_error requires a finite ||r_hat|| / ||x_hat||, got {nu}")
        q = r_hat / nr
        p = q_hat.T @ q
        tau = float(np.linalg.norm(q - q_hat @ p))
        z = np.concatenate([p, [tau]])
        z /= np.linalg.norm(z)  # 1 up to rounding: q is a unit vector
        f = np.vstack([f_top, nu * (np.eye(n + 1) - np.outer(z, z))])
        return float(min(nu, svd_values(f)[-1]) / norm_a)

    return be


def backward_error(a: np.ndarray, b: np.ndarray, x_hat: np.ndarray) -> float:
    """Optimal relative Frobenius backward error of x_hat: the smallest
    ||dA||_F / ||A||_F such that x_hat exactly minimizes ||b - (A+dA)y||.

    Only A is perturbed. Computed from the exact minimal-perturbation
    characterization: with nu = ||r_hat|| / ||x_hat||,
    BE = min(nu, sigma_min([A | nu*(I - r r'/||r||^2)])) / ||A||_F, where
    sigma_min comes from a (2n+1) x (n+1) matrix (_backward_error_of), at one
    thin QR of A. An A wider than tall, a zero or non-finite x_hat, or an
    overflowing norm or nu raises ValueError, as does a malformed A, b or x_hat.
    """
    return _backward_error_of(a)(b, x_hat)


def wedin_bounds(
    kappa: float, norm_a: float, norm_x: float, norm_r: float, epsilon: float
) -> tuple[float, float]:
    """Absolute perturbation bounds on ||x - x_hat|| and ||r(x) - r(x_hat)||
    for a perturbation of relative size epsilon; requires eps * kappa <= 0.1.

    Callers divide by ||x|| or ||r|| for relative displays. A kappa that is
    not a finite number >= 1, a norm_a not one > 0, or a norm_x, norm_r or
    epsilon not one >= 0 raises ValueError by name, before the hypothesis.
    """
    _check_number("kappa", kappa, 1)
    _check_number("norm_a", norm_a, 0, strict=True)
    for name, value in (("norm_x", norm_x), ("norm_r", norm_r), ("epsilon", epsilon)):
        _check_number(name, value, 0)
    if epsilon * kappa > 0.1:
        raise WedinHypothesisError(
            f"requires eps * kappa <= 0.1, got {epsilon * kappa:.3e}"
        )
    fe_bound = 2.23 * kappa * (norm_x + (kappa / norm_a) * norm_r) * epsilon
    re_bound = 2.23 * (norm_a * norm_x + kappa * norm_r) * epsilon
    return float(fe_bound), float(re_bound)
