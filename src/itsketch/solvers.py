"""Least-squares solution strategies.

Sketch-and-solve, stable iterative sketching (basic / damped / momentum),
right-preconditioned LSQR for sketch-and-precondition, the three
deliberately unstable baselines, and the residual-change stopping rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.linalg

from .embed import SparseSignEmbedding, default_distortion, sparse_sign_new
from .linalg import (
    SingularMatrixError,
    _as_rhs,
    _norm2,
    qr_solve,
    svd_values,
    tri_solve_upper,
    tri_solve_upper_transpose,
)
from .metrics import forward_error
from .problems import Truth


# unit roundoff of float64 and the stopping rule's weights gamma and rho
U = 2.0**-53
STOP_GAMMA = 1.0
STOP_RHO = 0.04
# window and factors of the stagnation test (_stagnated), tried when the
# rule does not fire
STAG_WINDOW = 4
STAG_FLOOR = 1.0
STAG_SHRINK = 0.5


class RateHypothesisError(ValueError):
    """A convergence-rate formula was evaluated outside its hypothesis."""


@dataclass
class SolverConfig:
    d: int
    zeta: int = 8
    variant: str = "momentum"  # basic | damped | momentum
    init: str = "sketch_and_solve"  # sketch_and_solve | zero
    max_iters: int = 50
    rng_seed: int = 0

    def validate(self, n: int) -> None:
        if self.d < n:
            raise ValueError(f"embedding dimension d={self.d} must be >= n={n}")
        if self.zeta < 1:
            raise ValueError("zeta must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.variant not in ("basic", "damped", "momentum"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant != "basic" and self.d == n:
            raise ValueError(
                f"variant {self.variant!r} needs d > n={n}: its parameters take eps = sqrt(n/d) < 1"
            )
        if self.init not in ("sketch_and_solve", "zero"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class SolveTrace:
    """What a solve records per iteration: n-length iterates and scalars.

    No m-length vector is kept; the residual of iterate i is
    ``b - a @ iterates[i]``, bit for bit what the solver computed where it
    formed one. ``residual_changes[i]`` is ||r_{i+1} - r_i||: measured on the
    formed residuals for iterative sketching, and LSQR's |phi_{i+1}| for
    sketch-and-precondition, which forms b - Ax only to take FE and RE
    against a given truth. ``stop_thresholds[i]`` is the stopping-rule
    right-hand side it was compared to; sketch-and-precondition takes
    ||r_{i+1}|| in it from LSQR's phibar_{i+1}.
    """

    iterates: list[np.ndarray] = field(default_factory=list)
    residual_changes: list[float] = field(default_factory=list)
    stop_thresholds: list[float] = field(default_factory=list)
    fe: list[float] = field(default_factory=list)
    re: list[float] = field(default_factory=list)
    # stopped_by_rule | stagnated (the change sat at the rounding floor of
    # b - Ax and stopped falling) | max_iters | diverged | lsqr_tolerance
    stop_reason: str = "max_iters"
    normest: float = 0.0  # sigma_max of the sketch's R factor
    condest: float = 0.0  # sigma_max / sigma_min of the sketch's R factor


@dataclass
class SolveResult:
    solution: np.ndarray
    trace: SolveTrace
    config: SolverConfig

    @property
    def iterations(self) -> int:
        return len(self.trace.iterates) - 1


def damping_params(epsilon: float) -> tuple[float, float]:
    """Optimal damped step size: alpha = (1-eps^2)^2 / (1+eps^2), beta = 0."""
    if not 0 <= epsilon < 1:
        raise ValueError(f"need 0 <= eps < 1, got {epsilon}")
    return (1 - epsilon**2) ** 2 / (1 + epsilon**2), 0.0


def momentum_params(epsilon: float) -> tuple[float, float]:
    """Optimal heavy-ball parameters: alpha = (1-eps^2)^2, beta = eps^2."""
    if not 0 <= epsilon < 1:
        raise ValueError(f"need 0 <= eps < 1, got {epsilon}")
    return (1 - epsilon**2) ** 2, epsilon**2


def rate_g_is(epsilon: float) -> float:
    """Per-iteration contraction of the basic iteration: (2-e)e/(1-e)^2."""
    if not 0 <= epsilon < 1:
        raise RateHypothesisError(f"need 0 <= eps < 1, got {epsilon}")
    return (2 - epsilon) * epsilon / (1 - epsilon) ** 2


def rate_g_damp(epsilon: float) -> float:
    """Contraction with optimal damping: 2e/(1+e^2)."""
    if not 0 <= epsilon < 1:
        raise RateHypothesisError(f"need 0 <= eps < 1, got {epsilon}")
    return 2 * epsilon / (1 + epsilon**2)


def rate_g_mom(epsilon: float) -> float:
    """Contraction with optimal momentum: e."""
    if not 0 <= epsilon < 1:
        raise RateHypothesisError(f"need 0 <= eps < 1, got {epsilon}")
    return epsilon


def prefactor_c(epsilon: float) -> float:
    """Damping bound prefactor 2(1+e)sqrt(e)/(1-e)^2."""
    if not 0 <= epsilon < 1:
        raise RateHypothesisError(f"need 0 <= eps < 1, got {epsilon}")
    return 2 * (1 + epsilon) * math.sqrt(epsilon) / (1 - epsilon) ** 2


def prefactor_c_prime(epsilon: float) -> float:
    """Momentum bound prefactor 8*sqrt(2)(1+e)/((1-e)^2 sqrt(e))."""
    if not 0 < epsilon < 1:
        raise RateHypothesisError(f"need 0 < eps < 1, got {epsilon}")
    return 8 * math.sqrt(2) * (1 + epsilon) / ((1 - epsilon) ** 2 * math.sqrt(epsilon))


_EPS_BASIC_MAX = 1 - 1 / math.sqrt(2)


def theoretical_bound_curve(
    variant: str,
    epsilon: float,
    kappa: float,
    norm_a: float,
    norm_r: float,
    iters: int,
    first_iter: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact-arithmetic error-bound sequences (fe_bound_i, re_bound_i) for
    i = first_iter .. iters, for overlaying on measured traces.

    The momentum bound is only stated for i >= 2; requesting earlier
    iterations raises.
    """
    idx = np.arange(first_iter, iters + 1, dtype=float)
    if variant == "basic":
        if not 0 <= epsilon < _EPS_BASIC_MAX:
            raise RateHypothesisError(
                f"basic bound needs eps < 1 - 1/sqrt(2), got {epsilon}"
            )
        re = (8 - 2 * math.sqrt(2)) * math.sqrt(epsilon) * rate_g_is(epsilon) ** idx * norm_r
    elif variant == "damped":
        re = prefactor_c(epsilon) * rate_g_damp(epsilon) ** idx * norm_r
    elif variant == "momentum":
        if first_iter < 2:
            raise RateHypothesisError("momentum bound is stated for i >= 2")
        re = prefactor_c_prime(epsilon) * (idx - 1) * rate_g_mom(epsilon) ** idx * norm_r
    else:
        raise ValueError(f"unknown variant {variant!r}")
    fe = re * (kappa / norm_a)
    return fe, re


def _stop_threshold(norm_x: float, norm_r: float, normest: float, condest: float) -> float:
    """Right-hand side of the residual-change stopping rule, which fires when
    ||r_{i+1} - r_i|| <= U(STOP_GAMMA*normest*||x_{i+1}|| + STOP_RHO*condest*||r_{i+1}||)
    (inclusive), in _run_refinement and in sketch_and_precondition alike."""
    return float(U * (STOP_GAMMA * normest * norm_x + STOP_RHO * condest * norm_r))


def _norm(v: np.ndarray) -> float:
    """||v|| of a 1-D array: np.linalg.norm's own dot path, without its wrapper."""
    return math.sqrt(v.dot(v))


def _check_range(norm_op: float, norm_r: float) -> None:
    """ValueError unless a step from a residual of norm norm_r stays in range:
    it squares ||r|| and forms Op'r, each partial sum at most ||Op|| ||r||; both
    stay 16x under the largest double. A NaN passes, for the divergence guard."""
    if max(norm_op, norm_r) * norm_r > 2.0**1020:
        raise ValueError("A and b are too large to iterate on without overflow; scale them down")


def _stagnated(changes: list[float], floor: float) -> bool:
    """Stagnation test on the residual changes so far: the last is at most
    STAG_FLOOR * floor, with floor = u(||b|| + normest*||x_{i+1}||) the
    rounding error of forming b - Ax, and above STAG_SHRINK times the one
    STAG_WINDOW iterations before it, so it has stopped falling. The rule's
    threshold can sit below that floor (a well-conditioned A with a large
    residual), where the change levels off without ever meeting it."""
    return (
        len(changes) > STAG_WINDOW
        and changes[-1] <= STAG_FLOOR * floor
        and changes[-1] > STAG_SHRINK * changes[-1 - STAG_WINDOW]
    )


def _sketch(a, b: np.ndarray, s: SparseSignEmbedding) -> tuple[np.ndarray, np.ndarray]:
    """SA and Sb, views of one d x (n+1) array drawn in a single pass over A
    and b, or a ValueError naming A or b if it holds a NaN or inf: each reaches
    the d-row sketch, so no m-row temporary is scanned."""
    sab = s.apply(a, b)
    sa, sb = sab[:, :-1], sab[:, -1]
    for name, sketched in (("A", sa), ("b", sb)):
        if not np.isfinite(sketched).all():
            raise ValueError(f"{name} must be finite: its sketch holds a NaN or inf")
    return sa, sb


def sketch_and_solve(
    a, b: np.ndarray, s: SparseSignEmbedding
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the sketched problem min ||Sb - (SA)y|| by Householder QR.

    Returns the solution and the R factor of SA for reuse by the iteration.
    A wrong-length b or a non-finite A or b raises ValueError; a singular R,
    SingularMatrixError.
    """
    return qr_solve(*_sketch(a, _as_rhs(a, b), s))


def _new_sketch(a, cfg: SolverConfig) -> SparseSignEmbedding:
    """Validate cfg against A's shape and build its S."""
    m, n = a.shape
    cfg.validate(n)
    return sparse_sign_new(cfg.d, m, cfg.zeta, cfg.rng_seed)


def _sketch_factor(
    a, b: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Build S, sketch-and-solve, and estimate ||A|| and cond(A) from the
    singular values of R: (x0, R, normest, condest)."""
    x0, r_fac = sketch_and_solve(a, b, _new_sketch(a, cfg))
    if cfg.init == "zero":
        x0 = np.zeros(a.shape[1])
    sv = svd_values(r_fac)
    return x0, r_fac, float(sv[0]), float(sv[0] / sv[-1])


class _DivergenceGuard:
    """Flags divergence when the residual norm climbs 10^4x above its
    running minimum while still growing over the trailing 5 steps, or when
    any iterate turns non-finite.

    The growth factor is large enough that an exponentially diverging run
    is still captured over ~10-20 iterations before termination, while a
    converged solver jittering at its plateau never trips the guard (its
    residual norm stays near the running minimum)."""

    WINDOW = 5
    FACTOR = 1.0e4

    def __init__(self) -> None:
        self._norms: list[float] = []
        self._min = math.inf

    def diverged(self, resnorm: float, x: np.ndarray) -> bool:
        if not (np.isfinite(resnorm) and np.all(np.isfinite(x))):
            return True
        self._norms.append(resnorm)
        self._min = min(self._min, resnorm)
        if len(self._norms) <= self.WINDOW:
            return False
        still_growing = resnorm > self._norms[-(self.WINDOW + 1)]
        return still_growing and resnorm > self.FACTOR * self._min


def _errors(truth: Truth, b: np.ndarray, x: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """(FE, RE) of x with residual r = b - Ax against the planted truth. RE
    divides by the planted beta, not by ||truth.r|| (equal only up to
    rounding), and is ||r|| / ||b|| where beta = 0."""
    if truth.beta > 0:
        return forward_error(truth.x, x), _norm(truth.r - r) / truth.beta
    return forward_error(truth.x, x), _norm(r) / _norm(b)


def _record(
    trace: SolveTrace, b: np.ndarray, x: np.ndarray, r: np.ndarray | None,
    truth: Truth | None,
) -> None:
    trace.iterates.append(x)
    if truth is not None:
        fe, re = _errors(truth, b, x, r)
        trace.fe.append(fe)
        trace.re.append(re)


def _update_coeffs(cfg: SolverConfig, n: int) -> tuple[float, float]:
    if cfg.variant == "basic":
        return 1.0, 0.0
    eps = default_distortion(n, cfg.d)
    if cfg.variant == "damped":
        return damping_params(eps)
    return momentum_params(eps)


def _run_refinement(
    a,
    b: np.ndarray,
    cfg: SolverConfig,
    x0: np.ndarray,
    correction,
    normest: float,
    condest: float,
    truth: Truth | None,
) -> SolveResult:
    """Shared refinement loop: x_{i+1} = x_i + alpha*d_i + beta*(x_i - x_{i-1})
    with d_i = correction(x_i, r_i), plus tracing, the stopping rule, the
    stagnation test, and the divergence guard. The stable solver and its
    unstable baselines differ only in correction."""
    alpha, beta = _update_coeffs(cfg, x0.shape[0])
    trace = SolveTrace(normest=normest, condest=condest)
    guard = _DivergenceGuard()
    norm_b = _norm2(b)
    x = x0
    x_prev = x0  # momentum start: x_{-1} := x_0
    r = b - a @ x
    _check_range(normest, _norm(r))
    _record(trace, b, x, r, truth)
    for _ in range(cfg.max_iters):
        x_next = x + alpha * correction(x, r) + beta * (x - x_prev)
        r_next = b - a @ x_next
        change = _norm(r_next - r)
        resnorm = _norm(r_next)
        norm_x = _norm(x_next)
        threshold = _stop_threshold(norm_x, resnorm, normest, condest)
        trace.residual_changes.append(change)
        trace.stop_thresholds.append(threshold)
        x_prev, x, r = x, x_next, r_next
        _record(trace, b, x, r, truth)
        if guard.diverged(resnorm, x):
            trace.stop_reason = "diverged"
            break
        if change <= threshold:
            trace.stop_reason = "stopped_by_rule"
            break
        if _stagnated(trace.residual_changes, U * (norm_b + normest * norm_x)):
            trace.stop_reason = "stagnated"
            break
    return SolveResult(solution=x, trace=trace, config=cfg)


def _normal_step(r_fac: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(R'R)^-1 c by two triangular solves against the upper-triangular R."""
    return tri_solve_upper(r_fac, tri_solve_upper_transpose(r_fac, c))


def iterative_sketching(
    a, b: np.ndarray, cfg: SolverConfig, truth: Truth | None = None
) -> SolveResult:
    """Iterative refinement on the normal equations preconditioned by
    (SA)'(SA), implemented in the stable order: fused residual b - A x,
    then A'r, then two triangular solves against the R factor of SA."""
    b = _as_rhs(a, b)
    x0, r_fac, normest, condest = _sketch_factor(a, b, cfg)
    correction = lambda x, r: _normal_step(r_fac, a.T @ r)  # (R'R)^-1 A'r
    return _run_refinement(a, b, cfg, x0, correction, normest, condest, truth)


def bad_variant(
    a, b: np.ndarray, cfg: SolverConfig, kind: str, truth: Truth | None = None
) -> SolveResult:
    """Deliberately unstable baselines.

    bad_matrix: form (SA)'(SA) explicitly, factorize by Cholesky (LU with
    partial pivoting on Cholesky breakdown). bad_residual: evaluate the
    right-hand side in the unstable order A'b - A'(Ax). bad_init: the stable
    iteration started from zero. Divergence is a reportable outcome, not an
    error.

    Each takes its update coefficients from cfg.variant like the stable
    solver, so with the default config it runs the momentum iteration; the
    paper demonstrates the baselines on the basic one (variant="basic").
    """
    b = _as_rhs(a, b)

    if kind == "bad_init":
        return iterative_sketching(a, b, replace(cfg, init="zero"), truth)

    if kind == "bad_residual":
        x0, r_fac, normest, condest = _sketch_factor(a, b, cfg)
        atb = a.T @ b
        correction = lambda x, r: _normal_step(r_fac, atb - a.T @ (a @ x))
        return _run_refinement(a, b, cfg, x0, correction, normest, condest, truth)

    if kind == "bad_matrix":
        sa, sb = _sketch(a, b, _new_sketch(a, cfg))
        gram = sa.T @ sa
        try:
            gram_solve = partial(_normal_step, np.linalg.cholesky(gram).T)
        except np.linalg.LinAlgError:
            # a singular Gram matrix gives a zero pivot and a non-finite x0;
            # the divergence guard reports it instead of lu_solve raising
            gram_solve = partial(
                scipy.linalg.lu_solve, scipy.linalg.lu_factor(gram), check_finite=False)
        x0 = gram_solve(sa.T @ sb)
        # no R factor exists here; estimate scale/conditioning from the Gram matrix
        gram_sv = svd_values(gram)
        normest = math.sqrt(gram_sv[0])
        condest = float(math.sqrt(gram_sv[0] / max(gram_sv[-1], np.finfo(float).tiny)))
        correction = lambda x, r: gram_solve(a.T @ r)
        return _run_refinement(a, b, cfg, x0, correction, normest, condest, truth)

    raise ValueError(f"unknown bad variant {kind!r}")


def lsqr(
    a,
    b: np.ndarray,
    x0: np.ndarray,
    precond_r: np.ndarray,
    max_iters: int,
    rtol: float = 1e-14,
    callback=None,
) -> tuple[np.ndarray, int]:
    """Golub-Kahan-bidiagonalization LSQR on min ||(b - A x0) - (A R^-1) z||,
    returning x = x0 + R^-1 z and the iteration count.

    The preconditioner is applied through triangular solves; R^-1 is never
    formed. Stops at max_iters, when the normal-equation residual estimate
    ||Op' r|| / (||Op|| ||r||) falls to rtol, or after the step whose
    callback returns True. callback(z, change, resnorm) runs once per
    iteration k with resnorm = phibar_k, the recurrence's ||r_k||, and
    change = |phi_k|, which is ||r_k - r_{k-1}|| in exact arithmetic: r_k is
    orthogonal to Op K_k, so ||r_{k-1}||^2 = ||r_k||^2 + ||r_k - r_{k-1}||^2,
    and with phibar_k = s_k phibar_{k-1} that gives |c_k| phibar_{k-1}.
    No residual is formed for either; in floating point |phi_k| keeps
    falling where a formed b - Ax levels off at its rounding error.
    """
    precond_r = np.asarray(precond_r, dtype=float)
    if np.any(np.diag(precond_r) == 0.0):
        raise SingularMatrixError("singular preconditioner")
    b = np.asarray(b, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = precond_r.shape[0]

    def op(v: np.ndarray) -> np.ndarray:
        return a @ tri_solve_upper(precond_r, v)

    def op_t(u: np.ndarray) -> np.ndarray:
        return tri_solve_upper_transpose(precond_r, a.T @ u)

    # Paige-Saunders recurrences, no reorthogonalization
    u = b - a @ x0
    beta = _norm(u)
    _check_range(1.0, beta)  # Op' only meets unit vectors
    z = np.zeros(n)
    if beta == 0.0:
        return x0.copy(), 0
    u = u / beta
    v = op_t(u)
    alpha = _norm(v)
    if alpha == 0.0:
        return x0.copy(), 0
    v = v / alpha
    w = v.copy()
    phibar, rhobar = beta, alpha
    anorm2 = alpha**2
    iters = 0
    for _ in range(max_iters):
        u = op(v) - alpha * u
        beta = _norm(u)
        if beta > 0:
            u = u / beta
            v = op_t(u) - beta * v
            alpha = _norm(v)
            if alpha > 0:
                v = v / alpha
        anorm2 += beta**2 + alpha**2
        rho = math.hypot(rhobar, beta)
        c, sn = rhobar / rho, beta / rho
        theta = sn * alpha
        rhobar = -c * alpha
        phi = c * phibar
        phibar = sn * phibar
        z = z + (phi / rho) * w
        w = v - (theta / rho) * w
        iters += 1
        if callback is not None and callback(z, abs(phi), phibar):
            break
        # ||Op' r|| = phibar * alpha * |c|; relative to ||Op|| ||r||
        normar = phibar * alpha * abs(c)
        if phibar == 0.0 or normar <= rtol * math.sqrt(anorm2) * phibar:
            break
    return x0 + tri_solve_upper(precond_r, z), iters


def sketch_and_precondition(
    a, b: np.ndarray, cfg: SolverConfig, truth: Truth | None = None
) -> SolveResult:
    """Sketch, QR-factorize the sketch, then run LSQR on A right-preconditioned
    by the R factor, starting from the sketch-and-solve or zero iterate.

    The trace's residual changes are LSQR's own |phi_k| (see lsqr), and the
    solve stops at the first step that meets the residual-change rule with
    LSQR's phibar_k as ||r_k||, as _run_refinement does; LSQR's own tolerance
    and max_iters are the other two stops. b - Ax is formed only for the
    errors against truth, so without truth each step makes two products with
    A or A', not three."""
    b = _as_rhs(a, b)
    x0, r_fac, normest, condest = _sketch_factor(a, b, cfg)
    trace = SolveTrace(normest=normest, condest=condest)

    def record(x: np.ndarray) -> None:
        _record(trace, b, x, None if truth is None else b - a @ x, truth)

    def on_iterate(z: np.ndarray, change: float, resnorm: float) -> bool:
        x = x0 + tri_solve_upper(r_fac, z)
        threshold = _stop_threshold(_norm(x), resnorm, normest, condest)
        trace.residual_changes.append(change)
        trace.stop_thresholds.append(threshold)
        record(x)
        return change <= threshold

    record(x0)

    x, iters = lsqr(a, b, x0, r_fac, max_iters=cfg.max_iters, rtol=U, callback=on_iterate)
    # the callback ends LSQR at the step it returns True, so only the last
    # traced step can have met the rule
    if iters and trace.residual_changes[-1] <= trace.stop_thresholds[-1]:
        trace.stop_reason = "stopped_by_rule"
    elif iters < cfg.max_iters:
        trace.stop_reason = "lsqr_tolerance"
    # lsqr returns x0 + R^-1 z for the z of its last callback, which is the
    # last traced iterate bit for bit
    return SolveResult(solution=x, trace=trace, config=cfg)
