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

from .embed import SparseSignEmbedding, _check_integer
from .linalg import (
    SingularMatrixError,
    _as_matrix,
    _as_vector,
    _norm2,
    _qr_solve_in_place,
    svd_values,
    tri_solve_upper,
    tri_solve_upper_transpose,
)
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
# window and growth factor of the divergence test (_diverged)
GUARD_WINDOW = 5
GUARD_FACTOR = 1.0e4


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
        """ValueError unless d and max_iters are integers, A's n >= 1, d >= n,
        max_iters >= 0 and variant and init are known. zeta and rng_seed are
        left to SparseSignEmbedding, which every solve builds from them."""
        for name in ("d", "max_iters"):
            _check_integer(name, getattr(self, name))
        if n < 1:
            raise ValueError(f"A must have at least one column, got n={n}")
        if self.d < n:
            raise ValueError(f"embedding dimension d={self.d} must be >= n={n}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.variant not in ("basic", "damped", "momentum"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.init not in ("sketch_and_solve", "zero"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class SolveTrace:
    """What a solve records per iteration: n-length iterates and scalars.

    No m-length vector is kept; the residual of iterate i is
    ``b - a @ iterates[i]``, bit for bit what the solver computed where it
    formed one. ``residual_changes[i]`` is ||r_{i+1} - r_i||, ``residual_norms[i]``
    is ||r_{i+1}|| and ``stop_thresholds[i]`` the stopping-rule right-hand side
    taken from it. Iterative sketching takes both norms by nrm2 from the formed
    residuals, and its stop tests read only these lists and the iterates;
    sketch-and-precondition records LSQR's |phi_{i+1}| and phibar_{i+1}, and
    forms b - Ax only for FE and RE against a given truth. ``epsilon`` is the
    sqrt(n/d) of _update_coeffs, for every variant; sketch-and-precondition
    leaves nan.
    """

    iterates: list[np.ndarray] = field(default_factory=list)
    residual_changes: list[float] = field(default_factory=list)
    stop_thresholds: list[float] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    fe: list[float] = field(default_factory=list)
    re: list[float] = field(default_factory=list)
    # stopped_by_rule | stagnated (the change sat at the rounding floor of
    # b - Ax and stopped falling) | max_iters | diverged | lsqr_tolerance
    stop_reason: str = "max_iters"
    normest: float = 0.0  # sigma_max of the sketch's R factor
    condest: float = 0.0  # sigma_max / sigma_min of the sketch's R factor
    epsilon: float = math.nan  # the distortion the step's (alpha, beta) took


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
) -> tuple[np.ndarray, np.ndarray]:
    """Exact-arithmetic error-bound sequences (fe_bound_i, re_bound_i) for
    i = 0 .. iters, for overlaying on measured traces.

    The momentum bound is stated only for i >= 2; its entries for i < 2 are
    nan.
    """
    idx = np.arange(iters + 1, dtype=float)
    if variant == "basic":
        if not 0 <= epsilon < _EPS_BASIC_MAX:
            raise RateHypothesisError(
                f"basic bound needs eps < 1 - 1/sqrt(2), got {epsilon}"
            )
        re = (8 - 2 * math.sqrt(2)) * math.sqrt(epsilon) * rate_g_is(epsilon) ** idx * norm_r
    elif variant == "damped":
        re = prefactor_c(epsilon) * rate_g_damp(epsilon) ** idx * norm_r
    elif variant == "momentum":
        re = prefactor_c_prime(epsilon) * (idx - 1) * rate_g_mom(epsilon) ** idx * norm_r
        re[:2] = np.nan
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
    """||v|| of a 1-D array by np.linalg.norm's dot path, whose bits, unlike
    _norm2's, follow the BLAS thread count. Only LSQR's u and v take it: SP's
    iterates keep its bits, which nrm2 would move beyond rounding."""
    return math.sqrt(v.dot(v))


def _check_range(norm_op: float, norm_r: float) -> None:
    """ValueError unless max(||Op||, ||r||) ||r|| is 16x under the largest double:
    a step forms Op'r, each partial sum at most ||Op|| ||r||, and LSQR squares
    ||r|| (_norm; the refinement loop's nrm2 does not). A NaN passes, for _diverged."""
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


def _diverged(norms: list[float], x: np.ndarray) -> bool:
    """Divergence test on the residual norms so far, all finite but the last:
    the last norm or x is not finite, or the norm tops both the one
    GUARD_WINDOW steps back and GUARD_FACTOR times the smallest. The factor
    catches an exponential divergence within 10-20 steps, while a converged
    solve jittering at its plateau stays near the smallest norm."""
    last = norms[-1]
    if not (math.isfinite(last) and np.isfinite(x).all()):
        return True
    return (len(norms) > GUARD_WINDOW and last > norms[-1 - GUARD_WINDOW]
            and last > GUARD_FACTOR * min(norms))


def _sketch(a, b: np.ndarray, s: SparseSignEmbedding) -> np.ndarray:
    """[SA | Sb], one column-major d x (n+1) array drawn in a single pass over
    A and b, or a ValueError naming A or b if it holds a NaN or inf: each
    reaches the d-row sketch, so no m-row temporary is scanned."""
    sab = s.apply(a, b)
    for name, sketched in (("A", sab[:, :-1]), ("b", sab[:, -1])):
        if not np.isfinite(sketched).all():
            raise ValueError(f"{name} must be finite: its sketch holds a NaN or inf")
    return sab


def sketch_and_solve(
    a, b: np.ndarray, s: SparseSignEmbedding
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the sketched problem min ||Sb - (SA)y|| by Householder QR.

    Returns the solution and the R factor of SA for reuse by the iteration;
    the QR overwrites the sketch where it was built. A malformed or
    non-finite A or b raises ValueError; a singular R, SingularMatrixError.
    """
    a, b = _as_problem(a, b)  # not _sketch(*...): its args tuple would live through the peak
    return _qr_solve_in_place(_sketch(a, b, s).T)


def _as_problem(a, b, cfg: SolverConfig | None = None) -> tuple:
    """A by linalg._as_matrix (dense or sparse, m >= n; converted once, not by
    every product) and b by _as_vector, then cfg, if given, validated."""
    a = _as_matrix("A", a, sparse=True, tall=True)
    if cfg is not None:
        cfg.validate(a.shape[1])
    return a, _as_vector("b", b, a.shape[0])


def _sketch_factor(
    a, b: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Build S, sketch-and-solve, and estimate ||A|| and cond(A) from the
    singular values of R: (x0, R, normest, condest)."""
    x0, r_fac = sketch_and_solve(a, b, SparseSignEmbedding(cfg.d, a.shape[0], cfg.zeta, cfg.rng_seed))
    if cfg.init == "zero":
        x0 = np.zeros(a.shape[1])
    sv = svd_values(r_fac)
    return x0, r_fac, float(sv[0]), float(sv[0] / sv[-1])


def _errors(truth: Truth, b: np.ndarray, x: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """(FE, RE) of x with residual r = b - Ax against the planted truth. FE is
    forward_error's quotient without its entry checks, which every step would
    pay. RE divides by the planted beta, not by ||truth.r|| (equal only up to
    rounding), and is ||r|| / ||b|| where beta = 0."""
    fe = _norm2(truth.x - x) / _norm2(truth.x)
    if truth.beta > 0:
        return fe, _norm2(truth.r - r) / truth.beta
    return fe, _norm2(r) / _norm2(b)


def _record(
    trace: SolveTrace, a, b: np.ndarray, x: np.ndarray, r: np.ndarray | None,
    truth: Truth | None,
) -> None:
    """Append x and, given truth, its FE and RE, which read r = b - Ax, formed
    here by _residual where the solver formed none (r is None)."""
    trace.iterates.append(x)
    if truth is not None:
        fe, re = _errors(truth, b, x, _residual(a, b, x) if r is None else r)
        trace.fe.append(fe)
        trace.re.append(re)


def _step(trace: SolveTrace, a, b: np.ndarray, x: np.ndarray, change: float, resnorm: float,
          r: np.ndarray | None, truth: Truth | None) -> bool:
    """Record a step of either solver to x with ||r_{i+1} - r_i|| = change and
    ||r_{i+1}|| = resnorm, and return whether the residual-change rule fired."""
    threshold = _stop_threshold(_norm2(x), resnorm, trace.normest, trace.condest)
    trace.residual_changes.append(change)
    trace.stop_thresholds.append(threshold)
    trace.residual_norms.append(resnorm)
    _record(trace, a, b, x, r, truth)
    return change <= threshold


def _update_coeffs(cfg: SolverConfig, n: int) -> tuple[float, float, float]:
    """(alpha, beta, eps) of the refinement step, with eps = sqrt(n/d) the
    distortion of the sparse sign embedding that damped and momentum set
    their parameters from; those two need eps < 1, so d > n."""
    eps = math.sqrt(n / cfg.d)
    if cfg.variant == "basic":
        return 1.0, 0.0, eps
    if eps >= 1:
        raise ValueError(
            f"variant {cfg.variant!r} needs d > n={n}: its parameters take eps = sqrt(n/d) < 1"
        )
    params = damping_params if cfg.variant == "damped" else momentum_params
    return (*params(eps), eps)


def _residual(a, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - a @ x, formed in the array of the product a @ x."""
    r = a @ x
    return np.subtract(b, r, out=r)


def _run_refinement(
    a,
    b: np.ndarray,
    cfg: SolverConfig,
    coeffs: tuple[float, float, float],
    x0: np.ndarray,
    correction,
    normest: float,
    condest: float,
    truth: Truth | None,
) -> SolveResult:
    """Shared refinement loop: x_{i+1} = x_i + alpha*d_i + beta*(x_i - x_{i-1})
    with d_i = correction(x_i, r_i) and (alpha, beta, eps) = coeffs, plus
    tracing, the stopping rule, the stagnation test, and the divergence test.
    The stable solver and its unstable baselines differ only in correction."""
    alpha, beta, eps = coeffs
    trace = SolveTrace(normest=normest, condest=condest, epsilon=eps)
    norm_b = _norm2(b)
    x = x0
    x_prev = x0  # momentum start: x_{-1} := x_0
    r = _residual(a, b, x)
    _check_range(normest, _norm2(r))
    _record(trace, a, b, x, r, truth)
    for _ in range(cfg.max_iters):
        x_next = x + alpha * correction(x, r) + beta * (x - x_prev)
        r_next = _residual(a, b, x_next)
        change = _norm2(np.subtract(r_next, r, out=r))  # r is not needed again
        x_prev, x, r = x, x_next, r_next
        fired = _step(trace, a, b, x, change, _norm2(r), r, truth)
        if _diverged(trace.residual_norms, x):
            trace.stop_reason = "diverged"
            break
        if fired:
            trace.stop_reason = "stopped_by_rule"
            break
        if _stagnated(trace.residual_changes, U * (norm_b + normest * _norm2(x))):
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
    a, b = _as_problem(a, b, cfg)
    coeffs = _update_coeffs(cfg, a.shape[1])  # refuses d = n before anything is sketched
    x0, r_fac, normest, condest = _sketch_factor(a, b, cfg)
    correction = lambda x, r: _normal_step(r_fac, a.T @ r)  # (R'R)^-1 A'r
    return _run_refinement(a, b, cfg, coeffs, x0, correction, normest, condest, truth)


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
    a, b = _as_problem(a, b, cfg)

    if kind == "bad_init":
        return iterative_sketching(a, b, replace(cfg, init="zero"), truth)
    coeffs = _update_coeffs(cfg, a.shape[1])

    if kind == "bad_residual":
        x0, r_fac, normest, condest = _sketch_factor(a, b, cfg)
        atb = a.T @ b
        correction = lambda x, r: _normal_step(r_fac, atb - a.T @ (a @ x))
        return _run_refinement(a, b, cfg, coeffs, x0, correction, normest, condest, truth)

    if kind == "bad_matrix":
        sab = _sketch(a, b, SparseSignEmbedding(cfg.d, a.shape[0], cfg.zeta, cfg.rng_seed))
        # row-major: from a column-major SA, SA'Sb takes another BLAS path,
        # with other bits
        sa = np.ascontiguousarray(sab[:, :-1])
        gram = sa.T @ sa
        try:
            gram_solve = partial(_normal_step, np.linalg.cholesky(gram).T)
        except np.linalg.LinAlgError:
            # a singular Gram matrix gives a zero pivot and a non-finite x0;
            # the divergence test reports it instead of lu_solve raising
            gram_solve = partial(
                scipy.linalg.lu_solve, scipy.linalg.lu_factor(gram), check_finite=False)
        x0 = gram_solve(sa.T @ sab[:, -1])
        del sa, sab
        # no R factor exists here; estimate scale/conditioning from the Gram matrix
        gram_sv = svd_values(gram)
        normest = math.sqrt(gram_sv[0])
        condest = float(math.sqrt(gram_sv[0] / max(gram_sv[-1], np.finfo(float).tiny)))
        correction = lambda x, r: gram_solve(a.T @ r)
        return _run_refinement(a, b, cfg, coeffs, x0, correction, normest, condest, truth)

    raise ValueError(f"unknown bad variant {kind!r}")


def _lsqr_steps(a, b: np.ndarray, x0: np.ndarray, precond_r: np.ndarray, max_iters: int,
                rtol: float):
    """LSQR (Paige & Saunders) on min ||(b - A x0) - (A R^-1) z||, R^-1 applied
    by triangular solves: after each step k, (z_k, |phi_k|, phibar_k). Ends
    after max_iters steps, at a zero b - A x0 or Op'u, or at the step where
    ||Op'r|| / (||Op|| ||r||) falls to rtol; b - A x0, its range check and the
    first Op'u come before the first step, at max_iters = 0 too. phibar_k is
    the recurrence's ||r_k||, and |phi_k| = |c_k| phibar_{k-1} is
    ||r_k - r_{k-1}|| in exact arithmetic: r_k is orthogonal to Op K_k, so
    ||r_{k-1}||^2 = ||r_k||^2 + ||r_k - r_{k-1}||^2. Neither forms a residual;
    in floating point |phi_k| keeps falling where a formed b - Ax levels off
    at its rounding error."""

    def op(v: np.ndarray) -> np.ndarray:
        return a @ tri_solve_upper(precond_r, v)

    def op_t(u: np.ndarray) -> np.ndarray:
        return tri_solve_upper_transpose(precond_r, a.T @ u)

    # Paige-Saunders recurrences, no reorthogonalization
    u = _residual(a, b, x0)
    beta = _norm(u)
    _check_range(1.0, beta)  # Op' only meets unit vectors
    if beta == 0.0:
        return
    u /= beta
    v = op_t(u)
    alpha = _norm(v)
    if alpha == 0.0:
        return
    v = v / alpha
    w = v.copy()
    z = np.zeros(precond_r.shape[0])
    phibar, rhobar = beta, alpha
    anorm2 = alpha**2
    for _ in range(max_iters):
        u *= -alpha  # with the next line, op(v) - alpha * u, bit for bit
        u += op(v)
        beta = _norm(u)
        if beta > 0:
            u /= beta
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
        yield z, abs(phi), phibar
        # ||Op' r|| = phibar * alpha * |c|; relative to ||Op|| ||r||
        normar = phibar * alpha * abs(c)
        if phibar == 0.0 or normar <= rtol * math.sqrt(anorm2) * phibar:
            return


def lsqr(
    a,
    b: np.ndarray,
    x0: np.ndarray,
    precond_r: np.ndarray,
    max_iters: int,
    rtol: float = 1e-14,
) -> tuple[np.ndarray, int]:
    """LSQR from x0, right-preconditioned by R = precond_r (see _lsqr_steps):
    (x0 + R^-1 z, the steps taken). A max_iters that is not an integer >= 0
    raises ValueError, as does a malformed A, b (length m), x0 (length n) or
    R (dense n x n); a zero on R's diagonal raises SingularMatrixError."""
    _check_integer("max_iters", max_iters)
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    a = _as_matrix("A", a, sparse=True)
    m, n = a.shape
    b, x0 = _as_vector("b", b, m), _as_vector("x0", x0, n)
    precond_r = _as_matrix("precond_r", precond_r)
    if precond_r.shape != (n, n):
        raise ValueError(f"precond_r must be n x n with n={n}, got shape {precond_r.shape}")
    if np.any(np.diag(precond_r) == 0.0):
        raise SingularMatrixError("singular preconditioner")
    z, iters = np.zeros(precond_r.shape[0]), 0
    for z, _, _ in _lsqr_steps(a, b, x0, precond_r, max_iters, rtol):
        iters += 1
    return x0 + tri_solve_upper(precond_r, z), iters


def sketch_and_precondition(
    a, b: np.ndarray, cfg: SolverConfig, truth: Truth | None = None
) -> SolveResult:
    """Sketch, QR-factorize the sketch, then run LSQR on A right-preconditioned
    by the R factor, starting from the sketch-and-solve or zero iterate.

    Each LSQR step is recorded by _step, as _run_refinement's are: its
    residual change is LSQR's own |phi_k| (see _lsqr_steps) and its ||r_k|| LSQR's
    phibar_k, and the solve stops as stopped_by_rule at the first step that
    meets the residual-change rule. LSQR's own tolerance and max_iters are
    the other two stops. b - Ax is formed only for the errors against truth,
    so without truth each step makes two products with A or A', not three.
    The solution is the last traced iterate."""
    a, b = _as_problem(a, b, cfg)
    x0, r_fac, normest, condest = _sketch_factor(a, b, cfg)
    trace = SolveTrace(normest=normest, condest=condest)
    _record(trace, a, b, x0, None, truth)
    for z, change, resnorm in _lsqr_steps(a, b, x0, r_fac, cfg.max_iters, U):
        if _step(trace, a, b, x0 + tri_solve_upper(r_fac, z), change, resnorm, None, truth):
            trace.stop_reason = "stopped_by_rule"
            break
    else:
        if len(trace.residual_changes) < cfg.max_iters:
            trace.stop_reason = "lsqr_tolerance"
    return SolveResult(solution=trace.iterates[-1], trace=trace, config=cfg)
