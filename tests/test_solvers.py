"""Unit tests for the solver strategies, update parameters, rates, bounds,
stopping rule, LSQR, and the deliberately-unstable baselines."""

import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from blas_threads import probe_outputs
from peak import peak_bytes
from itsketch.embed import SparseSignEmbedding, measure_distortion
from itsketch.linalg import (
    SingularMatrixError,
    _norm2,
    svd_values,
    tri_solve_upper,
    tri_solve_upper_transpose,
)
from itsketch.metrics import forward_error
from itsketch.problems import Truth, gen_randsvd, gen_sparse
import itsketch.solvers
from itsketch.solvers import (
    STAG_WINDOW,
    STOP_GAMMA,
    STOP_RHO,
    RateHypothesisError,
    SolverConfig,
    bad_variant,
    damping_params,
    iterative_sketching,
    lsqr,
    momentum_params,
    prefactor_c,
    prefactor_c_prime,
    rate_g_damp,
    rate_g_is,
    rate_g_mom,
    sketch_and_precondition,
    sketch_and_solve,
    theoretical_bound_curve,
    _EPS_BASIC_MAX,
    _diverged,
    _lsqr_steps,
    _sketch_factor,
    _stagnated,
    _stop_threshold,
)
from reference import householder_qr_econ

U = 2.0**-53


def qr_solve(a, b):
    qr = householder_qr_econ(a)
    return tri_solve_upper(qr.r, qr.q.T @ b)


class TestUpdateParams:
    def test_damping_zero(self):
        assert damping_params(0.0) == (1.0, 0.0)

    def test_damping_half(self):
        alpha, beta = damping_params(0.5)
        assert alpha == pytest.approx(0.45)
        assert beta == 0.0

    def test_damping_alpha_decreasing(self):
        grid = np.linspace(0.0, 0.9, 91)
        alphas = [damping_params(e)[0] for e in grid]
        assert np.all(np.diff(alphas) < 0)

    def test_momentum_zero(self):
        assert momentum_params(0.0) == (1.0, 0.0)

    def test_momentum_half(self):
        assert momentum_params(0.5) == (pytest.approx(0.5625), pytest.approx(0.25))

    def test_momentum_beta_below_one(self):
        for e in np.linspace(0.0, 0.999, 50):
            assert momentum_params(e)[1] < 1.0

    def test_domain_errors(self):
        for fn in (damping_params, momentum_params):
            with pytest.raises(ValueError):
                fn(1.0)
            with pytest.raises(ValueError):
                fn(-0.1)


class TestRates:
    def test_g_is_divergence_threshold(self):
        assert rate_g_is(1 - 1 / math.sqrt(2)) == pytest.approx(1.0)

    def test_g_is_substitution(self):
        assert rate_g_is(0.1) == pytest.approx(0.19 / 0.81)

    def test_g_is_linear_upper_bound(self):
        grid = np.linspace(1e-4, 1 - 1 / math.sqrt(2), 200)
        for e in grid:
            assert rate_g_is(e) <= (2 + math.sqrt(2)) * e + 1e-12

    def test_g_damp_and_g_mom(self):
        assert rate_g_damp(0.5) == pytest.approx(1.0 / 1.25)
        assert rate_g_mom(0.3) == 0.3

    def test_prefactors(self):
        e = 0.25
        assert prefactor_c(e) == pytest.approx(2 * 1.25 * 0.5 / 0.75**2)
        assert prefactor_c_prime(e) == pytest.approx(
            8 * math.sqrt(2) * 1.25 / (0.75**2 * 0.5)
        )
        with pytest.raises(RateHypothesisError):
            prefactor_c_prime(0.0)

    def test_domain_errors(self):
        for fn in (rate_g_is, rate_g_damp, rate_g_mom, prefactor_c):
            with pytest.raises(RateHypothesisError):
                fn(1.0)


class TestBoundCurve:
    def test_basic_at_zero(self):
        norm_r = 3.0
        fe, re = theoretical_bound_curve("basic", 0.1, 10.0, 2.0, norm_r, iters=4)
        assert re[0] == pytest.approx((8 - 2 * math.sqrt(2)) * math.sqrt(0.1) * norm_r)
        assert fe[0] == pytest.approx(re[0] * 10.0 / 2.0)

    def test_basic_substitution(self):
        _, re = theoretical_bound_curve("basic", 0.25, 1.0, 1.0, 1.0, iters=3)
        expect = (8 - 2 * math.sqrt(2)) * 0.5 * rate_g_is(0.25) ** 3
        assert re[3] == pytest.approx(expect)

    def test_damped_curve(self):
        _, re = theoretical_bound_curve("damped", 0.3, 1.0, 1.0, 2.0, iters=2)
        assert re[2] == pytest.approx(prefactor_c(0.3) * rate_g_damp(0.3) ** 2 * 2.0)

    def test_momentum_nan_before_two(self):
        fe, re = theoretical_bound_curve("momentum", 0.2, 1.0, 1.0, 1.0, iters=4)
        assert np.isnan(fe[:2]).all() and np.isnan(re[:2]).all()

    def test_momentum_from_two(self):
        _, re = theoretical_bound_curve("momentum", 0.2, 1.0, 1.0, 1.0, iters=4)
        assert re[2] == pytest.approx(prefactor_c_prime(0.2) * 1 * 0.2**2)
        assert re[4] == pytest.approx(prefactor_c_prime(0.2) * 3 * 0.2**4)

    def test_basic_hypothesis(self):
        with pytest.raises(RateHypothesisError):
            theoretical_bound_curve("basic", 0.3, 1.0, 1.0, 1.0, iters=2)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="^unknown variant 'bogus'"):
            theoretical_bound_curve("bogus", 0.1, 1.0, 1.0, 1.0, iters=2)


def _rule_fires(r_next, r_curr, x_next, normest, condest):
    """The residual-change rule as both solver loops apply it: the formed
    change against _stop_threshold, inclusive."""
    change = np.linalg.norm(r_next - r_curr)
    return bool(change <= _stop_threshold(
        np.linalg.norm(x_next), np.linalg.norm(r_next), normest, condest))


def _without_stops(monkeypatch):
    """Switch off the stopping rule and the stagnation test: a solve then
    runs to max_iters (SP also to LSQR's own tolerance) unless it diverges."""
    monkeypatch.setattr(itsketch.solvers, "_stop_threshold", lambda *args: -math.inf)
    monkeypatch.setattr(itsketch.solvers, "STAG_FLOOR", 0.0)


class TestShouldStop:
    def test_equal_residuals(self):
        r = np.array([1.0, 2.0])
        assert _rule_fires(r, r, np.ones(2), 1.0, 1.0)

    def test_large_change(self):
        assert not _rule_fires(
            np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.ones(2), 1.0, 1.0
        )

    def test_inclusive_boundary(self, monkeypatch):
        # change = 1; rhs = U*(STOP_GAMMA*normest*||x|| + STOP_RHO*condest*||r||) = 1 exactly
        r_next = np.array([1.0, 0.0])
        r_curr = np.array([0.0, 0.0])
        x = np.array([1.0, 0.0])
        # U=0.5, gamma=1, normest=1, rho=0.04, condest=25 -> 0.5*(1 + 0.04*25*1) = 1
        for name, value in (("U", 0.5), ("STOP_GAMMA", 1.0), ("STOP_RHO", 0.04)):
            monkeypatch.setattr(itsketch.solvers, name, value)
        assert _rule_fires(r_next, r_curr, x, 1.0, 25.0)


def _same_iterates(xs, ys):
    return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))


class TestStagnated:
    def test_falling_below_floor_never_fires(self):
        # shrinks 0.8**4 = 0.41x over each window: still falling
        changes = [1e-16 * 0.8**k for k in range(40)]
        assert not any(_stagnated(changes[: i + 1], 1.0) for i in range(len(changes)))

    def test_flat_above_floor_never_fires(self):
        changes = [1e-14] * 40
        assert not any(_stagnated(changes[: i + 1], 1e-15) for i in range(len(changes)))

    def test_flat_at_floor_fires_once_window_is_full(self):
        changes = [1e-15] * (STAG_WINDOW + 1)
        assert not _stagnated(changes[:-1], 1e-15)
        assert _stagnated(changes, 1e-15)

    @staticmethod
    def _sparse_problem():
        # a well-conditioned A with a large residual: the rule's threshold
        # (1.3e-15) sits below the rounding floor of b - Ax (1.6e-14). The
        # sketch of rng_seed 1 has distortion 0.19 on range(A); rng_seed 0's
        # (0.297) is past the basic iteration's limit 1 - 1/sqrt(2), and
        # that solve drifts away instead of stagnating.
        cfg = SolverConfig(d=200, variant="basic", max_iters=100, rng_seed=1)
        return gen_sparse(20_000, 10, 0), cfg

    def test_sketch_within_basic_rate_hypothesis(self):
        p, cfg = self._sparse_problem()
        q = np.linalg.qr(p.a.toarray())[0]
        s = SparseSignEmbedding(cfg.d, p.a.shape[0], cfg.zeta, cfg.rng_seed)
        assert measure_distortion(s, q).epsilon < _EPS_BASIC_MAX

    def test_stops_at_the_level_of_a_full_run(self, monkeypatch):
        p, cfg = self._sparse_problem()
        x_ref = np.linalg.lstsq(p.a.toarray(), p.b, rcond=None)[0]
        res = iterative_sketching(p.a, p.b, cfg)
        assert res.trace.stop_reason == "stagnated"
        assert res.iterations < cfg.max_iters
        monkeypatch.setattr(itsketch.solvers, "STAG_FLOOR", 0.0)
        full = iterative_sketching(p.a, p.b, cfg)
        assert full.trace.stop_reason == "max_iters"
        assert _same_iterates(full.trace.iterates[: res.iterations + 1], res.trace.iterates)
        fe_stop, fe_full = (forward_error(x_ref, r.solution) for r in (res, full))
        assert fe_stop <= 1.1 * fe_full

    def test_default_solve_converges_where_basic_drifts(self):
        # rng_seed 0's sketch has distortion 0.297, past the basic
        # iteration's limit 1 - 1/sqrt(2): basic drifts to FE 52.8 against
        # lstsq, while the default (momentum) iteration reaches 4.4e-15. Both
        # still report max_iters. Which reason such solves should report is
        # open in ROADMAP.md ("Every stop reason is true"), so it is not
        # pinned here.
        p = gen_sparse(20_000, 10, 0)
        x_ref = np.linalg.lstsq(p.a.toarray(), p.b, rcond=None)[0]
        res = iterative_sketching(p.a, p.b, SolverConfig(d=200, max_iters=100, rng_seed=0))
        assert forward_error(x_ref, res.solution) <= 1e-13

    def test_extra_iters_after_stagnated(self, monkeypatch):
        # the stagnated solve is the prefix of one that runs 4 steps past it
        p, cfg = self._sparse_problem()
        res0 = iterative_sketching(p.a, p.b, cfg)
        assert res0.trace.stop_reason == "stagnated"
        _without_stops(monkeypatch)
        res4 = iterative_sketching(p.a, p.b, replace(cfg, max_iters=res0.iterations + 4))
        assert res4.trace.stop_reason == "max_iters"
        assert res4.iterations == res0.iterations + 4
        assert _same_iterates(res4.trace.iterates[: res0.iterations + 1], res0.trace.iterates)

    def test_trace_aligned_with_iterations(self):
        p, cfg = self._sparse_problem()
        res = iterative_sketching(p.a, p.b, cfg)
        tr = res.trace
        assert len(tr.stop_thresholds) == len(tr.residual_changes) == res.iterations
        assert all(c > t for c, t in zip(tr.residual_changes, tr.stop_thresholds))
        norm_b = np.linalg.norm(p.b)
        fired = [
            _stagnated(tr.residual_changes[: i + 1],
                       U * (norm_b + tr.normest * np.linalg.norm(tr.iterates[i + 1])))
            for i in range(res.iterations)
        ]
        assert fired.index(True) == res.iterations - 1


class TestSketchAndSolve:
    def test_consistent_system(self):
        p = gen_randsvd(400, 15, 1e4, 0.0, 0)
        s = SparseSignEmbedding(200, 400, 8, 0)
        x0, _ = sketch_and_solve(p.a, p.b, s)
        assert np.linalg.norm(p.b - p.a @ x0) <= 1e-12 * np.linalg.norm(p.b)

    def test_quality_bounds_with_measured_distortion(self):
        p = gen_randsvd(1000, 20, 1e4, 1e-2, 1)
        s = SparseSignEmbedding(500, 1000, 8, 1)
        q = np.linalg.qr(p.a, mode="reduced")[0]
        eps = measure_distortion(s, q).epsilon
        x0, _ = sketch_and_solve(p.a, p.b, s)
        beta = p.truth.beta
        assert np.linalg.norm(p.b - p.a @ x0) <= (1 + eps) / (1 - eps) * beta * (1 + 1e-10)
        norm_a = np.linalg.norm(p.a, 2)
        fe_bound = 2 * math.sqrt(eps) / (1 - eps) * p.truth.kappa / norm_a * beta
        assert np.linalg.norm(p.truth.x - x0) <= fe_bound * (1 + 1e-10)

    @pytest.mark.parametrize("solve", [iterative_sketching, sketch_and_precondition], ids=["is", "sp"])
    def test_singular_sketch_of_full_rank_a_named(self, solve):
        # A has rank 6, but the 6 x 7 S maps a vector of range(A) to zero: the
        # bare "zero diagonal entry in triangular factor" named neither
        p = gen_sparse(7, 6, 0)
        assert np.linalg.matrix_rank(p.a.toarray()) == 6
        cfg = SolverConfig(d=6, zeta=6, variant="basic", rng_seed=0)
        with pytest.raises(SingularMatrixError, match=(
                r"^SA is singular: A is rank-deficient, or S maps part of range\(A\) to zero; "
                r"try a larger d or another rng_seed$")):
            solve(p.a, p.b, cfg)

    def test_bits_equal_across_blas_threads(self):
        # S's products with A are SciPy's sparse kernels, two of S's row
        # blocks at a time over three column blocks, and the QR runs on one
        # OpenBLAS thread: no BLAS thread count reaches x0 or R
        probe = (
            "import hashlib, numpy as np\n"
            "from itsketch.embed import COLUMN_BLOCK, SparseSignEmbedding\n"
            "from itsketch.solvers import sketch_and_solve\n"
            "m = 2 * COLUMN_BLOCK + 100\n"
            "rng = np.random.default_rng(0)\n"
            "a, b = rng.standard_normal((m, 130)), rng.standard_normal(m)\n"
            "x, r = sketch_and_solve(a, b, SparseSignEmbedding(3000, m, 8, 1))\n"
            "print(hashlib.sha256(x.tobytes() + r.tobytes()).hexdigest())\n"
        )
        outs = probe_outputs(probe)
        assert outs[0] == outs[1]


class TestIterativeSketching:
    def test_consistent_stops_immediately(self):
        p = gen_randsvd(400, 15, 1e3, 0.0, 0)
        cfg = SolverConfig(d=300, variant="basic", max_iters=20)
        res = iterative_sketching(p.a, p.b, cfg, p.truth)
        assert res.trace.stop_reason == "stopped_by_rule"
        # exact initialization: at most one corrective step before the rule fires
        assert res.iterations <= 2
        assert res.trace.fe[0] <= 1e-12
        assert np.linalg.norm(res.solution - p.truth.x) <= 1e-12

    def test_matches_qr_accuracy_hard_problem(self):
        p = gen_randsvd(4000, 50, 1e10, 1e-12, 0)
        cfg = SolverConfig(d=1000, variant="basic", max_iters=100)
        res = iterative_sketching(p.a, p.b, cfg, p.truth)
        fe_is = res.trace.fe[-1]
        fe_qr = np.linalg.norm(qr_solve(p.a, p.b) - p.truth.x)
        assert fe_is <= 10 * max(fe_qr, U)

    def test_geometric_contraction(self):
        p = gen_randsvd(1000, 20, 10.0, 1e-3, 1)
        cfg = SolverConfig(d=400, variant="basic", max_iters=9, rng_seed=1)
        res = iterative_sketching(p.a, p.b, cfg, p.truth)
        s = SparseSignEmbedding(400, 1000, 8, 1)
        q = np.linalg.qr(p.a, mode="reduced")[0]
        eps = measure_distortion(s, q).epsilon
        g = rate_g_is(eps)
        re = res.trace.re
        for i in range(min(8, len(re) - 1)):
            assert re[i + 1] <= (g + 0.05) * re[i] + 1e-14

    def test_theorem_bound_surrogate(self):
        p = gen_randsvd(1000, 20, 100.0, 1e-3, 2)
        cfg = SolverConfig(d=400, variant="basic", max_iters=8, rng_seed=2)
        s = SparseSignEmbedding(400, 1000, 8, 2)
        q = np.linalg.qr(p.a, mode="reduced")[0]
        eps = measure_distortion(s, q).epsilon
        assert eps < 0.29
        res = iterative_sketching(p.a, p.b, cfg, p.truth)
        _, re_bound = theoretical_bound_curve(
            "basic", eps, p.truth.kappa, np.linalg.norm(p.a, 2), p.truth.beta, iters=8
        )
        for i, re_i in enumerate(res.trace.re[: 9]):
            assert re_i <= re_bound[i] / p.truth.beta + 1e-10

    def test_update_identity_bit_for_bit(self):
        p = gen_randsvd(500, 12, 1e4, 1e-3, 3)
        cfg = SolverConfig(d=240, variant="basic", max_iters=6, rng_seed=3)
        res = iterative_sketching(p.a, p.b, cfg, p.truth)
        s = SparseSignEmbedding(cfg.d, 500, cfg.zeta, cfg.rng_seed)
        r_fac = sketch_and_solve(p.a, p.b, s)[1]
        tr = res.trace
        for i in range(len(tr.iterates) - 1):
            c = p.a.T @ (p.b - p.a @ tr.iterates[i])
            d = tri_solve_upper(r_fac, tri_solve_upper_transpose(r_fac, c))
            assert np.array_equal(tr.iterates[i + 1], tr.iterates[i] + d)

    def test_plateau_stability_extra_iters(self, monkeypatch):
        # 3 steps past the rule's stop, the forward error stays within 10x
        p = gen_randsvd(2000, 30, 1e8, 1e-4, 4)
        base = SolverConfig(d=600, variant="basic", max_iters=200, rng_seed=4)
        res0 = iterative_sketching(p.a, p.b, base, p.truth)
        assert res0.trace.stop_reason == "stopped_by_rule"
        _without_stops(monkeypatch)
        res3 = iterative_sketching(
            p.a, p.b, replace(base, max_iters=res0.iterations + 3), p.truth)
        assert res3.trace.stop_reason == "max_iters"
        assert res3.iterations == res0.iterations + 3
        assert _same_iterates(res3.trace.iterates[: res0.iterations + 1], res0.trace.iterates)
        fe_stop, fe_late = res0.trace.fe[-1], res3.trace.fe[-1]
        assert fe_late <= 10 * fe_stop and fe_stop <= 10 * fe_late

    def test_bitwise_determinism(self):
        p = gen_randsvd(600, 15, 1e6, 1e-4, 5)
        cfg = SolverConfig(d=300, variant="basic", max_iters=40, rng_seed=5)
        r1 = iterative_sketching(p.a, p.b, cfg, p.truth)
        r2 = iterative_sketching(p.a, p.b, cfg, p.truth)
        assert np.array_equal(r1.solution, r2.solution)
        assert r1.trace.fe == r2.trace.fe
        assert r1.trace.residual_changes == r2.trace.residual_changes
        assert r1.trace.stop_reason == r2.trace.stop_reason

    def test_sparse_solve_bitwise_equal_across_blas_threads(self):
        # With a sparse A the products with A and A' are SciPy's sparse kernels,
        # not the threaded BLAS, and every norm is BLAS nrm2, which is not
        # threaded either, so neither the iterates nor the trace's scalars
        # depend on the thread count. A dense A's products A'r do.
        probe = (
            "import hashlib, numpy as np\n"
            "from itsketch import SolverConfig, gen_sparse, iterative_sketching\n"
            "p = gen_sparse(20_000, 10, 0)\n"
            "cfg = SolverConfig(d=200, variant='basic', max_iters=100, rng_seed=1)\n"
            "res = iterative_sketching(p.a, p.b, cfg)\n"
            "t = res.trace\n"
            "xs = np.concatenate([res.solution, *t.iterates, t.residual_changes,\n"
            "                     t.stop_thresholds, t.residual_norms])\n"
            "print(res.trace.stop_reason, res.iterations, hashlib.sha256(xs.tobytes()).hexdigest())\n"
        )
        outs = probe_outputs(probe)
        assert outs[0] == outs[1]
        assert outs[0].startswith("stagnated ")

    def test_damped_and_momentum_converge(self):
        p = gen_randsvd(1000, 20, 1e4, 1e-3, 6)
        for variant in ("damped", "momentum"):
            cfg = SolverConfig(d=400, variant=variant, max_iters=60, rng_seed=6)
            res = iterative_sketching(p.a, p.b, cfg, p.truth)
            assert res.trace.stop_reason != "diverged"
            assert res.trace.fe[-1] <= 1e-10

    @pytest.mark.parametrize("solve", ["is", "sp", "bad_residual"])
    def test_estimates_from_singular_values_of_r(self, solve):
        p = gen_randsvd(600, 15, 1e6, 1e-4, 5)
        cfg = SolverConfig(d=300, variant="basic", max_iters=5, rng_seed=5)
        res = {
            "is": lambda: iterative_sketching(p.a, p.b, cfg),
            "sp": lambda: sketch_and_precondition(p.a, p.b, cfg),
            "bad_residual": lambda: bad_variant(p.a, p.b, cfg, "bad_residual"),
        }[solve]()
        r_fac = sketch_and_solve(p.a, p.b, SparseSignEmbedding(300, 600, 8, 5))[1]
        sv = svd_values(r_fac)
        assert res.trace.normest == sv[0]
        assert res.trace.condest == sv[0] / sv[-1]

    def test_config_validation(self):
        p = gen_randsvd(100, 10, 10.0, 0.1, 0)
        with pytest.raises(ValueError):
            iterative_sketching(p.a, p.b, SolverConfig(d=5, variant="basic"))
        with pytest.raises(ValueError):
            iterative_sketching(p.a, p.b, SolverConfig(d=50, variant="bogus"))
        with pytest.raises(ValueError, match="^max_iters must be >= 0"):
            iterative_sketching(p.a, p.b, SolverConfig(d=50, max_iters=-1))
        with pytest.raises(ValueError, match="^unknown init 'bogus'"):
            iterative_sketching(p.a, p.b, SolverConfig(d=50, init="bogus"))
        for kind in ("bad_matrix", "bad_residual", "bad_init"):  # bad_init replaces init
            with pytest.raises(ValueError, match="^unknown init 'bogus'"):
                bad_variant(p.a, p.b, SolverConfig(d=50, init="bogus"), kind)

    @pytest.mark.parametrize("solve", [iterative_sketching, sketch_and_precondition])
    def test_a_without_columns_rejected(self, solve):
        # rejected on entry, before the sketch's QR reaches LAPACK
        with pytest.raises(ValueError, match="at least one column"):
            solve(np.ones((200, 0)), np.ones(200), SolverConfig(d=10, variant="basic"))

    @pytest.mark.parametrize("variant", ["damped", "momentum"])
    def test_eps_parameters_need_d_above_n(self, variant, monkeypatch):
        # their parameters take eps = sqrt(n/d), which d = n puts at 1; the
        # solve is refused before anything is sketched
        def sketch(*args):
            raise AssertionError("sketched a solve that d = n refuses")

        monkeypatch.setattr(SparseSignEmbedding, "apply", sketch)
        p = gen_randsvd(100, 10, 10.0, 0.1, 0)
        cfg = SolverConfig(d=10, variant=variant)
        for kind in ("bad_matrix", "bad_residual", "bad_init"):
            with pytest.raises(ValueError, match=r"needs d > n=10"):
                bad_variant(p.a, p.b, cfg, kind)
        with pytest.raises(ValueError, match=r"needs d > n=10"):
            iterative_sketching(p.a, p.b, cfg)

    def test_sketch_and_precondition_takes_d_equal_to_n(self):
        # SP reads no variant and takes no step from eps, so the default
        # config serves
        p = gen_randsvd(400, 10, 10.0, 0.1, 0)
        res = sketch_and_precondition(p.a, p.b, SolverConfig(d=10))
        assert np.isfinite(res.solution).all()


class TestLsqr:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        a = np.linalg.qr(rng.standard_normal((100, 10)), mode="reduced")[0]
        b = rng.standard_normal(100)
        x, iters = lsqr(a, b, np.zeros(10), np.eye(10), max_iters=10)
        assert iters <= 2
        assert np.linalg.norm(x - a.T @ b) <= 1e-12

    def test_exact_qr_preconditioner(self):
        p = gen_randsvd(300, 15, 1e2, 1e-3, 1)
        qr = householder_qr_econ(p.a)
        x, iters = lsqr(p.a, p.b, np.zeros(15), qr.r, max_iters=10)
        x_ref = qr_solve(p.a, p.b)
        assert iters <= 2
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_sketch_preconditioner_matches_dense(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((200, 20))
        b = rng.standard_normal(200)
        s = SparseSignEmbedding(100, 200, 8, 2)
        r_fac = householder_qr_econ(s.apply(a)).r
        x, _ = lsqr(a, b, np.zeros(20), r_fac, max_iters=100)
        x_ref = qr_solve(a, b)
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)

    def test_residual_reduction_rate(self):
        p = gen_randsvd(500, 20, 1e6, 1e-2, 3)
        qr = householder_qr_econ(p.a)
        errs = []
        for z, _, _ in _lsqr_steps(p.a, p.b, np.zeros(20), qr.r, 3, 1e-14):
            xk = np.zeros(20) + tri_solve_upper(qr.r, z)
            errs.append(np.linalg.norm((p.b - p.a @ xk) - p.truth.r))
        start = np.linalg.norm((p.b - p.a @ np.zeros(20)) - p.truth.r)
        assert errs[-1] <= 1e-6 * start

    def test_singular_preconditioner(self):
        with pytest.raises(SingularMatrixError):
            lsqr(np.eye(3), np.ones(3), np.zeros(3), np.diag([1.0, 0.0, 1.0]), 5)

    def test_zero_rhs(self):
        x, iters = lsqr(np.eye(4), np.zeros(4), np.zeros(4), np.eye(4), 5)
        assert iters == 0 and np.array_equal(x, np.zeros(4))

    def test_rhs_orthogonal_to_range(self):
        # b - Ax0 is nonzero but A'(b - Ax0) is zero: x0 is already the
        # solution, and no step is taken
        a = np.vstack([np.eye(3), np.zeros((2, 3))])
        b = np.array([0.0, 0.0, 0.0, 1.0, -2.0])
        x, iters = lsqr(a, b, np.zeros(3), np.eye(3), 5)
        assert iters == 0 and np.array_equal(x, np.zeros(3))

    @pytest.mark.parametrize("rtol", [-1.0, np.nan, np.inf])
    def test_rtol_checked(self, rtol):
        # rtol = -1 ran all 5 of 5 steps
        with pytest.raises(ValueError, match=f"^rtol must be a finite number >= 0, got {rtol!r}"):
            lsqr(np.eye(4), np.ones(4), np.zeros(4), np.eye(4), 5, rtol)

    @pytest.mark.parametrize("max_iters, message", [
        (-1, "max_iters must be >= 0"), (2.5, "max_iters must be an integer"),
        (True, "max_iters must be an integer"),
    ])
    def test_max_iters_checked(self, max_iters, message):
        # as SolverConfig.validate checks it
        with pytest.raises(ValueError, match=f"^{message}"):
            lsqr(np.eye(4), np.ones(4), np.zeros(4), np.eye(4), max_iters)

    @pytest.mark.parametrize("max_iters", [0, 5])
    def test_scaled_input_refused_at_every_budget(self, max_iters):
        # ||b - Ax0|| overflows on the way to the range check, which comes
        # before the first step
        p = gen_randsvd(2000, 20, 1e2, 1e-3, 0)
        r_fac = householder_qr_econ(p.a).r
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="too large to iterate on"):
                lsqr(p.a * 1e160, p.b * 1e160, np.zeros(20), r_fac, max_iters)


class TestSketchAndPrecondition:
    def test_consistent_any_init(self):
        p = gen_randsvd(400, 15, 1e4, 0.0, 0)
        for init in ("sketch_and_solve", "zero"):
            cfg = SolverConfig(d=300, variant="basic", init=init, max_iters=50)
            res = sketch_and_precondition(p.a, p.b, cfg, p.truth)
            assert np.linalg.norm(res.solution - p.truth.x) <= 1e-10

    def test_init_quality_gap_hard_problem(self):
        p = gen_randsvd(4000, 50, 1e10, 1e-6, 0)
        fe_qr = np.linalg.norm(qr_solve(p.a, p.b) - p.truth.x)
        zero = sketch_and_precondition(
            p.a, p.b, SolverConfig(d=1000, variant="basic", init="zero", max_iters=60), p.truth
        )
        ss = sketch_and_precondition(
            p.a, p.b, SolverConfig(d=1000, variant="basic", init="sketch_and_solve", max_iters=60),
            p.truth,
        )
        fe_zero = np.linalg.norm(zero.solution - p.truth.x)
        fe_ss = np.linalg.norm(ss.solution - p.truth.x)
        assert fe_zero >= 10 * fe_qr
        assert fe_ss <= 100 * max(fe_qr, U)

    def test_trace_recorded_per_iteration(self):
        p = gen_randsvd(300, 10, 1e2, 1e-3, 1)
        cfg = SolverConfig(d=200, variant="basic", max_iters=30)
        res = sketch_and_precondition(p.a, p.b, cfg, p.truth)
        assert len(res.trace.iterates) == res.iterations + 1
        tr = res.trace
        assert len(tr.residual_changes) == len(tr.residual_norms) == res.iterations
        assert len(tr.stop_thresholds) == res.iterations
        # each threshold takes LSQR's phibar as ||r||, as recorded
        for i, (threshold, resnorm) in enumerate(zip(tr.stop_thresholds, tr.residual_norms)):
            norm_x = _norm2(tr.iterates[i + 1])
            assert threshold == _stop_threshold(norm_x, resnorm, tr.normest, tr.condest)

    def test_stop_reasons(self):
        # the residual-change rule ends this solve, well before LSQR's own
        # test would (21 iterations)
        p = gen_randsvd(4000, 50, 1e10, 1e-6, 0)
        done = sketch_and_precondition(
            p.a, p.b, SolverConfig(d=1000, variant="basic", max_iters=100))
        assert done.trace.stop_reason == "stopped_by_rule"
        assert done.iterations < 21
        tr = done.trace
        fired = [c <= t for c, t in zip(tr.residual_changes, tr.stop_thresholds)]
        assert fired.index(True) == done.iterations - 1
        # a well-conditioned A with a large residual: the rule's threshold
        # stays below |phi_k| and LSQR's own test ends the solve at 17-18
        p = gen_sparse(20_000, 20, 0)
        tol = sketch_and_precondition(p.a, p.b, SolverConfig(d=400, max_iters=100))
        assert tol.trace.stop_reason == "lsqr_tolerance"
        assert tol.iterations < 100
        cut = sketch_and_precondition(p.a, p.b, SolverConfig(d=1000, variant="basic", max_iters=5))
        assert cut.trace.stop_reason == "max_iters"
        assert cut.iterations == 5

    def test_extra_iters_after_rule(self, monkeypatch):
        # the solve the rule stopped is the prefix of LSQR run 3 steps past it
        p = gen_randsvd(4000, 50, 1e10, 1e-6, 0)
        cfg = SolverConfig(d=1000, max_iters=100)
        res0 = sketch_and_precondition(p.a, p.b, cfg)
        assert res0.trace.stop_reason == "stopped_by_rule"
        _without_stops(monkeypatch)
        res3 = sketch_and_precondition(p.a, p.b, replace(cfg, max_iters=res0.iterations + 3))
        assert res3.trace.stop_reason == "max_iters"
        assert res3.iterations == res0.iterations + 3
        assert _same_iterates(res3.trace.iterates[: res0.iterations + 1], res0.trace.iterates)

    def test_stop_reason_without_a_step(self):
        p = gen_randsvd(400, 10, 1e4, 1e-6, 0)
        for b, max_iters, reason in (
            (p.b, 0, "max_iters"),
            (np.zeros(400), 0, "max_iters"),
            (np.zeros(400), 10, "lsqr_tolerance"),  # b - Ax0 = 0: LSQR takes no step
        ):
            res = sketch_and_precondition(p.a, b, SolverConfig(d=100, max_iters=max_iters))
            assert res.trace.stop_reason == reason
            assert res.iterations == 0 and res.trace.residual_changes == []

    @pytest.mark.parametrize("solve", [iterative_sketching, sketch_and_precondition])
    def test_rule_at_the_last_allowed_step(self, solve):
        # max_iters equal to the step the rule fires at keeps the rule's reason
        p = gen_randsvd(4000, 50, 1e10, 1e-6, 0)
        cfg = SolverConfig(d=1000, variant="basic", max_iters=100)
        free = solve(p.a, p.b, cfg)
        assert free.trace.stop_reason == "stopped_by_rule"
        cut = solve(p.a, p.b, replace(cfg, max_iters=free.iterations))
        assert cut.trace.stop_reason == "stopped_by_rule"
        assert _same_iterates(cut.trace.iterates, free.trace.iterates)

    @staticmethod
    def _problem(dense):
        """A problem with a truth to pass: gen_sparse plants none, so it
        gets a stand-in that only FE and RE read."""
        if dense:
            p = gen_randsvd(800, 12, 1e6, 1e-3, 3)
            return p, p.truth
        p = gen_sparse(3000, 12, 3)
        return p, Truth(x=np.ones(12), r=p.b, kappa=1.0, beta=0.0)

    @pytest.mark.parametrize("dense", [True, False])
    def test_products_with_a(self, dense):
        p, given = self._problem(dense)
        cfg = SolverConfig(d=240, variant="basic", max_iters=25, rng_seed=3)
        for truth, per_step in ((None, 2), (given, 3)):
            a = _counted(p.a)
            res = sketch_and_precondition(a, p.b, cfg, truth)
            assert res.iterations > 0
            assert a.products[0] == per_step * (1 + res.iterations)

    @pytest.mark.parametrize("max_iters", [100, 5])
    def test_two_triangular_solves_per_step(self, monkeypatch, max_iters):
        # one in Op v and one forming the traced iterate; the solution is
        # that iterate, so no solve is made after the last step
        p = gen_randsvd(4000, 50, 1e10, 1e-6, 0)
        calls = []

        def counted(r, c):
            calls.append(1)
            return tri_solve_upper(r, c)

        monkeypatch.setattr(itsketch.solvers, "tri_solve_upper", counted)
        res = sketch_and_precondition(p.a, p.b, SolverConfig(d=1000, max_iters=max_iters))
        assert res.iterations > 0
        assert len(calls) == 2 * res.iterations

    @pytest.mark.parametrize("dense", [True, False])
    def test_truth_changes_only_the_errors(self, dense):
        p, truth = self._problem(dense)
        cfg = SolverConfig(d=240, variant="basic", max_iters=25, rng_seed=3)
        bare, traced = (sketch_and_precondition(p.a, p.b, cfg, t) for t in (None, truth))
        assert np.array_equal(bare.solution, traced.solution)
        assert _same_iterates(bare.trace.iterates, traced.trace.iterates)
        assert bare.trace.residual_changes == traced.trace.residual_changes
        assert bare.trace.fe == bare.trace.re == []
        assert len(traced.trace.fe) == len(traced.trace.iterates)

    @staticmethod
    def _lsqr_problem(dense):
        if dense:
            return gen_randsvd(4000, 50, 1e10, 1e-6, 0), SolverConfig(
                d=1000, variant="basic", max_iters=60)
        return gen_sparse(20_000, 20, 0), SolverConfig(d=400, variant="basic", max_iters=60)

    @pytest.mark.parametrize("dense", [True, False])
    def test_residual_changes_match_formed_residuals(self, dense):
        # LSQR's |phi_k| against ||r_k - r_{k-1}|| formed from the iterates,
        # wherever that change is well above the rounding error of forming
        # b - Ax, below which the formed change levels off and |phi_k| falls
        # on. On the dense instance the formed change levels off at 1e-14 to
        # 1.5e-14, about 100 times u(||b|| + normest ||x||) = 1.3e-16, so the
        # comparison starts a further factor 10 above that.
        p, cfg = self._lsqr_problem(dense)
        tr = sketch_and_precondition(p.a, p.b, cfg).trace
        assert len(tr.residual_changes) == len(tr.iterates) - 1 > 0
        norm_b = np.linalg.norm(p.b)
        compared = 0
        for i, change in enumerate(tr.residual_changes):
            x_next = tr.iterates[i + 1]
            formed = np.linalg.norm((p.b - p.a @ x_next) - (p.b - p.a @ tr.iterates[i]))
            if formed > 1000 * U * (norm_b + tr.normest * np.linalg.norm(x_next)):
                compared += 1
                assert abs(change - formed) <= 1e-2 * formed
        assert compared >= 5

    @pytest.mark.parametrize("dense", [True, False])
    def test_resnorm_matches_formed_residual(self, dense):
        # LSQR's phibar_k, which the stopping rule reads as ||r_k||, against
        # the formed ||b - A x_k|| wherever that is well above its rounding
        # error, over a run to LSQR's own tolerance from the solve's x0 and R
        p, cfg = self._lsqr_problem(dense)
        x0, r_fac, normest, _ = _sketch_factor(p.a, p.b, cfg)
        steps = [(z, resnorm) for z, _, resnorm in _lsqr_steps(p.a, p.b, x0, r_fac, cfg.max_iters, U)]
        norm_b = np.linalg.norm(p.b)
        compared = 0
        for z, resnorm in steps:
            x = x0 + tri_solve_upper(r_fac, z)
            formed = np.linalg.norm(p.b - p.a @ x)
            if formed > 1000 * U * (norm_b + normest * np.linalg.norm(x)):
                compared += 1
                assert abs(resnorm - formed) <= 1e-2 * formed
        assert compared >= 5


class _CountedDense(np.ndarray):
    """View of a dense A that counts its products A @ x; A.T is a view of
    the same class, so A' @ y is counted too."""

    def __array_finalize__(self, obj) -> None:
        self.products = getattr(obj, "products", None)

    def __matmul__(self, other):
        self.products[0] += 1
        return np.matmul(self.view(np.ndarray), other)


class _CountedCsr(sp.csr_matrix):
    """Sparse A that counts its products A @ x and, through .T, A' @ y."""

    def __matmul__(self, other):
        self.products[0] += 1
        return super().__matmul__(other)

    @property
    def T(self):
        return _CountedCsc(self.transpose(), products=self.products)


class _CountedCsc(sp.csc_matrix):
    def __init__(self, arg, products):
        super().__init__(arg)
        self.products = products

    def __matmul__(self, other):
        self.products[0] += 1
        return super().__matmul__(other)


def _counted(a):
    """A that counts its products with A or A' in ``a.products[0]``."""
    if sp.issparse(a):
        counted = _CountedCsr(a)
    else:
        counted = np.asarray(a).view(_CountedDense)
    counted.products = [0]
    return counted


def _held_arrays(obj):
    """Every ndarray reachable through obj's fields and the lists they hold."""
    stack = list(vars(obj).values())
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, (list, tuple)):
            stack.extend(v)


_SOLVES = {
    "basic": lambda a, b, cfg: iterative_sketching(a, b, cfg),
    "momentum": lambda a, b, cfg: iterative_sketching(a, b, replace(cfg, variant="momentum")),
    "bad_residual": lambda a, b, cfg: bad_variant(a, b, cfg, "bad_residual"),
}


class TestTraceMemory:
    """A trace holds n-length iterates and scalars only; residuals are
    recovered as b - A x_i. Sketch-and-precondition's residual changes come
    from LSQR, not from formed residuals: TestSketchAndPrecondition."""

    @pytest.mark.parametrize("solve", sorted(_SOLVES))
    @pytest.mark.parametrize("dense", [True, False])
    def test_residual_changes_from_iterates(self, solve, dense):
        p = gen_randsvd(800, 12, 1e6, 1e-3, 3) if dense else gen_sparse(3000, 12, 3)
        cfg = SolverConfig(d=240, variant="basic", max_iters=25, rng_seed=3)
        res = _SOLVES[solve](p.a, p.b, cfg)
        tr = res.trace
        xs = tr.iterates
        assert len(tr.residual_changes) == len(tr.residual_norms) == len(xs) - 1 > 0
        for i, (change, resnorm) in enumerate(zip(tr.residual_changes, tr.residual_norms)):
            r_next, r_curr = p.b - p.a @ xs[i + 1], p.b - p.a @ xs[i]
            assert _norm2(r_next - r_curr) == change
            assert _norm2(r_next) == resnorm

    def test_no_m_length_array_held(self):
        m, n = 50_000, 20
        p = gen_sparse(m, n, 0)
        cfg = SolverConfig(d=400, variant="basic", max_iters=20)
        for res in (iterative_sketching(p.a, p.b, cfg), sketch_and_precondition(p.a, p.b, cfg)):
            held = list(_held_arrays(res.trace))
            assert len(held) == res.iterations + 1
            assert max(arr.size for arr in held) <= n

    def test_peak_memory_flat_in_iterations(self, monkeypatch):
        # TestStagnated's problem, whose rule threshold sits below the
        # rounding floor, with the stagnation test off: the solve runs to
        # max_iters
        p, cfg = TestStagnated._sparse_problem()
        monkeypatch.setattr(itsketch.solvers, "STAG_FLOOR", 0.0)

        def peak(max_iters):
            res, top = peak_bytes(iterative_sketching, p.a, p.b, replace(cfg, max_iters=max_iters))
            assert res.iterations == max_iters
            return top

        assert peak(100) - peak(10) < 2**20

    @pytest.mark.parametrize("variant", ["basic", "momentum"])
    def test_stop_thresholds_match_rule(self, variant):
        p = gen_randsvd(1000, 20, 1e8, 1e-4, 7)
        cfg = SolverConfig(d=400, max_iters=100, variant=variant)
        res = iterative_sketching(p.a, p.b, cfg)
        tr = res.trace
        assert tr.stop_reason == "stopped_by_rule"
        assert len(tr.stop_thresholds) == len(tr.residual_changes) == res.iterations
        fired = [c <= t for c, t in zip(tr.residual_changes, tr.stop_thresholds)]
        assert fired.index(True) == res.iterations - 1
        for i, threshold in enumerate(tr.stop_thresholds):
            x_next, x_curr = tr.iterates[i + 1], tr.iterates[i]
            r_next = p.b - p.a @ x_next
            expect = U * (
                STOP_GAMMA * tr.normest * _norm2(x_next)
                + STOP_RHO * tr.condest * _norm2(r_next)
            )
            assert threshold == float(expect)
            formed = _norm2(r_next - (p.b - p.a @ x_curr))
            assert fired[i] == bool(formed <= threshold)


def _stop_from_trace(tr, norm_b):
    """(step, reason) of the first stop test that fires, recomputed from the
    trace and ||b|| alone in _run_refinement's order: the divergence test,
    the rule, the stagnation test; (steps taken, "max_iters") if none does."""
    for i, (change, threshold) in enumerate(zip(tr.residual_changes, tr.stop_thresholds)):
        x = tr.iterates[i + 1]
        if _diverged(tr.residual_norms[: i + 1], x):
            return i + 1, "diverged"
        if change <= threshold:
            return i + 1, "stopped_by_rule"
        if _stagnated(tr.residual_changes[: i + 1], U * (norm_b + tr.normest * _norm2(x))):
            return i + 1, "stagnated"
    return len(tr.residual_changes), "max_iters"


_BASIC = SolverConfig(d=400, variant="basic", max_iters=100, rng_seed=0)
_HARD = SolverConfig(d=1000, variant="basic", max_iters=60)
_STOP_CASES = {
    # name: (problem, solve, cfg, the reason the solve ends with)
    "basic-rule": (lambda: gen_randsvd(1000, 20, 1e8, 1e-4, 7), iterative_sketching, _BASIC,
                   "stopped_by_rule"),
    "momentum-rule": (lambda: gen_randsvd(1000, 20, 1e8, 1e-4, 7), iterative_sketching,
                      replace(_BASIC, variant="momentum"), "stopped_by_rule"),
    "momentum-max_iters": (lambda: gen_randsvd(1000, 20, 1e8, 1e-4, 7), iterative_sketching,
                           replace(_BASIC, variant="momentum", max_iters=3), "max_iters"),
    "basic-stagnated": (lambda: gen_sparse(20_000, 10, 0), iterative_sketching,
                        SolverConfig(d=200, variant="basic", max_iters=100, rng_seed=1), "stagnated"),
    "bad_matrix-diverged": (lambda: gen_randsvd(4000, 50, 1e10, 1e-6, 0),
                            partial(bad_variant, kind="bad_matrix"), _HARD, "diverged"),
    "bad_residual-max_iters": (lambda: gen_randsvd(4000, 50, 1e10, 1e-6, 0),
                               partial(bad_variant, kind="bad_residual"), _HARD, "max_iters"),
    "bad_init-rule": (lambda: gen_randsvd(4000, 50, 1e10, 1e-6, 0),
                      partial(bad_variant, kind="bad_init"), replace(_HARD, max_iters=250),
                      "stopped_by_rule"),
}


@pytest.mark.parametrize("case", _STOP_CASES)
def test_trace_explains_the_stop(case):
    make, solve, cfg, reason = _STOP_CASES[case]
    p = make()
    res = solve(p.a, p.b, cfg)
    assert res.trace.stop_reason == reason
    assert _stop_from_trace(res.trace, _norm2(p.b)) == (res.iterations, reason)


class TestBadVariants:
    def _hard_problem(self):
        return gen_randsvd(4000, 50, 1e10, 1e-6, 0)

    def test_bad_matrix_diverges(self):
        p = self._hard_problem()
        cfg = SolverConfig(d=1000, variant="basic", max_iters=60)
        res = bad_variant(p.a, p.b, cfg, "bad_matrix", p.truth)
        fe = res.trace.fe
        assert max(fe[:31]) >= 1e3 * fe[0]
        assert res.trace.stop_reason == "diverged"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bad_matrix_singular_gram_reports_divergence(self, seed):
        # a zero column makes the Gram matrix singular: Cholesky fails, LU
        # meets an exactly zero pivot and x0 is not finite, which the
        # divergence test reports from the first step's residual norm,
        # with no warning, instead of lu_solve raising
        rng = np.random.default_rng(0)
        a = rng.standard_normal((200, 4))
        a[:, 2] = 0.0
        b = rng.standard_normal(200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = SolverConfig(d=40, variant="basic", rng_seed=seed)
            res = bad_variant(a, b, cfg, "bad_matrix")
        assert res.trace.stop_reason == "diverged"
        assert not math.isfinite(res.trace.residual_norms[-1])
        assert _stop_from_trace(res.trace, _norm2(b)) == (res.iterations, "diverged")

    def test_bad_residual_high_plateau(self):
        p = self._hard_problem()
        cfg = SolverConfig(d=1000, variant="basic", max_iters=60)
        bad = bad_variant(p.a, p.b, cfg, "bad_residual", p.truth)
        stable = iterative_sketching(p.a, p.b, cfg, p.truth)
        assert min(bad.trace.fe) >= 100 * stable.trace.fe[-1]

    def test_bad_init_slower(self):
        p = self._hard_problem()
        cfg = SolverConfig(d=1000, variant="basic", max_iters=250)
        bad = bad_variant(p.a, p.b, cfg, "bad_init", p.truth)
        stable = iterative_sketching(p.a, p.b, cfg, p.truth)
        assert bad.trace.stop_reason == "stopped_by_rule"
        assert stable.trace.stop_reason == "stopped_by_rule"
        assert bad.iterations >= 1.5 * stable.iterations

    def test_stable_never_flags_divergence(self):
        p = gen_randsvd(1000, 20, 1e8, 1e-4, 7)
        cfg = SolverConfig(d=400, variant="basic", max_iters=100)
        res = iterative_sketching(p.a, p.b, cfg, p.truth)
        assert res.trace.stop_reason == "stopped_by_rule"

    def test_unknown_kind(self):
        p = gen_randsvd(100, 10, 10.0, 0.1, 0)
        with pytest.raises(ValueError):
            bad_variant(p.a, p.b, SolverConfig(d=50, variant="basic"), "bad_everything")


ENTRY_SOLVES = {
    "is": iterative_sketching,
    "sp": sketch_and_precondition,
    **{kind: partial(bad_variant, kind=kind) for kind in ("bad_matrix", "bad_residual", "bad_init")},
}


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
@pytest.mark.parametrize("kind", ENTRY_SOLVES)
def test_equal_columns_solved_without_warning(kind, dense):
    # two equal columns make bad_matrix's Gram matrix singular, as a zero
    # column does: it ends diverged after one step, and no solver warns (the
    # suite turns a RuntimeWarning, LinAlgWarning among them, into an error)
    if dense:
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((200, 4)), rng.standard_normal(200)
        a[:, 3] = a[:, 1]
    else:
        p = gen_sparse(2000, 6, 0)
        a, b = sp.csr_matrix(sp.hstack([p.a, p.a[:, 1]])), p.b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ENTRY_SOLVES[kind](a, b, SolverConfig(d=40, variant="basic"))
    if kind == "bad_matrix":
        assert (res.trace.stop_reason, res.iterations) == ("diverged", 1)
    else:
        assert np.isfinite(res.solution).all() or res.trace.stop_reason == "diverged"


@pytest.mark.parametrize("kind", ["is", "bad_matrix", "bad_residual", "bad_init"])
def test_zero_init_starts_every_refinement_at_zero(kind):
    # bad_matrix started at its Gram solve (FE 1.189) whatever cfg.init said
    p = gen_randsvd(400, 10, 1e4, 1e-3, 0)
    cfg = SolverConfig(d=100, variant="basic", init="zero")
    res = ENTRY_SOLVES[kind](p.a, p.b, cfg, truth=p.truth)
    assert not res.trace.iterates[0].any()
    assert res.trace.fe[0] == 1.0


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("solve", ENTRY_SOLVES.values(), ids=ENTRY_SOLVES.keys())
class TestInputChecks:
    """Every solver rejects a b of the wrong shape and a non-finite A or b at
    its entry, with a ValueError that names the input."""

    CFG = SolverConfig(d=60, variant="basic", max_iters=5)

    def test_a_wider_than_tall(self, solve, dense):
        a = np.random.default_rng(0).standard_normal((5, 10))
        with pytest.raises(ValueError, match=r"^A must be a matrix with m >= n, got shape \(5, 10\)"):
            solve(a if dense else sp.csr_matrix(a), np.ones(5), SolverConfig(d=20))

    @staticmethod
    def _problem(dense):
        p = gen_randsvd(300, 6, 10.0, 1e-3, 0) if dense else gen_sparse(300, 6, 0)
        return p.a, p.b

    def test_b_of_wrong_shape(self, solve, dense):
        a, b = self._problem(dense)
        for bad_b in (b[:-1], np.append(b, 1.0), b[:, None]):
            with pytest.raises(ValueError, match=r"^b must be a vector of length 300, got shape"):
                solve(a, bad_b, self.CFG)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_a(self, solve, dense, value):
        a, b = self._problem(dense)
        a = a.copy()
        if dense:
            a[123, 4] = value
        else:
            a.data[100] = value
        with pytest.raises(ValueError, match=r"^A must be finite"):
            solve(a, b, self.CFG)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_b(self, solve, dense, value):
        a, b = self._problem(dense)
        b = b.copy()
        b[299] = value
        with pytest.raises(ValueError, match=r"^b must be finite"):
            solve(a, b, self.CFG)

    def test_complex_a_or_b(self, solve, dense):
        # a cast to float would drop the imaginary part and solve the real one
        a, b = self._problem(dense)
        with pytest.raises(ValueError, match=r"^A must be real"):
            solve(a * (1 + 1j), b, self.CFG)
        with pytest.raises(ValueError, match=r"^b must be real"):
            solve(a, b + 1j, self.CFG)


@pytest.mark.parametrize("bad_truth, message", [
    ({"x": np.zeros(5)}, "truth.x must be nonzero"),
    ({"x": np.ones(4)}, r"truth.x must be a vector of length 5, got shape \(4,\)"),
    ({"r": np.ones(7)}, r"truth.r must be a vector of length 200, got shape \(7,\)"),
    ({"x": np.array([1.0, np.nan, 0.0, 0.0, 0.0])}, "truth.x must be nonzero and finite"),
    ({"r": np.full(200, np.inf)}, "truth.r must be finite"),
    ({"beta": -1.0}, "truth.beta must be a finite number >= 0, got -1.0"),
    ({"beta": np.nan}, "truth.beta must be a finite number >= 0, got nan"),
], ids=["zero-x", "short-x", "short-r", "nan-x", "inf-r", "negative-beta", "nan-beta"])
@pytest.mark.parametrize("solve", ENTRY_SOLVES.values(), ids=ENTRY_SOLVES.keys())
def test_malformed_truth_refused_before_the_sketch(solve, bad_truth, message, monkeypatch):
    # checked once, by name, where it enters: not a ZeroDivisionError or a
    # broadcast error at the first traced step
    def sketch(*args):
        raise AssertionError("sketched a solve with a malformed truth")

    monkeypatch.setattr(SparseSignEmbedding, "apply", sketch)
    p = gen_randsvd(200, 5, 10.0, 1e-3, 0)
    with pytest.raises(ValueError, match=f"^{message}"):
        solve(p.a, p.b, SolverConfig(d=40), truth=replace(p.truth, **bad_truth))


@pytest.mark.parametrize("solve", [iterative_sketching, sketch_and_precondition], ids=["is", "sp"])
@pytest.mark.parametrize("name, value", [
    ("d", 100.0), ("zeta", 8.0), ("rng_seed", 2.5), ("max_iters", 5.5), ("max_iters", np.float64(5)),
    ("zeta", True), ("max_iters", True), ("rng_seed", False),
])
def test_non_integer_config_field_rejected(solve, name, value):
    p = gen_randsvd(300, 6, 10.0, 1e-3, 0)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        solve(p.a, p.b, replace(SolverConfig(d=60), **{name: value}))


@st.composite
def _entry_inputs(draw):
    """(A, b, cfg, refusals): A of at most 300 x 8 in one of five dtypes, and
    cfg's integer fields as ints or NumPy ints, but for at most one drawn as
    a float, integral or not; b real or complex, of length m or not (m - 1,
    m + 1 or 1); A and b as arrays, as nested lists, or with A a ragged list;
    refusals holds the start of each message that may refuse the solve."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(n, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    a = rng.standard_normal((m, n))
    dtype = draw(st.sampled_from(["float64", "float32", "int64", "bool", "complex128"]))
    a = {"float64": a, "float32": a.astype(np.float32), "int64": np.rint(4 * a).astype(np.int64),
         "bool": a > 0, "complex128": a + 1j * rng.standard_normal((m, n))}[dtype]
    ranges = {"d": (n + 1, n + 40), "zeta": (1, 8), "max_iters": (0, 20), "rng_seed": (0, 2**31 - 1)}
    as_float = draw(st.sampled_from([None, None, *ranges]))
    fields = {}
    for name, (low, high) in ranges.items():
        v = draw(st.integers(low, high))
        forms = [float(v), v + 0.5] if name == as_float else [v, np.int64(v), np.int32(v)]
        fields[name] = draw(st.sampled_from(forms))
    refusals = [] if as_float is None else [f"{as_float} must be an integer"]
    if dtype == "complex128":
        refusals.append("A must be real")
    length = draw(st.sampled_from([m, m, m, m - 1, m + 1, 1]))
    b = rng.standard_normal(length) * (1 + 1j if draw(st.integers(0, 5)) == 0 else 1)
    if length != m:
        refusals.append(f"b must be a vector of length {m},")
    if np.iscomplexobj(b):
        refusals.append("b must be real")
    form = draw(st.sampled_from(["array", "array", "list", "ragged"]))
    if form != "array":
        a, b = a.tolist(), b.tolist()
    if form == "ragged":
        a.append(a[-1] + [a[-1][0]])  # a row one entry longer than the rest
        refusals = ["A must be a numeric array: setting an array element with a sequence"]
    return a, b, SolverConfig(**fields), refusals


_REASONS = {
    iterative_sketching: {"stopped_by_rule", "stagnated", "max_iters", "diverged"},
    sketch_and_precondition: {"stopped_by_rule", "lsqr_tolerance", "max_iters"},
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inputs=_entry_inputs(), solve=st.sampled_from(list(_REASONS)))
def test_entry_input_handling(inputs, solve):
    # whatever the fields' types and A's dtype: a finite solution with a
    # documented reason, or a ValueError; a non-integer field or a complex A
    # is always refused, by name, and so are a complex b, a b of the wrong
    # length and a ragged A (with NumPy's reason); lists and any other real
    # dtype give the bits of their float64 arrays
    a, b, cfg, refusals = inputs
    try:
        res = solve(a, b, cfg)
    except ValueError as e:
        assert not refusals or str(e).startswith(tuple(refusals))
        return
    assert not refusals
    assert np.isfinite(res.solution).all()
    assert res.trace.stop_reason in _REASONS[solve]
    if isinstance(a, list) or a.dtype != np.float64:
        as_float = solve(np.array(a, dtype=float), np.array(b, dtype=float), cfg)
        assert res.solution.tobytes() == as_float.solution.tobytes()


@st.composite
def _problems(draw):
    """(A, b, cfg, kind): gen_randsvd(m <= 300, n <= 8, kappa in [1, 1e14],
    beta in {0, 1e-8, 1}, s) or gen_sparse's CSR A, in one draw in six with
    its last column a copy of its first; a variant, with d > n where it takes
    eps = sqrt(n/d); and an ENTRY_SOLVES kind to solve it by. The kind and
    the copy are one draw, so every kind meets a copied column."""
    kind, copied = draw(st.sampled_from([(k, i == 0) for i in range(6) for k in ENTRY_SOLVES]))
    n = draw(st.integers(3, 8))
    m = draw(st.integers(n + 1, 300))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        kappa = 10.0 ** draw(st.floats(0, 14))
        p = gen_randsvd(m, n, kappa, draw(st.sampled_from([0.0, 1e-8, 1.0])), seed)
    else:
        p = gen_sparse(m, n, seed)
    a = p.a
    if copied:
        a = (sp.hstack([a[:, :-1], a[:, :1]], format="csr") if sp.issparse(a)
             else np.column_stack([a[:, :-1], a[:, 0]]))
    variant = draw(st.sampled_from(["basic", "damped", "momentum"]))
    d = draw(st.integers(n + (variant != "basic"), n + 40))
    cfg = SolverConfig(d=d, zeta=min(d, 8), variant=variant, rng_seed=draw(st.integers(0, 2**16)))
    return a, p.b, cfg, kind


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(problem=_problems())
def test_any_well_posed_solve_ends_quietly_and_repeats(problem):
    # a documented stop reason, a finite solution unless diverged, no
    # warning, and the same bits on a second call; or SingularMatrixError
    # where SA is rank-deficient: A has a duplicated or (gen_sparse at small
    # m) an empty column, or, at d near n, S maps a vector of range(A) to 0
    a, b, cfg, kind = problem
    solve = ENTRY_SOLVES[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res, again = solve(a, b, cfg), solve(a, b, cfg)
        except SingularMatrixError:  # documented, for an R of SA with a zero on its diagonal
            sa = SparseSignEmbedding(cfg.d, a.shape[0], cfg.zeta, cfg.rng_seed).apply(a)
            assert np.linalg.matrix_rank(sa) < a.shape[1]
            return
    reasons = _REASONS[sketch_and_precondition if kind == "sp" else iterative_sketching]
    assert res.trace.stop_reason in reasons
    assert res.trace.stop_reason == "diverged" or np.isfinite(res.solution).all()
    for got, want in [(res.solution, again.solution),
                      (res.trace.residual_changes, again.trace.residual_changes)]:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("variant", ["basic", "damped", "momentum"])
@pytest.mark.parametrize("kind", ENTRY_SOLVES)
def test_trace_records_epsilon(kind, variant):
    # the eps the step's (alpha, beta) took, for every variant; SP takes no
    # step from one
    p = gen_randsvd(400, 10, 10.0, 0.1, 0)
    cfg = SolverConfig(d=40, variant=variant, max_iters=3)
    eps = ENTRY_SOLVES[kind](p.a, p.b, cfg).trace.epsilon
    if kind == "sp":
        assert math.isnan(eps)
    else:
        assert eps == math.sqrt(10 / 40)


@pytest.mark.parametrize("beta", [1e-3, 0.0])
@pytest.mark.parametrize("kind, variant", [
    ("is", "basic"), ("is", "momentum"), ("bad_matrix", "basic"), ("bad_residual", "basic"),
    ("bad_init", "basic"), ("sp", "basic"),
], ids=["basic", "momentum", "bad_matrix", "bad_residual", "bad_init", "sp"])
def test_solution_is_last_traced_iterate(kind, variant, beta):
    # every solver returns its last traced iterate itself, whose FE and RE
    # are those of the solution with b - Ax formed as a caller forms it
    p = gen_randsvd(600, 12, 1e4, beta, 2)
    cfg = SolverConfig(d=240, variant=variant, max_iters=40)
    res = ENTRY_SOLVES[kind](p.a, p.b, cfg, truth=p.truth)
    assert res.solution is res.trace.iterates[-1]
    assert res.trace.fe[-1] == forward_error(p.truth.x, res.solution)
    r = p.b - p.a @ res.solution
    assert res.trace.re[-1] == (_norm2(p.truth.r - r) / beta if beta > 0 else _norm2(r) / _norm2(p.b))


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
def test_caller_arrays_never_written(dense):
    # the solvers update their residuals and LSQR's u in place, in arrays of
    # their own; A (a CSR A's data) and b keep every bit
    p = gen_randsvd(600, 8, 1e4, 1e-3, 2) if dense else gen_sparse(3000, 8, 2)
    a, b = p.a, p.b
    held = a if dense else a.data
    a_bytes, b_bytes = held.tobytes(), b.tobytes()
    cfg = SolverConfig(d=120, variant="momentum", max_iters=10, rng_seed=2)
    s = SparseSignEmbedding(120, a.shape[0], 8, 2)
    calls = [
        partial(iterative_sketching, a, b, cfg, p.truth),
        partial(sketch_and_precondition, a, b, cfg, p.truth),
        *(partial(bad_variant, a, b, cfg, kind) for kind in ("bad_matrix", "bad_residual", "bad_init")),
        partial(sketch_and_solve, a, b, s),
        partial(s.apply, a, b),
    ]
    for call in calls:
        call()
        assert held.tobytes() == a_bytes and b.tobytes() == b_bytes


def test_sketch_and_solve_names_b():
    p = gen_randsvd(300, 6, 10.0, 1e-3, 0)
    s = SparseSignEmbedding(60, 300, 8, 0)
    with pytest.raises(ValueError, match=r"^b must be a vector of length 300,"):
        sketch_and_solve(p.a, p.b[:-1], s)
    with pytest.raises(ValueError, match=r"^b must be finite"):
        sketch_and_solve(p.a, np.full(300, np.nan), s)
    # a nested-list A is read as its array
    for got, want in zip(sketch_and_solve(p.a.tolist(), p.b, s), sketch_and_solve(p.a, p.b, s)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("solve", [iterative_sketching, sketch_and_precondition], ids=["is", "sp"])
def test_scaled_input_rejected_before_iterating_or_solved(solve):
    # at 1e160, A'r (IS) and ||b - Ax0||^2 (SP) overflow, so the solve is
    # refused before its first step; at 1e155 both still reach a few u
    p = gen_randsvd(2000, 20, 1e2, 1e-3, 0)
    # at 1e160 LSQR's ||r0||, taken by squaring, overflows on the way to the
    # range check; iterative sketching takes it by nrm2, which does not.
    # The check comes before the first step, so it refuses at every budget,
    # max_iters = 0 included
    with np.errstate(over="ignore"):
        for max_iters in (50, 0):
            with pytest.raises(ValueError, match="too large to iterate on"):
                solve(p.a * 1e160, p.b * 1e160, SolverConfig(d=400, max_iters=max_iters))
    # ||b|| ~ 1e157 cannot be taken by squaring b, yet the stagnation floor
    # u(||b|| + normest ||x||) stays finite, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(p.a * 1e155, p.b * 1e155, SolverConfig(d=400))
    assert res.trace.stop_reason == "stopped_by_rule"
    assert forward_error(p.truth.x, res.solution) <= 4e-16
