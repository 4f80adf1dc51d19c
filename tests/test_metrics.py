"""Unit tests for error metrics: forward/residual/backward error and
perturbation-theory reference bounds."""

import numpy as np
import pytest

from itsketch.metrics import (
    WedinHypothesisError,
    backward_error,
    forward_error,
    residual_error,
    wedin_bounds,
)
from itsketch.problems import gen_randsvd

U = 2.0**-53


class TestForwardError:
    def test_exact(self):
        x = np.array([1.0, 2.0])
        assert forward_error(x, x) == 0.0

    def test_double(self):
        x = np.array([1.0, 2.0])
        assert forward_error(x, 2 * x) == pytest.approx(1.0)

    def test_unit_perturbation(self):
        assert forward_error(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_zero_truth_raises(self):
        with pytest.raises(ValueError):
            forward_error(np.zeros(2), np.ones(2))


class TestResidualError:
    def test_exact(self):
        r = np.array([0.0, 1.0])
        assert residual_error(r, r) == 0.0

    def test_unit_case(self):
        assert residual_error(np.array([0.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_zero_truth_raises(self):
        with pytest.raises(ValueError):
            residual_error(np.zeros(2), np.ones(2))

    def test_orthogonal_increment_norm_relation(self):
        # When the true residual is orthogonal to the column space, the
        # perturbed residual norm satisfies ||r_hat|| = sqrt(1 + RE^2)||r||.
        p = gen_randsvd(200, 10, 1e3, 1e-2, 0)
        x_hat = p.truth.x + 1e-4 * np.random.default_rng(1).standard_normal(10)
        r_hat = p.b - p.a @ x_hat
        re = residual_error(p.truth.r, r_hat)
        expected = np.sqrt(1 + re**2) * np.linalg.norm(p.truth.r)
        assert np.linalg.norm(r_hat) == pytest.approx(expected, rel=1e-10)

    def test_pythagorean_relation(self):
        p = gen_randsvd(300, 12, 1e2, 1e-3, 2)
        x_hat = p.truth.x + 1e-5 * np.random.default_rng(3).standard_normal(12)
        r_hat = p.b - p.a @ x_hat
        lhs = np.linalg.norm(r_hat) ** 2
        rhs = np.linalg.norm(p.truth.r) ** 2 + np.linalg.norm(p.truth.r - r_hat) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)


def _be_literal(a, b, x_hat):
    """Independent oracle: the augmented-matrix SVD characterization,
    evaluated literally."""
    m = a.shape[0]
    r_hat = b - a @ x_hat
    nr, nx = np.linalg.norm(r_hat), np.linalg.norm(x_hat)
    if nr == 0:
        return 0.0
    nu = nr / nx
    q = r_hat / nr
    aug = np.column_stack([a, nu * (np.eye(m) - np.outer(q, q))])
    sigma_min = np.linalg.svd(aug, compute_uv=False)[-1]
    return min(nu, sigma_min) / np.linalg.norm(a, "fro")


class TestBackwardError:
    def test_exact_solution_tiny(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 4))
        b = rng.standard_normal(30)
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        assert backward_error(a, b, x) <= 10 * U

    def test_zero_residual_returns_zero(self):
        a = np.eye(3)
        x = np.array([1.0, 2.0, 3.0])
        assert backward_error(a, a @ x, x) == 0.0

    def test_zero_x_hat_raises(self):
        with pytest.raises(ValueError):
            backward_error(np.eye(3), np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("x_hat", [
        np.array([np.nan, 1.0]), np.array([np.inf, 1.0]), np.array([1.5e308, 1.5e308]),
    ], ids=["nan", "inf", "norm-overflows"])
    def test_non_finite_x_hat_raises_value_error(self, x_hat):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((50, 2)), rng.standard_normal(50)
        with pytest.raises(ValueError, match="finite norm"):
            backward_error(a, b, x_hat)

    def test_overflowing_residual_raises_value_error(self):
        # ||x_hat|| is finite, ||b - A x_hat|| is not
        with pytest.raises(ValueError, match="r_hat"):
            backward_error(1e200 * np.ones((50, 2)), np.ones(50), np.array([1e150, 1.0]))

    def test_wide_a_raises_value_error(self):
        with pytest.raises(ValueError, match=r"^A must be a matrix with m >= n, got shape \(3, 4\)"):
            backward_error(np.ones((3, 4)), np.ones(3), np.ones(4))

    # zero rows appended to [A | b] leave the backward error unchanged, at any m
    @pytest.mark.parametrize("kappa,beta", [(10.0, 1e-3), (1e8, 1e-6), (1e12, 0.0)])
    def test_zero_rows_leave_it_unchanged(self, kappa, beta):
        p = gen_randsvd(60, 4, kappa, beta, 0)
        a_pad = np.vstack([p.a, np.zeros((6000, 4))])
        b_pad = np.concatenate([p.b, np.zeros(6000)])
        for scale in (1e-12, 1e-2):
            x_hat = p.truth.x + scale * np.random.default_rng(1).standard_normal(4)
            assert backward_error(a_pad, b_pad, x_hat) == pytest.approx(
                backward_error(p.a, p.b, x_hat), rel=1e-14
            )

    def test_scaling_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((20, 3))
        b = rng.standard_normal(20)
        x_hat = np.linalg.lstsq(a, b, rcond=None)[0] + 0.01 * rng.standard_normal(3)
        be = backward_error(a, b, x_hat)
        for c in (1e-6, 3.0, 1e8):
            assert backward_error(c * a, c * b, x_hat) == pytest.approx(be, rel=1e-10)

    @pytest.mark.parametrize("m", [20, 500])
    def test_scaling_invariance_huge_x(self, m):
        # ||s x|| and ||s r|| are finite at s = 1e158, but their squares overflow
        rng = np.random.default_rng(1)
        a = rng.standard_normal((m, 3))
        b = rng.standard_normal(m)
        x_hat = np.linalg.lstsq(a, b, rcond=None)[0] + 0.01 * rng.standard_normal(3)
        s = 1e158
        assert backward_error(a, s * b, s * x_hat) == pytest.approx(
            backward_error(a, b, x_hat), rel=1e-12
        )

    def test_fast_path_matches_literal_svd(self):
        rng = np.random.default_rng(2)
        for trial in range(12):
            m, n = int(rng.integers(500, 700)), int(rng.integers(2, 12))
            a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-2, 2)
            x = rng.standard_normal(n)
            b = a @ x + 10.0 ** rng.integers(-10, -1) * rng.standard_normal(m)
            x_hat = np.linalg.lstsq(a, b, rcond=None)[0]
            x_hat = x_hat + 10.0 ** rng.integers(-12, -3) * rng.standard_normal(n)
            be_fast = backward_error(a, b, x_hat)
            be_lit = _be_literal(a, b, x_hat)
            # The literal SVD itself carries absolute noise ~u*||aug||/||A||_F.
            tol = 1e-6 * be_lit + 50 * U
            assert abs(be_fast - be_lit) <= tol

    def test_fast_path_resolves_tiny_backward_errors(self):
        # The reduced path must distinguish near-machine-level backward
        # errors from merely-small ones; squaring-based formulations cannot.
        p = gen_randsvd(2000, 30, 1e8, 1e-3, 0)
        x_qr = np.linalg.lstsq(p.a, p.b, rcond=None)[0]
        be_qr = backward_error(p.a, p.b, x_qr)
        assert 0.0 < be_qr <= 100 * U
        x_off = x_qr * (1 + 1e-10)
        be_off = backward_error(p.a, p.b, x_off)
        assert be_off > be_qr

    # m = n + 1 and m = n included: the reduced SVD holds for any m >= n
    @pytest.mark.parametrize("m,n", [(50, 5), (6, 5), (5, 5)])
    def test_sigma_min_fast_direct_agreement_small(self, m, n):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x_hat = np.linalg.lstsq(a, b, rcond=None)[0] + 1e-6 * rng.standard_normal(n)
        # sigma_min to rel 1e-8, abs 100u ||A||_F; both sides are divided by ||A||_F
        assert backward_error(a, b, x_hat) == pytest.approx(
            _be_literal(a, b, x_hat), rel=1e-8, abs=100 * U
        )

    def test_qr_reference_backward_stable(self):
        for kappa, seed in [(1e0, 0), (1e4, 1), (1e10, 2)]:
            p = gen_randsvd(600, 15, kappa, 1e-4, seed)
            x_qr = np.linalg.lstsq(p.a, p.b, rcond=None)[0]
            assert backward_error(p.a, p.b, x_qr) <= 100 * U


class TestWedinBounds:
    def test_zero_epsilon(self):
        assert wedin_bounds(1.0, 1.0, 1.0, 1.0, 0.0) == (0.0, 0.0)

    def test_x_dominated_substitution(self):
        fe, re = wedin_bounds(kappa=1.0, norm_a=1.0, norm_x=1.0, norm_r=0.0, epsilon=1e-3)
        assert fe == pytest.approx(2.23e-3)
        assert re == pytest.approx(2.23e-3)

    def test_r_dominated_substitution(self):
        fe, re = wedin_bounds(kappa=10.0, norm_a=1.0, norm_x=0.0, norm_r=1.0, epsilon=1e-3)
        assert fe == pytest.approx(2.23 * 10 * 10 * 1e-3)
        assert re == pytest.approx(2.23 * 10 * 1e-3)

    def test_hypothesis_violation(self):
        with pytest.raises(WedinHypothesisError):
            wedin_bounds(kappa=1e4, norm_a=1.0, norm_x=1.0, norm_r=0.0, epsilon=1e-3)

    def test_bounds_honored_by_backward_stable_perturbation(self):
        # A solution with backward error BE exactly solves a problem whose
        # matrix is perturbed by epsilon = BE * ||A||_F / ||A||; the
        # perturbation bounds at that epsilon must cover the actual errors.
        p = gen_randsvd(300, 8, 1e2, 1e-4, 5)
        rng = np.random.default_rng(6)
        x_hat = p.truth.x + 1e-9 * rng.standard_normal(8)
        be = backward_error(p.a, p.b, x_hat)
        norm_a = np.linalg.norm(p.a, 2)
        eps = be * np.linalg.norm(p.a, "fro") / norm_a
        assert eps * p.truth.kappa <= 0.1
        fe_bound, re_bound = wedin_bounds(
            p.truth.kappa, norm_a, np.linalg.norm(p.truth.x),
            np.linalg.norm(p.truth.r), eps,
        )
        # Allow the reference solve's own rounding on top of the bound.
        slack = 1e3 * U * p.truth.kappa
        assert np.linalg.norm(p.truth.x - x_hat) <= fe_bound + slack
        assert np.linalg.norm(p.a @ (p.truth.x - x_hat)) <= re_bound + slack


# 2**532 (about 1.4e160) and its inverse scale exactly, and there the squares
# of the norms overflow or underflow
@pytest.mark.parametrize("s", [2.0**532, 2.0**-532], ids=["1.4e160", "7.1e-161"])
@pytest.mark.parametrize("metric", ["forward", "residual", "backward"])
def test_invariant_to_a_scale_whose_square_overflows(metric, s):
    p = gen_randsvd(60, 4, 1e4, 1e-3, 0)
    x_hat = p.truth.x + 1e-6 * np.random.default_rng(1).standard_normal(4)
    r_hat = p.b - p.a @ x_hat
    value = {
        "forward": lambda c: forward_error(c * p.truth.x, c * x_hat),
        "residual": lambda c: residual_error(c * p.truth.r, c * r_hat),
        "backward": lambda c: backward_error(c * p.a, c * p.b, x_hat),
    }[metric]
    assert value(s) == pytest.approx(value(1.0), rel=1e-14)
