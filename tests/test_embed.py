"""Unit tests for subspace embeddings."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from itsketch.embed import (
    _distinct_rows,
    choose_dim,
    default_distortion,
    measure_distortion,
    sparse_sign_new,
)
from itsketch.linalg import lambert_w0, svd_values
from reference import householder_qr_econ


def densify(s):
    return np.asarray(s.matrix.todense())


def rows_and_signs(s):
    """(m, zeta) row indices and +-1 signs per column, read from the CSC matrix."""
    return s.matrix.indices.reshape(s.m, s.zeta), np.sign(s.matrix.data).reshape(s.m, s.zeta)


def _distinct_rows_resort_all(d, m, zeta, rng):
    """Reference rejection sampler: after each redraw, sort and check every
    column again."""
    idx = rng.integers(0, d, size=(m, zeta))
    while True:
        srt = np.sort(idx, axis=1)
        bad = np.any(srt[:, 1:] == srt[:, :-1], axis=1)
        if not bad.any():
            return idx
        idx[bad] = rng.integers(0, d, size=(int(bad.sum()), zeta))


def _sparse_sign_reference(d, m, zeta, seed):
    """CSC arrays of S as built before data was drawn directly as
    +-scale: (data, indices, indptr)."""
    rng = np.random.default_rng(seed)
    rows = _distinct_rows(d, m, zeta, rng)
    signs = rng.choice(np.array([-1.0, 1.0]), size=(m, zeta))
    data = (signs * (1.0 / math.sqrt(zeta))).ravel()
    return data, rows.ravel(), zeta * np.arange(m + 1)


class _DenseGaussian:
    """Dense embedding with iid N(0, 1/d) entries."""

    def __init__(self, d, m, seed):
        self.mat = np.random.default_rng(seed).standard_normal((d, m)) / math.sqrt(d)

    def apply_dense(self, a):
        return self.mat @ a


class TestSparseSignNew:
    def test_zeta_equals_d_forces_all_rows(self):
        s = sparse_sign_new(d=4, m=3, zeta=4, rng_seed=0)
        dense = densify(s)
        assert np.all(np.abs(dense) == 0.5)
        rows, _ = rows_and_signs(s)
        for j in range(3):
            assert sorted(rows[j]) == [0, 1, 2, 3]

    def test_column_norms_unit(self):
        s = sparse_sign_new(d=30, m=50, zeta=5, rng_seed=1)
        norms = np.linalg.norm(densify(s), axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=2 * 2.0**-53)

    def test_structure_invariants(self):
        s = sparse_sign_new(d=25, m=40, zeta=6, rng_seed=2)
        rows, signs = rows_and_signs(s)
        assert rows.shape == signs.shape == (40, 6)
        for j in range(40):
            assert len(set(rows[j])) == 6
        assert np.all(np.abs(signs) == 1.0)
        assert s.scale == pytest.approx(1 / math.sqrt(6))

    def test_zeta_larger_than_d_rejected(self):
        with pytest.raises(ValueError):
            sparse_sign_new(d=3, m=5, zeta=4, rng_seed=0)

    def test_deterministic(self):
        s1 = sparse_sign_new(20, 30, 4, rng_seed=7)
        s2 = sparse_sign_new(20, 30, 4, rng_seed=7)
        (rows1, signs1), (rows2, signs2) = rows_and_signs(s1), rows_and_signs(s2)
        assert np.array_equal(rows1, rows2) and np.array_equal(signs1, signs2)

    # (20, 5000, 8) and (10, 3000, 9) need many redraw rounds
    @pytest.mark.parametrize("d,m,zeta", [(3, 500, 2), (20, 5000, 8), (10, 3000, 9), (400, 20000, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distinct_rows_matches_resort_all(self, d, m, zeta, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        idx = _distinct_rows(d, m, zeta, rng)
        assert np.array_equal(idx, _distinct_rows_resort_all(d, m, zeta, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_stored_once(self):
        s = sparse_sign_new(d=25, m=40, zeta=6, rng_seed=2)
        assert not any(isinstance(v, np.ndarray) for v in vars(s).values())
        rows, signs = rows_and_signs(s)
        assert np.shares_memory(rows, s.matrix.indices)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.matrix = None
        np.testing.assert_array_equal(signs * s.scale, s.matrix.data.reshape(40, 6))

    @pytest.mark.parametrize(
        "d,m,zeta,seed",
        [(10, 300, 9, 0), (7, 200, 7, 1), (4, 3, 4, 2), (1, 5, 1, 3), (50, 400, 3, 4),
         (400, 20000, 8, 5)],
    )
    def test_matches_reference_construction(self, d, m, zeta, seed):
        s = sparse_sign_new(d, m, zeta, seed)
        data, indices, indptr = _sparse_sign_reference(d, m, zeta, seed)
        assert np.array_equal(s.matrix.data, data)
        assert np.array_equal(s.matrix.indices, indices)
        assert np.array_equal(s.matrix.indptr, indptr)

    def test_build_peak_memory(self):
        # S keeps 19.1 MiB at this size; building it with a float64 sign
        # array and its scaled copy alive at once peaked at 45 MiB
        tracemalloc.start()
        try:
            s = sparse_sign_new(3000, 200_000, 8, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.matrix.nnz == 1_600_000
        assert peak < 40 * 2**20

    def test_monte_carlo_isotropy(self):
        # Entrywise average of S'S over 500 seeds approximates the identity.
        d, m, zeta = 40, 200, 8
        acc = np.zeros((m, m))
        for seed in range(500):
            dense = densify(sparse_sign_new(d, m, zeta, seed))
            acc += dense.T @ dense
        acc /= 500
        assert np.max(np.abs(acc - np.eye(m))) <= 0.1


class TestApply:
    def test_apply_dense_zero(self):
        s = sparse_sign_new(10, 20, 3, 0)
        assert np.all(s.apply_dense(np.zeros((20, 4))) == 0)

    def test_apply_dense_basis_column(self):
        s = sparse_sign_new(30, 50, 3, 1)
        e3 = np.zeros((50, 1))
        e3[3, 0] = 1.0
        np.testing.assert_array_equal(s.apply_dense(e3)[:, 0], densify(s)[:, 3])

    def test_apply_dense_matches_materialized(self):
        s = sparse_sign_new(30, 50, 3, 2)
        a = np.random.default_rng(3).standard_normal((50, 5))
        np.testing.assert_allclose(s.apply_dense(a), densify(s) @ a, atol=1e-15)

    def test_apply_vec(self):
        s = sparse_sign_new(15, 25, 4, 4)
        assert np.all(s.apply_dense(np.zeros(25)) == 0)
        e7 = np.zeros(25)
        e7[7] = 1.0
        np.testing.assert_array_equal(s.apply_dense(e7), densify(s)[:, 7])

    def test_apply_sparse_matches_densified(self):
        s = sparse_sign_new(20, 40, 3, 5)
        rng = np.random.default_rng(6)
        a = sp.random(40, 6, density=0.2, random_state=rng, format="csr")
        np.testing.assert_allclose(
            s.apply_sparse(a), s.apply_dense(np.asarray(a.todense())), atol=1e-15
        )

    def test_dimension_mismatch(self):
        s = sparse_sign_new(10, 20, 3, 0)
        with pytest.raises(ValueError):
            s.apply_dense(np.ones((21, 2)))

    def test_right_multiplication_associativity(self):
        s = sparse_sign_new(25, 60, 4, 8)
        rng = np.random.default_rng(9)
        a = rng.standard_normal((60, 5))
        c = rng.standard_normal((5, 3))
        lhs = s.apply_dense(a @ c)
        rhs = s.apply_dense(a) @ c
        assert np.linalg.norm(lhs - rhs) <= 1e-14 * max(1.0, np.linalg.norm(rhs))


class _IdentityEmbedding:
    """Exact isometry test double."""

    def apply_dense(self, a):
        return a


class TestMeasureDistortion:
    def test_exact_isometry(self):
        q = householder_qr_econ(np.random.default_rng(0).standard_normal((10, 3))).q
        rep = measure_distortion(_IdentityEmbedding(), q)
        assert rep.epsilon <= 1e-14
        assert rep.epsilon >= 0.0

    def test_nonorthonormal_basis_rejected(self):
        s = sparse_sign_new(10, 6, 3, 0)
        with pytest.raises(ValueError):
            measure_distortion(s, np.ones((6, 2)))

    def test_epsilon_definition(self):
        s = sparse_sign_new(50, 120, 8, 3)
        q = householder_qr_econ(np.random.default_rng(4).standard_normal((120, 5))).q
        rep = measure_distortion(s, q)
        assert rep.epsilon == max(rep.sigma_max - 1.0, 1.0 - rep.sigma_min)
        assert rep.epsilon >= 0.0

    def test_monte_carlo_distortion_below_029(self):
        # d = 20k with k = 25 keeps distortion under the divergence threshold
        # for the vast majority of draws.
        k, d, m = 25, 500, 2000
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            q = householder_qr_econ(rng.standard_normal((m, k))).q
            s = sparse_sign_new(d, m, 8, seed)
            hits += measure_distortion(s, q).epsilon < 0.29
        assert hits >= 95


class TestFact23Chain:
    def test_singular_value_bounds_through_sketch(self):
        m, n = 1000, 20
        a = np.random.default_rng(0).standard_normal((m, n))
        s = sparse_sign_new(400, m, 8, 1)
        q = householder_qr_econ(a).q
        eps = measure_distortion(s, q).epsilon
        r = householder_qr_econ(s.apply_dense(a)).r
        sv_a, sv_r = svd_values(a), svd_values(r)
        assert sv_r[0] <= (1 + eps) * sv_a[0] * (1 + 1e-10)
        assert sv_r[-1] >= (1 - eps) * sv_a[-1] * (1 - 1e-10)
        precond = np.linalg.solve(r.T, a.T).T
        sv_p = svd_values(precond)
        assert sv_p[0] <= 1 / (1 - eps) * (1 + 1e-8)
        assert sv_p[-1] >= 1 / (1 + eps) * (1 - 1e-8)


class TestGaussianEmbedding:
    def test_distortion_reasonable(self):
        g = _DenseGaussian(d=600, m=300, seed=0)
        q = householder_qr_econ(np.random.default_rng(1).standard_normal((300, 10))).q
        assert measure_distortion(g, q).epsilon < 0.5


class TestChooseDim:
    def test_floor_dominates_at_m_equals_n(self):
        assert choose_dim(50, 50, 1e-16, "basic") == 20 * 50
        assert choose_dim(50, 50, 1e-16, "momentum") == 4 * 50

    def test_basic_small_ratio_hits_floor(self):
        m, n, u = 100, 50, 1e-16
        arg = (6 - 4 * math.sqrt(2)) * (m / n**2) * math.log(1 / u)
        formula = math.ceil((6 + 4 * math.sqrt(2)) * n * math.exp(lambert_w0(arg)))
        assert formula < 20 * n
        assert choose_dim(m, n, u, "basic") == 20 * n

    def test_matches_direct_evaluation_when_above_floor(self):
        m, n, u = 500_000, 50, 1e-16
        arg = (6 - 4 * math.sqrt(2)) * (m / n**2) * math.log(1 / u)
        formula = math.ceil((6 + 4 * math.sqrt(2)) * n * math.exp(lambert_w0(arg)))
        assert choose_dim(m, n, u, "basic") == max(formula, 20 * n)

    @pytest.mark.parametrize("variant", ["basic", "damped", "momentum"])
    def test_monotone_in_m(self, variant):
        n, u = 50, 1e-16
        vals = [choose_dim(k * n, n, u, variant) for k in range(1, 101)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_damped_momentum_floors(self):
        assert choose_dim(40, 10, 1e-16, "damped") >= 40
        assert choose_dim(40, 10, 1e-16, "momentum") >= 40

    def test_errors(self):
        with pytest.raises(ValueError):
            choose_dim(10, 20, 1e-16)
        with pytest.raises(ValueError):
            choose_dim(100, 10, 2.0)
        with pytest.raises(ValueError):
            choose_dim(100, 10, 1e-16, "other")


def test_default_distortion():
    assert default_distortion(50, 1000) == pytest.approx(math.sqrt(0.05))
