"""Unit tests for subspace embeddings."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import lambertw

from itsketch import SolverConfig, embed, gen_sparse, iterative_sketching, sketch_and_precondition
from itsketch.embed import (
    COLUMN_BLOCK,
    SparseSignEmbedding,
    choose_dim,
    measure_distortion,
)
from itsketch.linalg import svd_values
from peak import peak_bytes
from reference import householder_qr_econ, osnap_sparse_sign, sparse_sign_apply

MIB = 2**20


def densify(s):
    """S as a dense d x m matrix, applied to a sparse identity (exact: each
    entry of the product is one entry of S)."""
    return s.apply(sp.identity(s.m, format="csr"))


def rows_and_signs(s):
    """(m, zeta) row indices, ascending per column, and +-1 signs of S."""
    dense = densify(s).T
    rows = np.nonzero(dense)[1].reshape(s.m, s.zeta)
    return rows, np.sign(np.take_along_axis(dense, rows, axis=1))


class _DenseGaussian:
    """Dense embedding with iid N(0, 1/d) entries."""

    def __init__(self, d, m, seed):
        self.mat = np.random.default_rng(seed).standard_normal((d, m)) / math.sqrt(d)

    def apply(self, a):
        return self.mat @ a


class TestSparseSignNew:
    def test_zeta_equals_d_forces_all_rows(self):
        s = SparseSignEmbedding(d=4, m=3, zeta=4, rng_seed=0)
        dense = densify(s)
        assert np.all(np.abs(dense) == 0.5)
        rows, _ = rows_and_signs(s)
        for j in range(3):
            assert sorted(rows[j]) == [0, 1, 2, 3]

    def test_column_norms_unit(self):
        s = SparseSignEmbedding(d=30, m=50, zeta=5, rng_seed=1)
        norms = np.linalg.norm(densify(s), axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=2 * 2.0**-53)

    def test_structure_invariants(self):
        s = SparseSignEmbedding(d=25, m=40, zeta=6, rng_seed=2)
        rows, signs = rows_and_signs(s)
        assert rows.shape == signs.shape == (40, 6)
        for j in range(40):
            assert len(set(rows[j])) == 6
        assert np.all(np.abs(signs) == 1.0)
        assert s.scale == pytest.approx(1 / math.sqrt(6))

    @pytest.mark.parametrize("d,zeta", [(1003, 8), (3000, 8), (25, 6), (10, 9), (7, 7)])
    def test_one_row_in_each_block(self, d, zeta):
        # blocks of floor(d/zeta) and ceil(d/zeta) rows, starting at (k*d)//zeta
        s = SparseSignEmbedding(d, 300, zeta, 4)
        rows, _ = rows_and_signs(s)
        starts = (np.arange(zeta + 1) * d) // zeta
        assert set(np.diff(starts)) <= {d // zeta, -(-d // zeta)}
        for k in range(zeta):
            assert np.all((starts[k] <= rows[:, k]) & (rows[:, k] < starts[k + 1]))

    def test_zeta_larger_than_d_rejected(self):
        with pytest.raises(ValueError):
            SparseSignEmbedding(d=3, m=5, zeta=4, rng_seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SparseSignEmbedding(d=10, m=5, zeta=4, rng_seed=-1)

    @pytest.mark.parametrize("name, value", [
        ("d", 20.0), ("m", 200.0), ("zeta", 4.0), ("rng_seed", 1.5), ("zeta", True), ("rng_seed", False),
    ])
    def test_non_integer_argument_rejected(self, name, value):
        args = {"d": 20, "m": 200, "zeta": 4, "rng_seed": 0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}"):
            SparseSignEmbedding(**args)

    @pytest.mark.parametrize("name, value, message", [
        ("d", 20.0, "d must be an integer, got 20.0"), ("m", 200.0, "m must be an integer, got 200.0"),
        ("zeta", True, "zeta must be an integer, got True"),
        ("rng_seed", 1.5, "rng_seed must be an integer, got 1.5"),
        ("d", 0, "d and m must be >= 1"), ("m", 0, "d and m must be >= 1"),
        ("d", 3, "need 1 <= zeta <= d, got zeta=4, d=3"), ("zeta", 0, "need 1 <= zeta <= d, got zeta=0, d=20"),
        ("zeta", 21, "need 1 <= zeta <= d, got zeta=21, d=20"), ("rng_seed", -1, "rng_seed must be >= 0, got -1"),
    ])
    def test_bad_count_refused_where_built(self, name, value, message):
        # by the constructor and by dataclasses.replace alike, before
        # anything is drawn
        args = {"d": 20, "m": 200, "zeta": 4, "rng_seed": 0}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SparseSignEmbedding(**{**args, name: value})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(SparseSignEmbedding(**args), **{name: value})

    def test_scale_derived_from_zeta(self):
        # every entry is +-1/sqrt(zeta); scale is neither set nor settable
        for zeta in (1, 2, 3, 6, 8):
            s = SparseSignEmbedding(10, 20, zeta, 0)
            assert s.scale == 1.0 / math.sqrt(s.zeta)
        with pytest.raises(TypeError):
            SparseSignEmbedding(d=10, m=20, zeta=2, scale=3.0, rng_seed=0)
        with pytest.raises(AttributeError):
            s.scale = 3.0

    def test_deterministic(self):
        s1 = SparseSignEmbedding(20, 30, 4, rng_seed=7)
        s2 = SparseSignEmbedding(20, 30, 4, rng_seed=7)
        (rows1, signs1), (rows2, signs2) = rows_and_signs(s1), rows_and_signs(s2)
        assert np.array_equal(rows1, rows2) and np.array_equal(signs1, signs2)

    def test_holds_no_array(self):
        s = SparseSignEmbedding(d=25, m=40, zeta=6, rng_seed=2)
        assert not any(isinstance(v, np.ndarray) or sp.issparse(v) for v in vars(s).values())
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.rng_seed = 3

    @pytest.mark.parametrize(
        "d,m,zeta,seed",
        [(10, 300, 9, 0), (7, 200, 7, 1), (4, 3, 4, 2), (1, 5, 1, 3), (50, 400, 3, 4),
         (400, 20000, 8, 5)],
    )
    def test_matches_reference_construction(self, d, m, zeta, seed):
        s = SparseSignEmbedding(d, m, zeta, seed)
        ref = osnap_sparse_sign(d, m, zeta, seed, COLUMN_BLOCK)
        assert np.array_equal(densify(s), ref)
        if m <= 400:
            assert np.array_equal(s.apply(np.eye(m)), ref)

    def test_prefix_property(self):
        # the first m columns of S do not depend on m, across column blocks
        m_long = 3 * COLUMN_BLOCK + 100
        long = densify(SparseSignEmbedding(40, m_long, 8, 9))
        for m in (1, COLUMN_BLOCK - 1, COLUMN_BLOCK, COLUMN_BLOCK + 1, 2 * COLUMN_BLOCK + 5):
            assert np.array_equal(densify(SparseSignEmbedding(40, m, 8, 9)), long[:, :m])

    def test_monte_carlo_isotropy(self):
        # Entrywise average of S'S over 500 seeds approximates the identity.
        d, m, zeta = 40, 200, 8
        acc = np.zeros((m, m))
        for seed in range(500):
            dense = densify(SparseSignEmbedding(d, m, zeta, seed))
            acc += dense.T @ dense
        acc /= 500
        assert np.max(np.abs(acc - np.eye(m))) <= 0.1


class TestStreamedPeakMemory:
    # A whole solve never holds S, which at d=3000, m=2e5 and zeta=8 takes
    # 19.1 MiB as a CSC matrix. It holds [SA | Sb] (3000 x 101, 2.31 MiB),
    # which is factored where it was built, the partial product of one group
    # of S's row blocks (three of the eight for a dense A, one for a sparse
    # A), and two m-vectors while it iterates.
    cfg = SolverConfig(d=3000, variant="basic", max_iters=100)

    @staticmethod
    def _dense():
        rng = np.random.default_rng(0)
        return rng.standard_normal((100_000, 100)), rng.standard_normal(100_000)

    def test_sparse_solve(self):
        p = gen_sparse(200_000, 100, 0)
        assert peak_bytes(iterative_sketching, p.a, p.b, self.cfg)[1] < 4.5 * MIB

    def test_dense_solve(self):
        assert peak_bytes(iterative_sketching, *self._dense(), self.cfg)[1] < 4.5 * MIB

    def test_dense_sketch_and_precondition(self):
        assert peak_bytes(sketch_and_precondition, *self._dense(), self.cfg)[1] < 4.5 * MIB


class TestApply:
    def test_apply_dense_zero(self):
        s = SparseSignEmbedding(10, 20, 3, 0)
        assert np.all(s.apply(np.zeros((20, 4))) == 0)

    def test_apply_dense_basis_column(self):
        s = SparseSignEmbedding(30, 50, 3, 1)
        e3 = np.zeros((50, 1))
        e3[3, 0] = 1.0
        np.testing.assert_array_equal(s.apply(e3)[:, 0], densify(s)[:, 3])

    def test_apply_dense_matches_materialized(self):
        s = SparseSignEmbedding(30, 50, 3, 2)
        a = np.random.default_rng(3).standard_normal((50, 5))
        np.testing.assert_allclose(s.apply(a), densify(s) @ a, atol=1e-15)

    def test_apply_vec(self):
        s = SparseSignEmbedding(15, 25, 4, 4)
        assert np.all(s.apply(np.zeros(25)) == 0)
        e7 = np.zeros(25)
        e7[7] = 1.0
        np.testing.assert_array_equal(s.apply(e7), densify(s)[:, 7])

    def test_apply_sparse_matches_densified(self):
        s = SparseSignEmbedding(20, 40, 3, 5)
        rng = np.random.default_rng(6)
        a = sp.random(40, 6, density=0.2, random_state=rng, format="csr")
        np.testing.assert_allclose(
            s.apply(a), s.apply(np.asarray(a.todense())), atol=1e-15
        )

    @pytest.mark.parametrize("m", [300, 2 * COLUMN_BLOCK + 300])
    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_sketch_with_rhs_matches_densified(self, fmt, m):
        # [SA | Sb] in one streamed pass, against S densified (s.apply(I) for
        # one column block; the reference builder across several, where I
        # would not fit) times [A | b]
        n = 6
        rng = np.random.default_rng(7)
        a = sp.random(m, n, density=0.3, random_state=rng, format="csr")
        b = rng.standard_normal(m)
        s = SparseSignEmbedding(64, m, 8, 11)
        dense_s = s.apply(np.eye(m)) if m <= COLUMN_BLOCK else osnap_sparse_sign(
            64, m, 8, 11, COLUMN_BLOCK)
        ref = dense_s @ np.column_stack([a.toarray(), b])
        sab = s.apply(a if fmt == "csr" else a.toarray(), b)
        assert sab.shape == (64, n + 1)
        np.testing.assert_allclose(sab, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_sparse_path_equals_dense_path_on_gen_sparse(self):
        # +-1 entries and sums taken in the same column order: bitwise equal
        p = gen_sparse(3 * COLUMN_BLOCK + 7, 10, 2)
        s = SparseSignEmbedding(1003, p.a.shape[0], 8, 3)
        assert np.array_equal(s.apply(p.a, p.b), s.apply(p.a.toarray(), p.b))
        assert np.array_equal(s.apply(p.a), s.apply(p.a.toarray()))

    @pytest.mark.parametrize("with_b", [False, True])
    @pytest.mark.parametrize("sparse_a", [False, True])
    def test_each_column_block_drawn_once_per_call(self, sparse_a, with_b, monkeypatch):
        # apply draws block j from default_rng([rng_seed, j]) and hands the
        # draw to the kernel, which draws none of its own, whatever the
        # number of row-block groups (three here for a dense A)
        rng = np.random.default_rng(0)
        m = 2 * COLUMN_BLOCK + 5
        a = sp.random(m, 6, density=0.3, random_state=rng, format="csr")
        args = (a if sparse_a else a.toarray(),) + ((rng.standard_normal(m),) if with_b else ())
        seeds, default_rng = [], np.random.default_rng

        def counted(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(embed, "GROUP_ENTRIES", 250)
        monkeypatch.setattr(np.random, "default_rng", counted)
        s = SparseSignEmbedding(101, m, 8, 13)
        for calls in (1, 2):
            s.apply(*args)
            assert seeds == [[13, 0], [13, 1], [13, 2]] * calls

    def test_csc_and_coo_solve_as_csr(self):
        # any sparse format other than CSR is converted to CSR before the sketch
        p = gen_sparse(20000, 20, 0)
        cfg = SolverConfig(d=200)
        want = iterative_sketching(p.a.tocsr(), p.b, cfg)
        for a in (p.a.tocsc(), p.a.tocoo()):
            got = iterative_sketching(a, p.b, cfg)
            assert np.array_equal(got.solution, want.solution)
            assert got.trace.residual_changes == want.trace.residual_changes

    # GROUP_ENTRIES 1 and 250 make a dense A's groups one and three row
    # blocks of S (13 rows x 6 columns each at zeta = 8), 2**17 one group
    @pytest.mark.parametrize("group_entries", [1, 250, 2**17])
    @pytest.mark.parametrize("m", [COLUMN_BLOCK - 1, 2 * COLUMN_BLOCK + 5])
    @pytest.mark.parametrize("zeta", [1, 3, 8])
    def test_bits_equal_row_major_reference(self, zeta, m, group_entries, monkeypatch):
        # a few of S's row blocks at a time, into a column-major array: every
        # entry is the sum the reference forms, in the same order; d % zeta != 0
        # for zeta > 1, and signed zeros must survive as they do there
        monkeypatch.setattr(embed, "GROUP_ENTRIES", group_entries)
        rng = np.random.default_rng(zeta + m)
        a = rng.standard_normal((m, 6))
        a[::7, 2] = -0.0
        b = rng.standard_normal(m)
        csr = sp.random(m, 6, density=0.3, random_state=rng, format="csr")
        s = SparseSignEmbedding(101, m, zeta, 13)
        for args in ((a,), (a, b), (np.asfortranarray(a), b), (csr,), (csr, b), (b,)):
            got, want = s.apply(*args), sparse_sign_apply(s, *args, column_block=COLUMN_BLOCK)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.flags.f_contiguous
        # a list is read as its array
        assert s.apply(a.tolist(), b.tolist()).tobytes() == s.apply(a, b).tobytes()

    def test_dimension_mismatch(self):
        s = SparseSignEmbedding(10, 20, 3, 0)
        with pytest.raises(ValueError):
            s.apply(np.ones((21, 2)))
        with pytest.raises(ValueError):
            s.apply(np.ones((20, 2)), np.ones(21))

    @pytest.mark.parametrize("args, message", [
        ((np.ones(20), np.ones(20)), "A must be a matrix, got shape (20,)"),
        ((np.array(1.0),), "A must be a matrix, got shape ()"),
        ((np.ones((20, 2, 2)),), "A must be a matrix, got shape (20, 2, 2)"),
        (([1.0] * 20, [1.0] * 20), "A must be a matrix, got shape (20,)"),
        (([[[1.0] * 2] * 2] * 20,), "A must be a matrix, got shape (20, 2, 2)"),
        (([[1.0, 2.0]] * 19 + [[1.0]],), "A must be a numeric array: setting an array element"),
    ], ids=["vector-with-b", "0-d", "3-d", "vector-with-b-list", "3-d-list", "ragged-list"])
    def test_input_of_wrong_rank(self, args, message):
        # a list is read as its array and refused by that array's shape; a
        # ragged one, which makes no array, by name with NumPy's reason
        s = SparseSignEmbedding(10, 20, 3, 0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            s.apply(*args)

    @pytest.mark.parametrize("args, name", [
        ((np.ones((20, 2)) * (1 + 1j),), "A"),
        ((sp.csr_matrix(np.ones((20, 2)) * (1 + 1j)),), "A"),
        ((np.ones(20) * 1j,), "A"),
        ((np.ones((20, 2)), np.ones(20) * (1 + 1j)), "b"),
        ((np.ones((20, 2)).tolist(), (np.ones(20) * 1j).tolist()), "b"),
    ], ids=["dense", "csr", "vector", "b", "b-list"])
    def test_complex_input_refused(self, args, name):
        # a cast to float would sketch the real part alone
        s = SparseSignEmbedding(10, 20, 3, 0)
        with pytest.raises(ValueError, match=f"^{name} must be real, not complex"):
            s.apply(*args)

    def test_right_multiplication_associativity(self):
        s = SparseSignEmbedding(25, 60, 4, 8)
        rng = np.random.default_rng(9)
        a = rng.standard_normal((60, 5))
        c = rng.standard_normal((5, 3))
        lhs = s.apply(a @ c)
        rhs = s.apply(a) @ c
        assert np.linalg.norm(lhs - rhs) <= 1e-14 * max(1.0, np.linalg.norm(rhs))


class _IdentityEmbedding:
    """Exact isometry test double."""

    def apply(self, a):
        return a


class TestMeasureDistortion:
    def test_exact_isometry(self):
        q = householder_qr_econ(np.random.default_rng(0).standard_normal((10, 3))).q
        rep = measure_distortion(_IdentityEmbedding(), q)
        assert rep.epsilon <= 1e-14
        assert rep.epsilon >= 0.0

    def test_nonorthonormal_basis_rejected(self):
        s = SparseSignEmbedding(10, 6, 3, 0)
        with pytest.raises(ValueError):
            measure_distortion(s, np.ones((6, 2)))

    def test_vector_basis_rejected(self):
        s = SparseSignEmbedding(10, 6, 3, 0)
        with pytest.raises(ValueError, match=r"^basis_q must be a matrix, got shape \(6,\)"):
            measure_distortion(s, np.ones(6) / math.sqrt(6))

    def test_complex_basis_rejected(self):
        # the real part of this basis is orthonormal, and would be measured
        s = SparseSignEmbedding(10, 6, 3, 0)
        with pytest.raises(ValueError, match=r"^basis_q must be real, not complex"):
            measure_distortion(s, np.eye(6)[:, :2] * (1 + 1j))

    def test_epsilon_definition(self):
        s = SparseSignEmbedding(50, 120, 8, 3)
        q = householder_qr_econ(np.random.default_rng(4).standard_normal((120, 5))).q
        rep = measure_distortion(s, q)
        assert rep.epsilon == max(rep.sigma_max - 1.0, 1.0 - rep.sigma_min)
        assert rep.epsilon >= 0.0

    def test_basis_wider_than_sketch(self):
        # 7 rows of S leave a vector of an 8-dimensional span mapped to 0
        q = householder_qr_econ(np.random.default_rng(1).standard_normal((2000, 8))).q
        rep = measure_distortion(SparseSignEmbedding(7, 2000, 7, 133), q)
        assert rep.sigma_min == 0.0
        assert rep.epsilon >= 1.0

    def test_monte_carlo_distortion_below_029(self):
        # d = 20k with k = 25 keeps distortion under the divergence threshold
        # for the vast majority of draws.
        k, d, m = 25, 500, 2000
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            q = householder_qr_econ(rng.standard_normal((m, k))).q
            s = SparseSignEmbedding(d, m, 8, seed)
            hits += measure_distortion(s, q).epsilon < 0.29
        assert hits >= 95


class TestFact23Chain:
    def test_singular_value_bounds_through_sketch(self):
        m, n = 1000, 20
        a = np.random.default_rng(0).standard_normal((m, n))
        s = SparseSignEmbedding(400, m, 8, 1)
        q = householder_qr_econ(a).q
        eps = measure_distortion(s, q).epsilon
        r = householder_qr_econ(s.apply(a)).r
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
        formula = math.ceil((6 + 4 * math.sqrt(2)) * n * math.exp(lambertw(arg).real))
        assert formula < 20 * n
        assert choose_dim(m, n, u, "basic") == 20 * n

    def test_matches_direct_evaluation_when_above_floor(self):
        m, n, u = 500_000, 50, 1e-16
        arg = (6 - 4 * math.sqrt(2)) * (m / n**2) * math.log(1 / u)
        formula = math.ceil((6 + 4 * math.sqrt(2)) * n * math.exp(lambertw(arg).real))
        assert choose_dim(m, n, u, "basic") == max(formula, 20 * n)

    # d for (basic, damped, momentum); the formula tests take W from the same
    # scipy.special.lambertw as choose_dim, so only these check d itself
    @pytest.mark.parametrize("m,n,u,dims", [
        (4000, 50, 1e-16, (5328, 3356, 2903)),
        (100_000, 100, 2.0**-53, (41214, 29439, 26361)),
        (200_000, 100, 2.0**-53, (71417, 52722, 47659)),
    ])
    def test_pinned_values(self, m, n, u, dims):
        assert tuple(choose_dim(m, n, u, v) for v in ("basic", "damped", "momentum")) == dims

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
            choose_dim(10, 20, 1e-16, "basic")
        with pytest.raises(ValueError):
            choose_dim(100, 10, 2.0, "basic")
        with pytest.raises(ValueError):
            choose_dim(100, 10, 1e-16, "other")
