"""Unit tests for the dense linear-algebra kernels."""

import sys
import threading

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from blas_threads import probe_outputs
from itsketch import linalg
from itsketch.linalg import (
    SingularMatrixError,
    _thin_qr,
    qr_solve,
    svd_values,
    tri_solve_upper,
    tri_solve_upper_transpose,
)
from itsketch.solvers import _norm
from peak import peak_bytes
from reference import QrFactors, householder_qr_econ

U = 2.0**-53


class TestHouseholderQrEcon:
    def test_identity(self):
        qr = householder_qr_econ(np.eye(5))
        np.testing.assert_array_equal(qr.q, np.eye(5))
        np.testing.assert_array_equal(qr.r, np.eye(5))

    def test_single_column_3_4(self):
        qr = householder_qr_econ(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(qr.r, [[5.0]], rtol=1e-15)
        np.testing.assert_allclose(qr.q, [[0.6], [0.8]], rtol=1e-15)

    def test_random_20x5_reconstruction(self):
        a = np.random.default_rng(0).standard_normal((20, 5))
        qr = householder_qr_econ(a)
        assert np.linalg.norm(qr.q @ qr.r - a) / np.linalg.norm(a) <= 1e-14
        assert np.linalg.norm(qr.q.T @ qr.q - np.eye(5)) <= 1e-14

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            householder_qr_econ(np.ones((3, 5)))

    @pytest.mark.parametrize("m,n,seed", [(10, 3, 1), (50, 20, 2), (200, 40, 3)])
    def test_reconstruction_invariant(self, m, n, seed):
        a = np.random.default_rng(seed).standard_normal((m, n))
        qr = householder_qr_econ(a)
        assert np.linalg.norm(qr.q @ qr.r - a) <= 100 * m * n * U * np.linalg.norm(a)
        assert np.linalg.norm(qr.q.T @ qr.q - np.eye(n)) <= 100 * n * U

    def test_nonnegative_diagonal_and_triangular(self):
        a = np.random.default_rng(7).standard_normal((12, 6))
        qr = householder_qr_econ(-a)
        assert np.all(np.diag(qr.r) >= 0)
        assert np.array_equal(qr.r, np.triu(qr.r))

    def test_bitwise_reproducible(self):
        a = np.random.default_rng(9).standard_normal((15, 4))
        q1, q2 = householder_qr_econ(a), householder_qr_econ(a)
        assert np.array_equal(q1.q, q2.q) and np.array_equal(q1.r, q2.r)


class TestQrSolve:
    def test_nonnegative_diagonal_on_sign_flipped_input(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((12, 6)), rng.standard_normal(12)
        x, r = qr_solve(-a, b)
        assert np.all(np.diag(r) >= 0)
        assert np.array_equal(r, np.triu(r))
        x_ref, _ = qr_solve(a, b)
        np.testing.assert_allclose(x, -x_ref, rtol=1e-12)

    @pytest.mark.parametrize("m,n,seed", [(10, 3, 1), (50, 20, 2), (200, 40, 3)])
    def test_r_matches_householder_qr_econ(self, m, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((m, n)), rng.standard_normal(m)
        ref = householder_qr_econ(a).r
        _, r = qr_solve(a, b)
        assert np.abs(r - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_matches_q_formed_solve(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((300, 15)), rng.standard_normal(300)
        qr = householder_qr_econ(a)
        x_ref = tri_solve_upper(qr.r, qr.q.T @ b)
        x, _ = qr_solve(a, b)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_square_system(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        b = rng.standard_normal(6)
        x, _ = qr_solve(a, b)
        np.testing.assert_allclose(a @ x, b, rtol=1e-12, atol=1e-12)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            qr_solve(np.ones((3, 5)), np.ones(3))
        with pytest.raises(ValueError):
            qr_solve(np.ones(3), np.ones(3))
        a = np.random.default_rng(13).standard_normal((30, 4))
        with pytest.raises(ValueError, match=r"^b must be a vector of length m=30"):
            qr_solve(a, np.ones((30, 2)))
        with pytest.raises(ValueError, match=r"^b must be a vector of length m=30"):
            qr_solve(a, np.ones(29))

    def test_complex_input_rejected(self):
        # a cast to float would drop the imaginary part and solve the real one
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal((30, 4)), rng.standard_normal(30)
        with pytest.raises(ValueError, match="^A must be real"):
            qr_solve(a + 1j, b)
        with pytest.raises(ValueError, match="^b must be real"):
            qr_solve(a, b.astype(complex))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_])
    def test_real_input_solved_as_float(self, dtype):
        a = np.random.default_rng(15).integers(0, 2, (30, 4)).astype(dtype)
        b = np.arange(30)
        x, r = qr_solve(a, b)
        x_ref, r_ref = qr_solve(a.astype(float), b.astype(float))
        assert np.array_equal(x, x_ref) and np.array_equal(r, r_ref)

    @pytest.mark.parametrize("m,n", [(40, 40), (400, 20), (1000, 50), (3000, 100), (1000, 128)])
    def test_bits_equal_gufunc_route(self, m, n):
        # the route qr_solve took before it shared the thin QR's kernel: the
        # gufunc QR of [a | b] on one thread, the same sign fix and dtrtrs
        rng = np.random.default_rng(m + n)
        a, b = rng.standard_normal((m, n)), rng.standard_normal(m)
        with linalg._one_thread_lock, linalg._one_blas_thread():
            r_aug = np.linalg.qr(np.column_stack([a, b]), mode="r")
        signs = np.sign(np.diag(r_aug)[:n])
        signs[signs == 0] = 1.0
        r_ref = signs[:, None] * r_aug[:n, :n]
        x_ref = solve_triangular(r_ref, signs * r_aug[:n, n])
        x, r = qr_solve(a, b)
        assert np.array_equal(x, x_ref) and np.array_equal(r, r_ref)

    def test_joined_input_read_in_place(self):
        # the sketch-and-solve step holds [SA | Sb] as one array; its QR
        # makes LAPACK's working copy and no other
        ab = np.random.default_rng(11).standard_normal((3000, 101))
        (x, r), peak = peak_bytes(qr_solve, ab[:, :-1], ab[:, -1])
        assert peak <= 1.1 * ab.nbytes
        x_ref, r_ref = qr_solve(ab[:, :-1], ab[:, -1])
        assert np.array_equal(x, x_ref) and np.array_equal(r, r_ref)

    def test_bits_equal_across_blas_threads_above_128_columns(self):
        # from 128 columns on dgeqrf takes its blocked path, whose threaded
        # updates would change R's bits with the OpenBLAS thread count
        probe = (
            "import hashlib, numpy as np\n"
            "from itsketch.linalg import qr_solve\n"
            "rng = np.random.default_rng(0)\n"
            "for m, n in ((1000, 129), (3000, 101)):\n"
            "    x, r = qr_solve(rng.standard_normal((m, n)), rng.standard_normal(m))\n"
            "    print(hashlib.sha256(x.tobytes() + r.tobytes()).hexdigest())\n"
        )
        outs = probe_outputs(probe)
        assert outs[0] == outs[1]


class TestThinQr:
    @pytest.mark.parametrize("m,n", [(2000, 20), (4000, 50), (20000, 60)])
    def test_bits_equal_numpy_reduced_qr(self, m, n):
        a = np.random.default_rng(m + n).standard_normal((m, n))
        q_ref, r_ref = np.linalg.qr(a, mode="reduced")
        q, r = _thin_qr(a)
        assert np.array_equal(q, q_ref) and np.array_equal(r, r_ref)
        assert q.flags.c_contiguous

    def test_input_left_unchanged(self):
        a = np.asfortranarray(np.random.default_rng(1).standard_normal((50, 4)))
        before = a.copy()
        _thin_qr(a)
        assert np.array_equal(a, before)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="m >= n"):
            _thin_qr(np.ones((3, 5)))

    @pytest.mark.parametrize("name", ["_geqrf", "_orgqr"])
    def test_nonzero_info_raises(self, name, monkeypatch):
        fn = getattr(linalg, name)

        def bad_info(*args):
            return {**fn(*args), "info": -4}

        monkeypatch.setattr(linalg, name, bad_info)
        with pytest.raises(np.linalg.LinAlgError, match="info=-4"):
            _thin_qr(np.random.default_rng(2).standard_normal((30, 3)))


class TestOneBlasThread:
    ab = np.random.default_rng(12).standard_normal((200, 11))

    def test_qr_runs_on_one_thread(self, blas_threads, monkeypatch):
        seen = []
        geqrf = linalg._geqrf

        def spy(*args):
            seen.append(blas_threads())
            return geqrf(*args)

        monkeypatch.setattr(linalg, "_geqrf", spy)
        qr_solve(self.ab[:, :-1], self.ab[:, -1])
        assert seen == [1, 1]  # workspace query, then the factorization
        assert blas_threads() == 2

    def test_count_restored_when_qr_raises(self, blas_threads, monkeypatch):
        def fail(*args):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(linalg, "_geqrf", fail)
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            qr_solve(self.ab[:, :-1], self.ab[:, -1])
        assert blas_threads() == 2

    def test_count_restored_after_concurrent_solves(self, blas_threads):
        x_ref, r_ref = qr_solve(self.ab[:, :-1], self.ab[:, -1])
        mismatches = []

        def work():
            for _ in range(200):
                x, r = qr_solve(self.ab[:, :-1], self.ab[:, -1])
                if not (np.array_equal(x, x_ref) and np.array_equal(r, r_ref)):
                    mismatches.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert not mismatches
        assert blas_threads() == 2

    def test_same_bits_without_openblas(self, monkeypatch):
        x_ref, r_ref = qr_solve(self.ab[:, :-1], self.ab[:, -1])
        monkeypatch.setattr(linalg, "_get_threads", None)
        monkeypatch.setattr(linalg, "_set_threads", None)
        x, r = qr_solve(self.ab[:, :-1], self.ab[:, -1])
        assert np.array_equal(x, x_ref) and np.array_equal(r, r_ref)

    def test_thin_qr_runs_both_copies_on_one_thread(self, blas_threads, scipy_blas_threads,
                                                    monkeypatch):
        seen = []
        geqrf = linalg._geqrf

        def spy(*args):
            seen.append((blas_threads(), scipy_blas_threads()))
            return geqrf(*args)

        monkeypatch.setattr(linalg, "_geqrf", spy)
        _thin_qr(self.ab)
        assert seen == [(1, 1), (1, 1)]  # workspace query, then the factorization
        assert (blas_threads(), scipy_blas_threads()) == (2, 2)

    def test_thin_qr_above_the_limit_keeps_the_count(self, blas_threads, monkeypatch):
        seen = []
        geqrf = linalg._geqrf

        def spy(*args):
            seen.append(blas_threads())
            return geqrf(*args)

        monkeypatch.setattr(linalg, "_geqrf", spy)
        monkeypatch.setattr(linalg, "_THIN_QR_ONE_THREAD_MAX", self.ab.size - 1)
        _thin_qr(self.ab)
        assert seen == [2, 2]

    def test_scipy_count_restored_when_lapack_raises(self, scipy_blas_threads, monkeypatch):
        def fail(*args):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(linalg, "_orgqr", fail)
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            _thin_qr(self.ab)
        assert scipy_blas_threads() == 2

    def test_same_bits_without_scipy_openblas(self, monkeypatch):
        q_ref, r_ref = _thin_qr(self.ab)
        x_ref, rs_ref = qr_solve(self.ab[:, :-1], self.ab[:, -1])
        monkeypatch.setattr(linalg, "_scipy_get_threads", None)
        monkeypatch.setattr(linalg, "_scipy_set_threads", None)
        q, r = _thin_qr(self.ab)
        x, rs = qr_solve(self.ab[:, :-1], self.ab[:, -1])
        assert np.array_equal(q, q_ref) and np.array_equal(r, r_ref)
        assert np.array_equal(x, x_ref) and np.array_equal(rs, rs_ref)


class TestTriangularSolves:
    def test_identity(self):
        c = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(tri_solve_upper(np.eye(3), c), c)
        np.testing.assert_array_equal(tri_solve_upper_transpose(np.eye(3), c), c)

    def test_diagonal(self):
        r = np.diag([2.0, 4.0])
        np.testing.assert_allclose(tri_solve_upper(r, np.array([2.0, 4.0])), [1.0, 1.0])

    def test_transpose_2x2_hand_case(self):
        r = np.array([[1.0, 1.0], [0.0, 1.0]])
        y = tri_solve_upper_transpose(r, np.array([1.0, 2.0]))
        np.testing.assert_allclose(y, [1.0, 1.0], rtol=1e-15)

    def test_random_residual(self):
        rng = np.random.default_rng(4)
        r = np.triu(rng.standard_normal((10, 10))) + 5.0 * np.eye(10)
        c = rng.standard_normal(10)
        y = tri_solve_upper(r, c)
        assert np.linalg.norm(r @ y - c) / np.linalg.norm(c) <= 1e-13

    def test_composition_matches_dense_normal_equations(self):
        rng = np.random.default_rng(5)
        r = np.triu(rng.standard_normal((8, 8))) + 4.0 * np.eye(8)
        c = rng.standard_normal(8)
        y = tri_solve_upper(r, tri_solve_upper_transpose(r, c))
        y_dense = np.linalg.solve(r.T @ r, c)
        assert np.linalg.norm(y - y_dense) / np.linalg.norm(y_dense) <= 1e-12

    def test_residual_invariant_conditioned(self):
        rng = np.random.default_rng(6)
        for n in (5, 20, 50):
            r = np.triu(rng.standard_normal((n, n))) + (2.0 + n) * np.eye(n)
            sv = svd_values(r)
            kappa = sv[0] / sv[-1]
            assert kappa <= 1e8
            c = rng.standard_normal(n)
            y = tri_solve_upper(r, c)
            assert np.linalg.norm(r @ y - c) <= 100 * n * U * kappa * np.linalg.norm(c)

    def test_bits_of_solve_triangular_for_every_layout(self):
        # dtrtrs is called with solve_triangular's argument mapping, so each
        # layout of R gives solve_triangular's bits: C-contiguous (the QR's
        # R), F-contiguous (bad_matrix's cholesky(gram).T) and a strided view
        rng = np.random.default_rng(8)
        a = rng.standard_normal((300, 30))
        r_c = np.linalg.qr(a, mode="r")
        r_f = np.linalg.cholesky(a.T @ a).T
        r_view = np.linalg.qr(rng.standard_normal((300, 60)), mode="r")[::2, ::2]
        assert r_c.flags.c_contiguous and r_f.flags.f_contiguous
        assert not (r_view.flags.c_contiguous or r_view.flags.f_contiguous)
        c = rng.standard_normal(30)
        for r in (r_c, r_f, r_view):
            assert np.array_equal(tri_solve_upper(r, c), solve_triangular(r, c))
            assert np.array_equal(
                tri_solve_upper_transpose(r, c), solve_triangular(r, c, trans="T"))
        for solve in (tri_solve_upper, tri_solve_upper_transpose):
            with pytest.raises(ValueError, match="square"):
                solve(r_c[:, :29], c)
            with pytest.raises(ValueError, match="square"):
                solve(r_c, c[:29])
        # LSQR's norms take np.linalg.norm's bits, on m- and n-vectors
        for v in (a[:, 0], c, a @ c):
            assert _norm(v) == float(np.linalg.norm(v))

    def test_non_finite_input_propagates(self):
        r = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert np.isnan(tri_solve_upper(r, np.array([np.nan, 1.0]))).any()
        assert np.isinf(tri_solve_upper_transpose(r, np.array([np.inf, 1.0]))).any()

    def test_zero_diagonal_raises(self):
        r = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            tri_solve_upper(r, np.ones(2))
        with pytest.raises(SingularMatrixError):
            tri_solve_upper_transpose(r, np.ones(2))


class TestSvdValues:
    def test_diagonal(self):
        np.testing.assert_allclose(svd_values(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0])

    def test_orthonormal_columns(self):
        q = householder_qr_econ(np.random.default_rng(2).standard_normal((9, 4))).q
        np.testing.assert_allclose(svd_values(q), np.ones(4), atol=1e-13)

    def test_matches_gram_eigenvalues(self):
        a = np.random.default_rng(3).standard_normal((8, 3))
        sv = svd_values(a)
        gram_eigs = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        np.testing.assert_allclose(sv, np.sqrt(gram_eigs), rtol=1e-10)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((12, 5))
        ql = householder_qr_econ(rng.standard_normal((12, 12))).q
        qr_ = householder_qr_econ(rng.standard_normal((5, 5))).q
        sv = svd_values(a)
        for transformed in (ql @ a, a @ qr_, ql @ a @ qr_):
            np.testing.assert_allclose(svd_values(transformed), sv, rtol=1e-10)


def test_qrfactors_holds_factors():
    qr = QrFactors(q=np.eye(3), r=np.eye(3))
    assert qr.q.shape == qr.r.shape == (3, 3)
