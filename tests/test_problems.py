"""Unit tests for problem generation and CSV ingestion."""

import hashlib

import numpy as np
import pytest
import scipy.special
import scipy.sparse as sp

from blas_threads import probe_outputs
from itsketch.linalg import svd_values
from itsketch.problems import (
    CsvParseError,
    _haar_stiefel,
    gen_randsvd,
    gen_sparse,
    kernel_problem,
    load_csv,
    save_csv,
)


class TestGenRandsvd:
    def test_kappa_one_identity_spectrum(self):
        p = gen_randsvd(100, 10, 1.0, 0.1, 0)
        assert np.all(np.abs(svd_values(p.a) - 1.0) <= 1e-12)

    def test_beta_zero_consistent(self):
        p = gen_randsvd(100, 10, 1e3, 0.0, 1)
        assert np.array_equal(p.b, p.a @ p.truth.x)
        x_ls = np.linalg.lstsq(p.a, p.b, rcond=None)[0]
        assert np.linalg.norm(x_ls - p.truth.x) <= 1e-10 * np.linalg.norm(p.truth.x)

    def test_log_equispaced_spectrum(self):
        p = gen_randsvd(200, 10, 1e6, 0.1, 2)
        sv = svd_values(p.a)
        assert sv[0] == pytest.approx(1.0, rel=1e-9)
        assert sv[-1] == pytest.approx(1e-6, rel=1e-9)
        ratios = sv[1:] / sv[:-1]
        assert np.all(np.abs(ratios - ratios[0]) <= 1e-9)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            gen_randsvd(5, 5, 10.0, 0.1, 0)
        with pytest.raises(ValueError):
            gen_randsvd(10, 2, 0.5, 0.1, 0)
        with pytest.raises(ValueError):
            gen_randsvd(10, 2, 10.0, -0.1, 0)

    # NaN kappa gave an all-NaN A, inf kappa a rank-1 A, non-finite beta a non-finite b
    @pytest.mark.parametrize("kappa,beta,name", [
        (np.nan, 0.1, "kappa"), (np.inf, 0.1, "kappa"),
        (10.0, np.nan, "beta"), (10.0, np.inf, "beta"),
    ], ids=["kappa-nan", "kappa-inf", "beta-nan", "beta-inf"])
    def test_non_finite_parameter_rejected(self, kappa, beta, name):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number >= "):
            gen_randsvd(10, 2, kappa, beta, 0)

    @pytest.mark.parametrize("seed", range(100))
    def test_truth_invariants_100_seeds(self, seed):
        m, n, kappa, beta = 500, 20, 1e4, 1e-2
        p = gen_randsvd(m, n, kappa, beta, seed)
        t = p.truth
        assert abs(np.linalg.norm(t.x) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(t.r) - beta) <= 1e-12 * max(1.0, beta)
        norm_a = np.linalg.norm(p.a, 2)
        assert np.linalg.norm(p.a.T @ t.r) <= 1e-10 * norm_a * beta
        assert np.array_equal(p.b, p.a @ t.x + t.r)

    def test_deterministic(self):
        p1 = gen_randsvd(80, 8, 1e2, 1e-3, 7)
        p2 = gen_randsvd(80, 8, 1e2, 1e-3, 7)
        assert np.array_equal(p1.a, p2.a) and np.array_equal(p1.b, p2.b)

    def test_bits_equal_across_blas_threads(self):
        # sha256 of A, b, x and r. From 128 columns dgeqrf takes its blocked path,
        # whose threaded updates changed U1's bits with the OpenBLAS thread count;
        # the benchmark's `paper-dense` instance (workload seed 7) must not move
        probe = (
            "import hashlib\n"
            "from itsketch import gen_randsvd\n"
            "for args in ((1000, 129, 1e10, 1e-6, 0), (4000, 50, 1e10, 1e-6, 7)):\n"
            "    p = gen_randsvd(*args)\n"
            "    arrays = (p.a, p.b, p.truth.x, p.truth.r)\n"
            "    print(hashlib.sha256(b''.join(v.tobytes() for v in arrays)).hexdigest())\n"
        )
        outs = probe_outputs(probe)
        assert outs[0] == outs[1]
        assert outs[0].split()[1] == (
            "0da36da7684606576597321aa5602451d9c5fa213f9786833a030e5cb7b1df75"
        )


class TestHaarProxy:
    def test_orthogonality(self):
        u = _haar_stiefel(20, 20, np.random.default_rng(0))
        assert np.linalg.norm(u.T @ u - np.eye(20)) <= 1e-12

    def test_first_coordinate_matches_sphere_marginal(self):
        # First coordinate t of a Haar orthogonal matrix's first column is
        # distributed as the first coordinate of a uniform point on S^{k-1},
        # so t^2 ~ Beta(1/2, (k-1)/2). One-sample KS distance <= 0.05.
        k = 6
        t = np.array([
            _haar_stiefel(k, k, np.random.default_rng(s))[0, 0]
            for s in range(10_000)
        ])
        t2 = np.sort(t**2)
        cdf = scipy.special.betainc(0.5, (k - 1) / 2.0, t2)
        n = len(t2)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(emp_hi - cdf), np.max(cdf - emp_lo))
        assert ks <= 0.05


def _columns_resort_all(m, n, rng):
    """Reference draw of gen_sparse's three distinct columns per row (n > 3):
    after each redraw, sort and check every row again."""
    cols = rng.integers(0, n, size=(m, 3))
    while True:
        srt = np.sort(cols, axis=1)
        bad = np.any(srt[:, 1:] == srt[:, :-1], axis=1)
        if not bad.any():
            return cols
        cols[bad] = rng.integers(0, n, size=(int(bad.sum()), 3))


class TestGenSparse:
    # n = 4 and 5 need many redraw rounds; at n = 3 no index is drawn
    @pytest.mark.parametrize("n", [3, 4, 5, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_columns_match_resort_all(self, n, seed, monkeypatch):
        m = 5000
        made = []  # gen_sparse's generator, kept to read its final state
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(default_rng(s)) or made[-1])
        p = gen_sparse(m, n, seed)
        ref = default_rng(seed)
        cols = np.tile(np.arange(3), (m, 1)) if n == 3 else _columns_resort_all(m, n, ref)
        signs = ref.choice(np.array([-1.0, 1.0]), size=(m, 3))
        b = ref.standard_normal(m)
        order = np.argsort(cols, axis=1)
        assert np.array_equal(p.a.indices.reshape(m, 3), np.take_along_axis(cols, order, axis=1))
        assert np.array_equal(p.a.data.reshape(m, 3), np.take_along_axis(signs, order, axis=1))
        assert np.array_equal(p.b, b)
        assert made[0].bit_generator.state == ref.bit_generator.state

    # at n = 3 every row holds all three columns, so no index is drawn
    @pytest.mark.parametrize("n", [30, 3])
    def test_structure(self, n):
        p = gen_sparse(500, n, 0)
        a = p.a
        assert sp.issparse(a) and a.format == "csr"
        assert a.nnz == 3 * 500
        assert np.all(np.diff(a.indptr) == 3)
        assert np.all(np.isin(a.data, [-1.0, 1.0]))
        # distinct, strictly increasing column indices within each row
        idx = a.indices.reshape(500, 3)
        assert np.all(idx[:, 1:] > idx[:, :-1])

    # sha256 of data, indices, indptr and b, in that order: the instances,
    # the benchmark's `sparse` one at workload seed 7 last, must not move
    @pytest.mark.parametrize("m,n,seed,digest", [
        (1000, 3, 1, "9e8f35992a800de77e6b7739f115d063ead7593b8899fa33119eca8e7608ec59"),
        (1000, 10, 1, "5b15fe8322ad87a74516e541f48809554b27012d3ed51113ab766f9017e12349"),
        (1000, 100, 1, "a25297e1a7b24321379a68e0078f41f8384a733f5606426b39f14f0d6e9a59ea"),
        (20_000, 10, 2, "52f3635299a713c55ba7c1b509c76fa964d3eb7cce52a612d6272db666ce4dee"),
        (200_000, 100, 7, "d4ea0244661e007470d9fec251de17de73302ec7c69a6ae2f24fffebcf4ce05b"),
    ])
    def test_bitwise_pinned(self, m, n, seed, digest):
        p = gen_sparse(m, n, seed)
        h = hashlib.sha256()
        for arr in (p.a.data, p.a.indices, p.a.indptr, p.b):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == digest

    def test_n_too_small_raises(self):
        with pytest.raises(ValueError):
            gen_sparse(10, 2, 0)

    def test_gaussian_rhs_present(self):
        p = gen_sparse(200, 10, 3)
        assert p.b.shape == (200,) and p.truth is None

    def test_column_histogram_uniform(self):
        m, n = 100_000, 100
        p = gen_sparse(m, n, 0)
        counts = np.bincount(p.a.indices, minlength=n)
        prob = 3.0 / n
        mean = m * prob
        sd = np.sqrt(m * prob * (1 - prob))
        assert np.all(np.abs(counts - mean) <= 4 * sd)


class TestKernelProblem:
    def _data(self, m=60, k=3, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((m, k)), rng.standard_normal(m)

    def test_unit_entries_at_centers(self):
        pts, tg = self._data()
        p = kernel_problem(pts, tg, bandwidth=2.0, subset_size=10, seed=5)
        # reconstruct the center draw the same way the builder does
        centers = np.random.default_rng(5).choice(60, size=10, replace=False)
        for j, c in enumerate(centers):
            assert p.a[c, j] == pytest.approx(1.0, abs=1e-15)

    def test_bandwidth_monotone(self):
        pts, tg = self._data()
        a1 = kernel_problem(pts, tg, bandwidth=2.0, subset_size=10, seed=1).a
        a2 = kernel_problem(pts, tg, bandwidth=4.0, subset_size=10, seed=1).a
        assert np.all(a2 >= a1)

    def test_brute_force_oracle(self):
        pts, tg = self._data(m=40, k=2, seed=2)
        p = kernel_problem(pts, tg, bandwidth=3.0, subset_size=8, seed=9)
        z = (pts - pts.mean(axis=0)) / pts.std(axis=0)
        centers = np.random.default_rng(9).choice(40, size=8, replace=False)
        for i in range(40):
            for j, c in enumerate(centers):
                expect = np.exp(
                    -np.sum((z[i] - z[c]) ** 2) / (2 * 3.0**2)
                )
                assert abs(p.a[i, j] - expect) <= 1e-14

    def test_zero_variance_column_warns(self):
        pts, tg = self._data()
        pts[:, 1] = 5.0
        with pytest.warns(UserWarning):
            p = kernel_problem(pts, tg, subset_size=5, seed=0)
        assert p.a.shape == (60, 5)

    def test_parameter_errors(self):
        pts, tg = self._data()
        with pytest.raises(ValueError):
            kernel_problem(pts, tg, subset_size=1000, seed=0)
        with pytest.raises(ValueError):
            kernel_problem(pts, tg, bandwidth=0.0, subset_size=5, seed=0)

    @pytest.mark.parametrize("bandwidth,subset_size,name", [
        (np.inf, 5, "bandwidth"), (np.nan, 5, "bandwidth"), (-1.0, 5, "bandwidth"),
        (1e300, 5, "bandwidth"), (1e-300, 5, "bandwidth"),
        (4.0, 0, "subset_size"), (4.0, -3, "subset_size"),
    ], ids=["bandwidth-inf", "bandwidth-nan", "bandwidth-negative", "bandwidth-overflows",
            "bandwidth-underflows", "subset-size-0", "subset-size-negative"])
    def test_value_rejected_where_it_enters(self, bandwidth, subset_size, name):
        pts, tg = self._data()
        with pytest.raises(ValueError, match=name):
            kernel_problem(pts, tg, bandwidth=bandwidth, subset_size=subset_size, seed=0)


class TestCsv:
    def test_three_line_example(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("x,y\n1,2\n3,4\n")
        pts, tg = load_csv(str(f), "y")
        assert np.array_equal(pts, [[1.0], [3.0]])
        assert np.array_equal(tg, [2.0, 4.0])

    def test_blank_line_skipped(self, tmp_path):
        f = tmp_path / "b.csv"
        f.write_text("x,y\n1,2\n\n3,4\n")
        pts, tg = load_csv(str(f), "y")
        assert np.array_equal(pts, [[1.0], [3.0]])
        assert np.array_equal(tg, [2.0, 4.0])

    def test_empty_file(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("")
        with pytest.raises(CsvParseError):
            load_csv(str(f), "y")

    def test_missing_column(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("x,y\n1,2\n")
        with pytest.raises(CsvParseError):
            load_csv(str(f), "z")

    def test_non_numeric_cell_has_line_number(self, tmp_path):
        f = tmp_path / "n.csv"
        f.write_text("x,y\n1,2\nfoo,4\n")
        with pytest.raises(CsvParseError, match=":3"):
            load_csv(str(f), "y")

    @pytest.mark.parametrize("text", ["x,y\n1,2\nnan,4\n", "x,y\n1,2\n3,inf\n"],
                             ids=["nan-feature", "inf-target"])
    def test_non_finite_cell_has_line_number(self, tmp_path, text):
        f = tmp_path / "n.csv"
        f.write_text(text)
        with pytest.raises(CsvParseError, match=":3: non-finite cell"):
            load_csv(str(f), "y")

    def test_ragged_row(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("x,y\n1,2,3\n")
        with pytest.raises(CsvParseError):
            load_csv(str(f), "y")

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((10_000, 4)) * 10.0 ** rng.integers(
            -12, 12, size=(10_000, 4)
        )
        f = tmp_path / "big.csv"
        save_csv(str(f), ["a", "b", "c", "t"], rows)
        pts, tg = load_csv(str(f), "t")
        assert np.array_equal(pts, rows[:, :3])
        assert np.array_equal(tg, rows[:, 3])
