"""In-process tests of the experiment-runner CLI: exit codes, CSV schemas,
and determinism."""

import math

import numpy as np
import pytest

from blas_threads import probe_outputs
from itsketch.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, SCHEMA_LINE, _be, _map_trials, build_parser, main
from itsketch.embed import choose_dim
from itsketch.metrics import backward_error
from itsketch.problems import gen_randsvd
from itsketch.solvers import SolverConfig

CONV_HEADER = "method,kappa,resnorm,iter,fe,re,be,res_change,bound_fe,bound_re"
PROBLEM = ["--m", "400", "--n", "15", "--cond", "1e4", "--resnorm", "1e-4"]


def run(argv):
    return main(argv)


def assert_be_nan_only_at(path, zero_starts):
    """be is nan on the (method, iter) rows whose iterate is x = 0 and
    finite on every other row."""
    rows = [ln.split(",") for ln in path.read_text().splitlines()[2:]]
    nan_rows = {(r[0], r[3]) for r in rows if math.isnan(float(r[6]))}
    assert nan_rows == zero_starts
    assert all(math.isfinite(float(r[6])) for r in rows if (r[0], r[3]) not in zero_starts)


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["kernel", "--metrics", "full"],
        ["sparsebench", "--rows", "100", "--n", "5", "--metrics", "full"],
        ["sparsebench", "--rows", "100", "--n", "5", "--variant", "momentum"],
        ["sparsebench", "--rows", "100", "--n", "5", "--accuracy", "1e-8"],
        ["compare", *PROBLEM, "--variant", "damped"],
        ["solve", *PROBLEM, "--seed", "0", "1"],
    ])
    def test_flag_the_command_does_not_read_exits_64(self, tmp_path, argv):
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "convergence", "bad", "compare"])
    def test_metrics_full_over_be_cap_exits_64(self, tmp_path, capsys, command):
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            run([command, "--m", "4001", "--n", "5", "--cond", "10", "--resnorm", "1e-3",
                 "--metrics", "full", "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--m <= 4000" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", *PROBLEM, "--d", "abc"],
        ["solve", "--m", "400", "--n", "50", "--cond", "1e4", "--resnorm", "1e-4", "--d", "30"],
        ["kernel", "--centers", "60", "--d", "30"],
        ["sparsebench", "--rows", "100", "--n", "10", "--d", "5"],
        ["convergence", "--m", "400", "--n", "15", "--cond", "10", "--resnorm", "1e-3",
         "--d", "-20"],
    ], ids=["not-an-int", "solve-d-below-n", "kernel-d-below-centers",
            "sparsebench-d-below-n", "negative"])
    def test_bad_d_exits_64(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert '--d must be "auto" or an integer >= n' in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--m", "40", "--n", "50", "--cond", "10", "--resnorm", "1e-3"],
        ["kernel", "--synthetic-rows", "100", "--centers", "200"],
    ], ids=["solve-m-below-n", "kernel-centers-above-rows"])
    def test_value_rejected_by_generator_exits_64(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        assert run(argv + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not any(tmp_path.iterdir())  # no --out file, and no data file either

    # the generator names the value; a NaN or inf used to reach the solver first
    @pytest.mark.parametrize("cond,resnorm,name", [
        ("nan", "1e-3", "kappa"), ("10", "inf", "beta"),
    ])
    def test_non_finite_generator_value_exits_64(self, tmp_path, capsys, cond, resnorm, name):
        out = tmp_path / "o.csv"
        argv = ["solve", "--m", "60", "--n", "5", "--cond", cond, "--resnorm", resnorm]
        assert run(argv + ["--out", str(out)]) == EXIT_USAGE
        assert f"finite {name}" in capsys.readouterr().err
        assert not out.exists()

    # --repeats 0 crashed after the loop (exit 1, kept for divergence), and
    # --synthetic-rows 0 read back its own empty CSV as an I/O error (exit 2)
    @pytest.mark.parametrize("argv", [
        ["kernel", "--synthetic-rows", "50", "--centers", "5", "--repeats", "0"],
        ["kernel", "--synthetic-rows", "50", "--centers", "5", "--repeats", "-2"],
        ["sparsebench", "--rows", "100", "--n", "5", "--repeats", "0"],
        ["kernel", "--synthetic-rows", "0", "--centers", "5"],
        ["kernel", "--synthetic-rows", "x", "--centers", "5"],
    ], ids=["kernel-repeats-0", "kernel-repeats-negative", "sparsebench-repeats-0",
            "synthetic-rows-0", "synthetic-rows-not-an-int"])
    def test_count_below_one_exits_64(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "must be an integer >= 1" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_d_equal_to_n_accepted(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run(["solve", *PROBLEM, "--d", "15", "--variant", "basic", "--max-iters", "3",
                    "--out", str(out)]) == EXIT_OK
        assert out.exists()

    def test_variant_defaults_to_momentum(self):
        assert SolverConfig(d=100).variant == "momentum"
        parser = build_parser()
        for argv in (["solve", *PROBLEM], ["convergence", *PROBLEM], ["bad", *PROBLEM],
                     ["kernel"]):
            assert parser.parse_args(argv + ["--out", "o.csv"]).variant == "momentum"


class TestSolve:
    def test_smoke(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run([
            "solve", "--m", "400", "--n", "20", "--cond", "1e4",
            "--resnorm", "1e-6", "--seed", "7", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.exists()
        summary = (tmp_path / "x.csv.summary.csv").read_text().splitlines()
        assert summary[0] == SCHEMA_LINE
        assert summary[1] == "iters,stop_reason,fe,re,be"
        assert len(summary) == 3

    def test_stagnated_exits_0(self, tmp_path):
        # kappa = 10 with a unit residual: the rule's threshold sits below the
        # rounding floor of b - Ax, and the stagnation test ends the solve
        out = tmp_path / "x.csv"
        assert run([
            "solve", "--m", "4000", "--n", "50", "--cond", "10", "--resnorm", "1",
            "--d", "1000", "--seed", "0", "--out", str(out),
        ]) == EXIT_OK
        row = (tmp_path / "x.csv.summary.csv").read_text().splitlines()[2].split(",")
        assert row[1] == "stagnated" and int(row[0]) < 100

    def test_missing_flag_exits_64(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--m", "400", "--n", "20", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == EXIT_USAGE

    def test_byte_identical_determinism(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run([
                "solve", "--m", "300", "--n", "15", "--cond", "1e3",
                "--resnorm", "1e-4", "--seed", "3", "--out", str(out),
            ]) == EXIT_OK
            outs.append(out.read_bytes() + (tmp_path / (name + ".summary.csv")).read_bytes())
        assert outs[0] == outs[1]

    def test_metrics_full_be_of_solution(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run([
            "solve", "--m", "400", "--n", "20", "--cond", "1e4",
            "--resnorm", "1e-6", "--seed", "7", "--metrics", "full", "--out", str(out),
        ]) == EXIT_OK
        x = np.array([float(v) for v in out.read_text().splitlines()[1:]])
        summary = (tmp_path / "x.csv.summary.csv").read_text().splitlines()
        be = float(summary[2].split(",")[4])
        prob = gen_randsvd(400, 20, 1e4, 1e-6, 7)
        assert be == backward_error(prob.a, prob.b, x)


def test_be_nan_at_non_finite_iterate():
    prob = gen_randsvd(60, 4, 10.0, 1e-3, 0)
    # the norm of [1.5e308]*4 overflows; [1e160]*4 has a finite norm and a backward error
    for x in (np.full(4, np.nan), np.full(4, np.inf), np.full(4, 1.5e308), np.zeros(4)):
        assert math.isnan(_be(prob, x))
    for x in (prob.truth.x, np.full(4, 1e160)):
        assert _be(prob, x) == backward_error(prob.a, prob.b, x)


class TestConvergence:
    def test_schema_and_qr_rows(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = run([
            "convergence", "--m", "500", "--n", "20", "--cond", "1e2", "1e4",
            "--resnorm", "1e-4", "0", "--seed", "0", "--max-iters", "20",
            "--variant", "basic", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == SCHEMA_LINE
        assert lines[1] == CONV_HEADER
        rows = [ln.split(",") for ln in lines[2:]]
        methods = {r[0] for r in rows}
        assert methods == {"is_basic", "householder_qr"}
        qr_rows = [r for r in rows if r[0] == "householder_qr"]
        assert len(qr_rows) == 4  # one per (kappa, resnorm)
        assert all(r[3] == "-1" for r in qr_rows)
        # at resnorm 0 RE is ||r|| / ||b||, as on the iterative rows
        assert all(float(r[5]) < 1e-10 for r in qr_rows if float(r[2]) == 0.0)

    def test_momentum_bound_from_iteration_2(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert run([
            "convergence", "--m", "500", "--n", "20", "--cond", "1e4",
            "--resnorm", "1e-4", "--seed", "0", "--max-iters", "20",
            "--variant", "momentum", "--out", str(out),
        ]) == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
        traced = [r for r in rows if r[0] == "is_momentum"]
        assert len(traced) > 2
        for r in traced:
            stated = int(r[3]) >= 2
            assert math.isfinite(float(r[8])) == stated
            assert math.isfinite(float(r[9])) == stated

    def test_rows_sorted(self, tmp_path):
        out = tmp_path / "conv.csv"
        run([
            "convergence", "--m", "300", "--n", "10", "--cond", "1e2",
            "--resnorm", "1e-3", "--seed", "0", "1", "--max-iters", "10",
            "--out", str(out),
        ])
        lines = out.read_text().splitlines()[2:]
        keys = [[s for s in ln.split(",")] for ln in lines]
        assert keys == sorted(keys)

    def test_parallel_trials_same_content(self, tmp_path, monkeypatch):
        argv = [
            "convergence", "--m", "300", "--n", "10", "--cond", "1e2", "1e3",
            "--resnorm", "1e-3", "--seed", "0", "1", "2", "--max-iters", "10",
        ]
        monkeypatch.setenv("RLS_THREADS", "1")
        serial = tmp_path / "serial.csv"
        run(argv + ["--out", str(serial)])
        monkeypatch.setenv("RLS_THREADS", "4")
        parallel = tmp_path / "parallel.csv"
        run(argv + ["--out", str(parallel)])
        assert serial.read_bytes() == parallel.read_bytes()

    def test_pooled_trials_run_blas_on_one_thread(self, blas_threads, monkeypatch):
        monkeypatch.setenv("RLS_THREADS", "2")
        assert _map_trials(lambda _: blas_threads(), [0, 1, 2, 3]) == [1, 1, 1, 1]
        assert blas_threads() == 2
        monkeypatch.setenv("RLS_THREADS", "1")
        assert _map_trials(lambda _: blas_threads(), [0, 1]) == [2, 2]

    def test_pooled_trials_run_scipy_blas_on_one_thread(self, scipy_blas_threads, monkeypatch):
        # the trials' triangular solves (dtrtrs) and BLAS norms run in SciPy's OpenBLAS
        monkeypatch.setenv("RLS_THREADS", "2")
        assert _map_trials(lambda _: scipy_blas_threads(), [0, 1, 2, 3]) == [1, 1, 1, 1]
        assert scipy_blas_threads() == 2

    def test_pooled_trials_bitwise_equal_across_blas_threads(self, tmp_path):
        # at 20000x60 the bits of A'r and of the generator's QR change with the
        # OpenBLAS thread count; pooled trials hold it at one thread throughout,
        # so neither the count nor the timing of another trial's QR shows
        probe = (
            "import hashlib, os\n"
            "from itsketch.cli import main\n"
            "os.environ['RLS_THREADS'] = '2'\n"
            f"out = {str(tmp_path / 'conv.csv')!r}\n"
            "for _ in range(2):\n"
            "    main(['convergence', '--m', '20000', '--n', '60', '--cond', '1e10',\n"
            "          '--resnorm', '1e-6', '--seed', '1', '2', '--out', out])\n"
            "    print(hashlib.sha256(open(out, 'rb').read()).hexdigest())\n"
        )
        outs = probe_outputs(probe)
        assert len(set(outs[0].split() + outs[1].split())) == 1


class TestBad:
    def test_four_methods(self, tmp_path):
        out = tmp_path / "bad.csv"
        code = run([
            "bad", "--m", "500", "--n", "20", "--cond", "1e8",
            "--resnorm", "1e-4", "--seed", "0", "--max-iters", "25",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[1] == CONV_HEADER
        methods = {ln.split(",")[0] for ln in lines[2:]}
        assert methods == {"stable", "bad_matrix", "bad_residual", "bad_init"}

    def test_metrics_full_nan_at_zero_start(self, tmp_path):
        out = tmp_path / "bad.csv"
        code = run([
            "bad", "--m", "500", "--n", "20", "--cond", "1e8",
            "--resnorm", "1e-4", "--seed", "0", "--max-iters", "25",
            "--metrics", "full", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert_be_nan_only_at(out, {("bad_init", "0")})


class TestCompare:
    def test_methods_present(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run([
            "compare", "--m", "400", "--n", "15", "--cond", "1e4",
            "--resnorm", "1e-4", "--seed", "0", "--max-iters", "20",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        methods = {ln.split(",")[0] for ln in out.read_text().splitlines()[2:]}
        assert methods == {
            "is_basic", "is_damped", "is_momentum", "sp_zero", "sp_sketch_and_solve",
        }

    def test_metrics_full_nan_at_zero_start(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run([
            "compare", *PROBLEM, "--seed", "0", "--max-iters", "20",
            "--metrics", "full", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert_be_nan_only_at(out, {("sp_zero", "0")})


class TestDims:
    def test_floors_and_values(self, tmp_path):
        out = tmp_path / "dims.csv"
        code = run([
            "dims", "--m", "4000", "--n", "50", "--accuracy", "1e-16",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[1] == "variant,m,n,accuracy,d"
        got = {ln.split(",")[0]: int(ln.split(",")[4]) for ln in lines[2:]}
        assert set(got) == {"basic", "damped", "momentum"}
        assert got["basic"] >= 20 * 50
        assert got["damped"] >= 4 * 50 and got["momentum"] >= 4 * 50
        for variant, d in got.items():
            assert d == choose_dim(4000, 50, 1e-16, variant)


class TestKernel:
    def test_synthetic_smoke(self, tmp_path):
        out = tmp_path / "kern.csv"
        code = run([
            "kernel", "--synthetic-rows", "400", "--centers", "20",
            "--repeats", "1", "--max-iters", "30", "--seed", "0",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == SCHEMA_LINE
        assert lines[1] == "n,method,time_ms,iters,rel_diff_vs_qr"
        methods = {ln.split(",")[1] for ln in lines[2:]}
        assert methods == {"iterative_sketching", "householder_qr"}

    def test_missing_data_file_exits_2(self, tmp_path):
        code = run([
            "kernel", "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "k.csv"),
        ])
        assert code == EXIT_IO

    def test_targets_too_large_to_iterate_on_exit_64(self, tmp_path):
        # the kernel features are at most 1, so ||b - Ax0||^2 overflows
        data = tmp_path / "big.csv"
        rows = [f"{i},{i % 7},1e200" for i in range(40)]
        data.write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
        with np.errstate(over="ignore"):
            code = run(["kernel", "--data", str(data), "--centers", "5", "--d", "20",
                        "--repeats", "1", "--out", str(tmp_path / "k.csv")])
        assert code == EXIT_USAGE

    def test_malformed_data_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,zap\n")
        code = run(["kernel", "--data", str(bad), "--out", str(tmp_path / "k.csv")])
        assert code == EXIT_IO


class TestSparsebench:
    def test_smoke(self, tmp_path):
        out = tmp_path / "sp.csv"
        code = run([
            "sparsebench", "--rows", "2000", "--n", "40", "--repeats", "1",
            "--max-iters", "30", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[1] == "m,n,d,time_ms,iters,final_resnorm"
        assert len(lines) == 3
