"""Experiment runner CLI.

Subcommands reproduce the stability experiments as CSV files (no in-process
plotting): solve, convergence, bad, compare, dims, kernel, sparsebench.
Exit codes: 0 ok, 1 solver divergence, 2 I/O or parse error, 64 bad flags
(including flag values a generator or the solver configuration rejects).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .embed import choose_dim
from .linalg import _one_blas_thread, qr_solve
from .metrics import _backward_error_of
from .problems import (
    CsvParseError,
    gen_randsvd,
    gen_sparse,
    kernel_problem,
    load_csv,
    save_csv,
)
from .solvers import (
    RateHypothesisError,
    SolverConfig,
    _errors,
    bad_variant,
    iterative_sketching,
    sketch_and_precondition,
    theoretical_bound_curve,
)

SCHEMA_LINE = "# schema=v1"
TRACE_HEADER = "method,kappa,resnorm,iter,fe,re,be,res_change,bound_fe,bound_re"

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_IO = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """argparse type of a count: an integer >= 1."""
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _write_csv(path: str, header: str, rows: list[list]) -> None:
    rows = sorted(rows, key=lambda r: [str(v) for v in r])
    with open(path, "w") as f:
        f.write(SCHEMA_LINE + "\n")
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _thread_count() -> int:
    env = os.environ.get("RLS_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _map_trials(fn, items: list):
    workers = min(_thread_count(), len(items)) if items else 1
    if workers <= 1:
        return [fn(it) for it in items]
    # each small QR sets OpenBLAS (NumPy's and SciPy's) to one thread for the whole
    # process; hold both there while trials overlap, so no trial's bits depend on timing
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _solver_cfg(args, m: int, n: int, variant: str | None = None, seed: int | None = None,
                init: str = "sketch_and_solve") -> SolverConfig:
    variant = variant or args.variant
    d = choose_dim(m, n, args.accuracy, variant) if args.d == "auto" else int(args.d)
    return SolverConfig(
        d=d,
        zeta=args.zeta,
        variant=variant,
        init=init,
        max_iters=args.max_iters,
        rng_seed=args.seed if seed is None else seed,
    )


def _be(args, prob):
    """The be column as a function of an iterate x of prob: nan under --metrics
    cheap, else x's backward error, with A factored here once per problem."""
    be = _backward_error_of(prob.a) if args.metrics == "full" else None

    def be_or_nan(x: np.ndarray) -> float:
        try:
            return be(prob.b, x) if be else float("nan")
        except ValueError:  # undefined: x = 0, or a non-finite x or norm
            return float("nan")

    return be_or_nan


def cmd_solve(args) -> int:
    prob = gen_randsvd(args.m, args.n, args.cond, args.resnorm, args.seed)
    cfg = _solver_cfg(args, args.m, args.n)
    res = iterative_sketching(prob.a, prob.b, cfg, prob.truth)
    save_csv(args.out, ["x"], np.asarray(res.solution)[:, None])
    t = res.trace
    _write_csv(args.summary or (args.out + ".summary.csv"), "iters,stop_reason,fe,re,be",
               [[res.iterations, t.stop_reason, t.fe[-1], t.re[-1], _be(args, prob)(res.solution)]])
    return EXIT_DIVERGED if t.stop_reason == "diverged" else EXIT_OK


def _trace_rows(be, method: str, kappa: float, beta: float, res, bounds=None) -> list[list]:
    """TRACE_HEADER's rows of a solve given its problem's truth."""
    t = res.trace
    rows = []
    for i, x in enumerate(t.iterates):
        chg = t.residual_changes[i - 1] if i >= 1 else float("nan")
        bf, br = (float("nan"), float("nan"))
        if bounds is not None:
            bf, br = float(bounds[0][i]), float(bounds[1][i])
        rows.append([method, kappa, beta, i, t.fe[i], t.re[i], be(x), chg, bf, br])
    return rows


def cmd_convergence(args) -> int:
    rows: list[list] = []

    def one(task):
        kappa, beta, seed = task
        prob = gen_randsvd(args.m, args.n, kappa, beta, seed)
        cfg = _solver_cfg(args, args.m, args.n, seed=seed)
        res = iterative_sketching(prob.a, prob.b, cfg, prob.truth)
        try:
            fe_bound, re_bound = theoretical_bound_curve(
                args.variant, res.trace.epsilon, prob.truth.kappa, 1.0,
                prob.truth.beta, res.iterations,
            )
        except RateHypothesisError:  # eps outside the variant's hypothesis: no bound
            bounds = None
        else:
            # bounds are absolute; traces are relative
            bounds = (fe_bound / np.linalg.norm(prob.truth.x),
                      re_bound / max(prob.truth.beta, np.finfo(float).tiny))
        be = _be(args, prob)
        out = _trace_rows(be, f"is_{args.variant}", kappa, beta, res, bounds)
        xqr = qr_solve(prob.a, prob.b)[0]
        fe, re = _errors(prob.truth, prob.b, xqr, prob.b - prob.a @ xqr)
        out.append(["householder_qr", kappa, beta, -1, fe, re, be(xqr),
                    float("nan"), float("nan"), float("nan")])
        return out

    tasks = [(k, r, s) for k in args.cond for r in args.resnorm for s in args.seed]
    for chunk in _map_trials(one, tasks):
        rows.extend(chunk)
    _write_csv(args.out, TRACE_HEADER, rows)
    return EXIT_OK


def cmd_bad(args) -> int:
    prob = gen_randsvd(args.m, args.n, args.cond, args.resnorm, args.seed)
    be, rows = _be(args, prob), []
    cfg = _solver_cfg(args, args.m, args.n)
    stable = iterative_sketching(prob.a, prob.b, cfg, prob.truth)
    rows += _trace_rows(be, "stable", args.cond, args.resnorm, stable)
    for kind in ("bad_matrix", "bad_residual", "bad_init"):
        res = bad_variant(prob.a, prob.b, cfg, kind, prob.truth)
        rows += _trace_rows(be, kind, args.cond, args.resnorm, res)
    _write_csv(args.out, TRACE_HEADER, rows)
    return EXIT_OK  # divergence of the bad baselines is the expected result


def cmd_compare(args) -> int:
    prob = gen_randsvd(args.m, args.n, args.cond, args.resnorm, args.seed)
    be, rows = _be(args, prob), []
    for variant in ("basic", "damped", "momentum"):
        cfg = _solver_cfg(args, args.m, args.n, variant=variant)
        res = iterative_sketching(prob.a, prob.b, cfg, prob.truth)
        rows += _trace_rows(be, f"is_{variant}", args.cond, args.resnorm, res)
    for init in ("zero", "sketch_and_solve"):
        cfg = _solver_cfg(args, args.m, args.n, variant="basic", init=init)
        res = sketch_and_precondition(prob.a, prob.b, cfg, prob.truth)
        rows += _trace_rows(be, f"sp_{init}", args.cond, args.resnorm, res)
    _write_csv(args.out, TRACE_HEADER, rows)
    return EXIT_OK


def cmd_dims(args) -> int:
    rows = []
    for variant in ("basic", "damped", "momentum"):
        d = choose_dim(args.m, args.n, args.accuracy, variant)
        rows.append([variant, args.m, args.n, args.accuracy, d])
    _write_csv(args.out, "variant,m,n,accuracy,d", rows)
    return EXIT_OK


def _synthetic_mixture(rows: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-mixture regression data: 4 features, 3 clusters, noisy target."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(3, 4))
    labels = rng.integers(0, 3, size=rows)
    pts = centers[labels] + rng.standard_normal((rows, 4))
    target = np.sin(pts[:, 0]) + 0.5 * pts[:, 1] + 0.1 * rng.standard_normal(rows)
    return pts, target


def cmd_kernel(args) -> int:
    if args.data is None:
        points, targets = _synthetic_mixture(args.synthetic_rows, args.seed)
    else:
        points, targets = load_csv(args.data, args.target)
    rows = []
    for n in args.centers:
        prob = kernel_problem(points, targets, args.bandwidth, n, args.seed)
        cfg = _solver_cfg(args, points.shape[0], n)
        times_is, times_qr = [], []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            res = iterative_sketching(prob.a, prob.b, cfg)
            times_is.append(1e3 * (time.perf_counter() - t0))
            t0 = time.perf_counter()
            xqr = qr_solve(prob.a, prob.b)[0]
            times_qr.append(1e3 * (time.perf_counter() - t0))
        rel_diff = float(
            np.linalg.norm(res.solution - xqr) / max(np.linalg.norm(xqr), np.finfo(float).tiny)
        )
        rows.append([n, "iterative_sketching", float(np.median(times_is)),
                     res.iterations, rel_diff])
        rows.append([n, "householder_qr", float(np.median(times_qr)), 0, 0.0])
    _write_csv(args.out, "n,method,time_ms,iters,rel_diff_vs_qr", rows)
    return EXIT_OK


def cmd_sparsebench(args) -> int:
    rows = []
    for m in args.rows:
        prob = gen_sparse(m, args.n, args.seed)
        d = 30 * args.n if args.d == "auto" else int(args.d)
        cfg = SolverConfig(d=d, zeta=args.zeta, max_iters=args.max_iters, rng_seed=args.seed)
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            res = iterative_sketching(prob.a, prob.b, cfg)
            times.append(1e3 * (time.perf_counter() - t0))
        resnorm = float(np.linalg.norm(prob.b - prob.a @ res.solution))
        rows.append([m, args.n, d, float(np.median(times)), res.iterations, resnorm])
    _write_csv(args.out, "m,n,d,time_ms,iters,final_resnorm", rows)
    return EXIT_OK


def _add_problem_flags(p: _Parser, nargs: str | None = None) -> None:
    """--m, --n, and --cond and --resnorm, of which nargs="+" takes several."""
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cond", type=float, nargs=nargs, required=True)
    p.add_argument("--resnorm", type=float, nargs=nargs, required=True)


def _add_solver_flags(p: _Parser, variant: bool = True, accuracy: bool = True,
                      metrics: bool = True, seeds: bool = False) -> None:
    """The solver flags a command reads: --variant, --accuracy and --metrics
    only where it reads them, and several --seed values only where it
    runs one trial per seed."""
    p.add_argument("--d", default="auto", help='embedding dimension (an integer >= n) or "auto"')
    p.add_argument("--zeta", type=int, default=8)
    if variant:
        p.add_argument("--variant", choices=["basic", "damped", "momentum"], default="momentum")
    p.add_argument("--max-iters", type=int, default=100)
    if seeds:
        p.add_argument("--seed", type=int, nargs="+", default=[0])
    else:
        p.add_argument("--seed", type=int, default=0)
    if accuracy:
        p.add_argument("--accuracy", type=float, default=2.0**-53,
                       help="accuracy level fed to the dimension formula when --d auto")
    if metrics:
        p.add_argument("--metrics", choices=["cheap", "full"], default="cheap",
                       help="full adds the backward error of each iterate")
    p.add_argument("--out", required=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="itsketch")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one generated instance")
    _add_problem_flags(p)
    _add_solver_flags(p)
    p.add_argument("--summary", default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("convergence", help="per-iteration error traces vs QR reference")
    _add_problem_flags(p, nargs="+")
    _add_solver_flags(p, seeds=True)
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("bad", help="stable implementation vs the three bad baselines")
    _add_problem_flags(p)
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_bad)

    p = sub.add_parser("compare", help="iterative sketching variants vs sketch-and-precondition")
    _add_problem_flags(p)
    _add_solver_flags(p, variant=False)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("dims", help="embedding-dimension table")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--accuracy", type=float, default=2.0**-53)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("kernel", help="kernel regression benchmark (CSV data or synthetic)")
    p.add_argument("--data", default=None, help="numeric CSV; synthetic data generated if omitted")
    p.add_argument("--target", default="y", help="target column of --data")
    p.add_argument("--synthetic-rows", type=_count, default=10_000)
    p.add_argument("--bandwidth", type=float, default=4.0)
    p.add_argument("--centers", type=_count, nargs="+", default=[50])
    p.add_argument("--repeats", type=_count, default=3)
    _add_solver_flags(p, metrics=False)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("sparsebench", help="sparse problem timing scan")
    p.add_argument("--rows", type=int, nargs="+", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--repeats", type=_count, default=3)
    _add_solver_flags(p, variant=False, accuracy=False, metrics=False)
    p.set_defaults(fn=cmd_sparsebench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    d, n = getattr(args, "d", "auto"), max(args.centers) if args.command == "kernel" else args.n
    if d != "auto" and not (d.isdigit() and int(d) >= max(n, 1)):
        parser.exit(EXIT_USAGE, f"{parser.prog} {args.command}: error: "
                                f'--d must be "auto" or an integer >= n = {n}, got {d!r}\n')
    try:
        return args.fn(args)
    except (CsvParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # a flag value a generator or SolverConfig rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
