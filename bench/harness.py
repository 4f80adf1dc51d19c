"""Workloads, output checks and measurement loops of the benchmark.

run.py imports this module after capping the BLAS threads and putting the
checkout's ``src`` first on the import path. The loop is closed, with one
caller in one process: the next solve starts when the previous one returns.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import os
import platform
import statistics
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
import scipy.linalg
import scipy.sparse as sp

from itsketch import (
    LsProblem,
    SolverConfig,
    gen_randsvd,
    gen_sparse,
    iterative_sketching,
    sketch_and_precondition,
)
from itsketch.metrics import residual_error

import tracing

ROOT = Path(__file__).resolve().parent.parent
ZETA = 8
MAX_ITERS = 100
SKETCH_SEEDS = 64  # length of the sketch-seed list a run cycles through
# Counts, fe_ratio and peak memory are medians over the first COUNTED seeds of
# the list, so they repeat for a given workload seed.
COUNTED = 8
# setup_s is the median of at least SETUPS set-ups, repeated until those
# after the first have taken SETUP_SECONDS. The first set-up in a process
# also pays one-time costs, so a fast set-up needs many more samples.
SETUPS = 3
SETUP_SECONDS = 2.0
REFERENCE_REPEATS = 3
# A solve fails when ||r(x) - r(x_qr)|| / ||r(x_qr)|| exceeds this. Passing
# solves read <= 6e-7 (SP) and <= 6e-8 (IS) on the dense workloads; the
# sketch-and-solve start x0 alone reads about 2e-1.
RESIDUAL_GATE = 1e-4
TAIL_BEYOND = 10  # solves that must lie above the reported tail percentile
MIB = 2.0**20


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], LsProblem]  # the instance, from the workload seed
    solve: Callable  # (a, b, cfg, truth) -> SolveResult
    d: int
    pass_truth: bool  # give the solver the planted truth (per-iteration FE/RE)


WORKLOADS = {w.name: w for w in (
    Workload("paper-dense", lambda s: gen_randsvd(4000, 50, 1e10, 1e-6, s),
             iterative_sketching, 1000, True),
    Workload("tall-dense", lambda s: gen_randsvd(100_000, 100, 1e10, 1e-6, s),
             iterative_sketching, 3000, False),
    Workload("tall-dense-sp", lambda s: gen_randsvd(100_000, 100, 1e10, 1e-6, s),
             sketch_and_precondition, 3000, False),
    Workload("sparse", lambda s: gen_sparse(200_000, 100, s),
             iterative_sketching, 3000, False),
)}


def sketch_seeds(seed: int) -> list[int]:
    """The fixed list of sketch seeds a run cycles through."""
    rng = np.random.default_rng([seed, 1])
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=SKETCH_SEEDS)]


def config(wl: Workload, rng_seed: int) -> SolverConfig:
    return SolverConfig(d=wl.d, zeta=ZETA, max_iters=MAX_ITERS, rng_seed=rng_seed)


# ---------------------------------------------------------------- reference

# The reference calls LAPACK through NumPy and SciPy, not itsketch, so that
# no change to the package moves it.
def qr_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder-QR solution (geqrf, ormqr, trtrs; Q is never formed) and R."""
    qtb, r = scipy.linalg.qr_multiply(a, b, mode="right")
    return scipy.linalg.solve_triangular(r, qtb), r


def _refined_solution(a, b: np.ndarray, x: np.ndarray, r_fac: np.ndarray) -> np.ndarray:
    """Least-squares solution of a sparse problem without planted truth:
    x refined by corrections R^-1 R^-T A'(b - Ax), with b - Ax and A'r
    accumulated in extended precision (np.longdouble)."""
    coo = a.tocoo()
    vals = coo.data.astype(np.longdouble)
    xl = x.astype(np.longdouble)
    bl = b.astype(np.longdouble)
    for _ in range(4):
        ax = np.zeros(a.shape[0], np.longdouble)
        np.add.at(ax, coo.row, vals * xl[coo.col])
        res = bl - ax
        g = np.zeros(a.shape[1], np.longdouble)
        np.add.at(g, coo.col, vals * res[coo.row])
        y = scipy.linalg.solve_triangular(r_fac, g.astype(float), trans="T")
        xl += scipy.linalg.solve_triangular(r_fac, y)
    return xl


def forward_error(x: np.ndarray, x_true: np.ndarray) -> float:
    """||x - x_true|| / ||x_true||, evaluated in extended precision."""
    diff = np.asarray(x, dtype=np.longdouble) - x_true
    return float(np.sqrt(np.sum(diff * diff) / np.sum(x_true * x_true)))


@dataclass
class Reference:
    """Householder-QR reference, computed once at set-up."""

    r_qr: np.ndarray  # residual b - A x_qr
    x_true: np.ndarray  # planted truth, or the refined solution (sparse)
    fe_qr: float  # forward error of x_qr against x_true


def reference(prob: LsProblem) -> Reference:
    dense = prob.a.toarray() if sp.issparse(prob.a) else prob.a
    x_qr, r_fac = qr_solve(dense, prob.b)
    del dense
    if prob.truth is not None:
        x_true = prob.truth.x.astype(np.longdouble)
    else:
        x_true = _refined_solution(prob.a, prob.b, x_qr, r_fac)
    return Reference(prob.b - prob.a @ x_qr, x_true, forward_error(x_qr, x_true))


def reference_times(prob: LsProblem) -> tuple[float, float]:
    """Median seconds of np.linalg.lstsq and of a Householder-QR solve on the
    dense A (a sparse A is densified first, outside the timing)."""
    dense = prob.a.toarray() if sp.issparse(prob.a) else prob.a
    lstsq, qr = [], []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        np.linalg.lstsq(dense, prob.b, rcond=None)
        t1 = time.perf_counter()
        qr_solve(dense, prob.b)
        t2 = time.perf_counter()
        lstsq.append(t1 - t0)
        qr.append(t2 - t1)
    return statistics.median(lstsq), statistics.median(qr)


# ---------------------------------------------------------------- solve + check

def call(wl: Workload, prob: LsProblem, cfg: SolverConfig, a=None):
    """One public solve call: (seconds, result or None, traceback text)."""
    a = prob.a if a is None else a
    truth = prob.truth if wl.pass_truth else None
    t0 = time.perf_counter()
    try:
        res = wl.solve(a, prob.b, cfg, truth)
    except Exception:  # a raising solve is a counted failure, not a crash
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, res, ""


@dataclass
class Outcomes:
    """Checks solves outside the timed region and counts failures."""

    prob: LsProblem
    ref: Reference
    attempted: int = 0
    failed: int = 0
    first_error: str = ""
    fe: dict[int, float] = field(default_factory=dict)  # sketch seed -> FE

    def check(self, res, err: str, rng_seed: int) -> bool:
        self.attempted += 1
        reason = err or self._reason(res)
        if reason:
            self.failed += 1
            self.first_error = self.first_error or reason
            return False
        self.fe.setdefault(rng_seed, forward_error(res.solution, self.ref.x_true))
        return True

    def _reason(self, res) -> str:
        if res.trace.stop_reason == "diverged":
            return "stop_reason == 'diverged'"
        x = np.asarray(res.solution, dtype=float)
        if x.shape != (self.prob.a.shape[1],) or not np.all(np.isfinite(x)):
            return "solution is not a finite vector of length n"
        gap = residual_error(self.ref.r_qr, self.prob.b - self.prob.a @ x)
        if not gap <= RESIDUAL_GATE:
            return f"residual gap {gap:.3e} to the QR reference exceeds {RESIDUAL_GATE:g}"
        return ""

    def fe_ratio(self, seeds: list[int]) -> float | None:
        """Median forward error of the passing solves over `seeds`, divided by
        the forward error of the QR reference."""
        fe = [self.fe[s] for s in seeds if s in self.fe]
        return statistics.median(fe) / self.ref.fe_qr if fe else None


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND solves
    above it; the maximum when there are too few solves."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def useful_iter_frac(changes: list[float]) -> float:
    """First iteration whose residual change is within 2x of the median of
    the last five, divided by the iterations run."""
    if not changes:
        return 1.0
    limit = 2 * statistics.median(changes[-5:])
    first = next(i for i, c in enumerate(changes, 1) if c <= limit)
    return first / len(changes)


def set_up(wl: Workload, seed: int, rng_seed: int) -> tuple[LsProblem, list[float], list[float]]:
    """Generate the instance and make a first untimed solve, at least SETUPS
    times and until the set-ups after the first have taken SETUP_SECONDS.
    Returns the last instance, the seconds each set-up took and the seconds
    each generation took."""
    setups: list[float] = []
    gens: list[float] = []
    prob = None
    while len(setups) < SETUPS or sum(setups[1:]) < SETUP_SECONDS:
        prob = None  # free the previous instance before making the next
        t0 = time.perf_counter()
        prob = wl.make(seed)
        gens.append(time.perf_counter() - t0)
        call(wl, prob, config(wl, rng_seed))
        setups.append(time.perf_counter() - t0)
    return prob, setups, gens


def run_steps(seconds: float, step) -> None:
    """Call step(i) for i = 0, 1, ... until `seconds` have passed and at
    least COUNTED steps were made."""
    i = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or i < COUNTED:
        step(i)
        i += 1


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- runs

def measure(wl: Workload, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics."""
    seeds = sketch_seeds(seed)
    prob, setups, _ = set_up(wl, seed, seeds[0])
    out = Outcomes(prob, reference(prob))

    times: list[float] = []

    def step(i: int) -> None:
        rng_seed = seeds[i % SKETCH_SEEDS]
        t, res, err = call(wl, prob, config(wl, rng_seed))
        times.append(t)
        out.check(res, err, rng_seed)

    run_steps(seconds, step)

    peaks = []
    tracemalloc.start()
    try:
        for rng_seed in seeds[:COUNTED]:
            gc.collect()  # the same collector state before every pass
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, res, err = call(wl, prob, config(wl, rng_seed))
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / MIB)
            out.check(res, err, rng_seed)
            del res
    finally:
        tracemalloc.stop()

    tail_s, tail_pct = tail(times)
    return {
        "metrics": {
            "solve_s": _metric(statistics.median(times), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_mem_mb": _metric(statistics.median(peaks), "MiB"),
        },
        "extra": {
            "solve_s_tail": _metric(tail_s, "s"),
            "failed_frac": _metric(out.failed / out.attempted, "fraction"),
            "fe_ratio": _metric(out.fe_ratio(seeds[:COUNTED]), "ratio"),
        },
        "samples": {"solves": len(times), "setups": len(setups),
                    "peak_passes": len(peaks), "sketch_seeds": seeds,
                    "tail_percentile": tail_pct},
        "raw": {"solve_s": times, "setup_s": setups, "peak_mem_mb": peaks},
        "outcomes": out,
    }


def measure_traced(wl: Workload, seed: int, seconds: float) -> dict:
    """The traced run: per-layer metrics. Untraced and traced solves
    alternate on the same sketch seed; only the traced ones record spans."""
    seeds = sketch_seeds(seed)
    prob, _, gens = set_up(wl, seed, seeds[0])
    out = Outcomes(prob, reference(prob))
    lstsq_s, qr_s = reference_times(prob)

    tracer = tracing.Tracer()
    a_counted = tracing.counted(prob.a, tracer)
    # solves: (step, iterations, stop reason, useful_iter_frac, trace bytes)
    plain, traced, solves = [], [], []
    patched: list[str] = []

    def step(i: int) -> None:
        rng_seed = seeds[i % SKETCH_SEEDS]
        cfg = config(wl, rng_seed)
        t, res, err = call(wl, prob, cfg)
        plain.append(t)
        out.check(res, err, rng_seed)
        del res
        tracer.solve = i
        with tracing.installed(tracer) as found:
            t, res, err = tracer.call(tracing.ROOT_SPAN, call, wl, prob, cfg, a_counted)
        patched[:] = found
        traced.append(t)
        if out.check(res, err, rng_seed):
            changes = res.trace.residual_changes
            solves.append((i, len(changes), res.trace.stop_reason,
                           useful_iter_frac(changes), tracing.held_bytes(res.trace)))

    run_steps(seconds, step)

    per = tracing.breakdown(tracer.spans)
    counted = [s for s in solves if s[0] < COUNTED]

    def med(values) -> float | None:
        values = list(values)
        return statistics.median(values) if values else None

    def med_time(name: str) -> float | None:
        return med(per[i]["time"].get(name, 0.0) for i, *_ in solves)

    def med_count(name: str) -> float | None:
        return med(per[i]["count"].get(name, 0) for i, *_ in counted)

    metrics = {
        "problems.gen_s": _metric(statistics.median(gens), "s"),
        "embed.build_s": _metric(med_time("embed.build"), "s"),
        "embed.apply_s": _metric(med_time("embed.apply"), "s"),
        "embed.s_bytes": _metric(med(tracer.built_bytes.get(i, 0) for i, *_ in counted), "bytes"),
        "linalg.qr_s": _metric(med_time("linalg.qr"), "s"),
        "linalg.estimate_s": _metric(med_time("linalg.estimate"), "s"),
        "linalg.trisolve_s": _metric(med_time("linalg.trisolve"), "s"),
        "linalg.trisolve_calls": _metric(med_count("linalg.trisolve"), "count"),
        "solvers.iters": _metric(med(s[1] for s in counted), "count"),
        "solvers.iter_s": _metric(med((per[i]["dur"] - per[i]["setup"]) / n
                                      for i, n, *_ in solves if n), "s"),
        "solvers.self_s": _metric(med(per[i]["dur"] - per[i]["children"]
                                      for i, *_ in solves), "s"),
        "solvers.matvec_s": _metric(med_time(tracing.MATVEC_SPAN), "s"),
        "solvers.matvecs": _metric(med_count(tracing.MATVEC_SPAN), "count"),
        "solvers.rule_stop_frac": _metric(
            statistics.fmean(s[2] == "stopped_by_rule" for s in counted) if counted else None,
            "fraction"),
        "solvers.useful_iter_frac": _metric(med(s[3] for s in counted), "fraction"),
        "solvers.trace_bytes": _metric(med(s[4] for s in counted), "bytes"),
        "fe_ratio": _metric(out.fe_ratio(seeds[:COUNTED]), "ratio"),
        "reference.lstsq_s": _metric(lstsq_s, "s"),
        "reference.qr_s": _metric(qr_s, "s"),
        "trace.overhead_frac": _metric(
            statistics.median(traced) / statistics.median(plain) - 1, "fraction"),
    }
    return {
        "metrics": metrics,
        "extra": {"failed_frac": _metric(out.failed / out.attempted, "fraction")},
        "samples": {"generations": len(gens),
                    "traced_solves": len(traced), "untraced_solves": len(plain),
                    "spans": len(tracer.spans), "sketch_seeds": seeds,
                    "patched": patched},
        "raw": {"traced_s": traced, "untraced_s": plain},
        "outcomes": out,
        "tracer": tracer,
    }


# ---------------------------------------------------------------- provenance

def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> int | None:
    """Threads OpenBLAS reports, from the copy NumPy loaded; None if unknown."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "threads_requested": os.environ.get("OPENBLAS_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload_seed": seed,
        "byte_counts": "computed from array sizes; no bandwidth or roofline claim",
    }
