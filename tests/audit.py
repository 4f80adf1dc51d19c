"""Bit audit of the solvers over fixed grids of solves.

Run as ``PYTHONPATH=src python3 tests/audit.py``. For each grid it prints
the number of solves, how many stopped for each reason, and one sha256 over
every solve's solution, iterates, residual_changes, stop_thresholds,
residual_norms, FE, RE, normest, condest, epsilon, stop reason and iteration
count, and over SparseSignEmbedding.apply's [SA | Sb] for each instance at
each rng_seed it is solved with. Two checkouts that print the same hashes
sketch and solve every grid bit for bit alike.

The grids (391 solves, about 5 s on a 2-core host):
  paper  the 90 gen_randsvd(4000, 50, kappa, beta, s) at d = 1000,
         max_iters=100, rng_seed=s, with truth, by basic and momentum
         iterative sketching and by sketch-and-precondition from both inits;
  bad    the three bad_variant kinds on gen_randsvd(4000, 50, 1e10, 1e-6, 0)
         at SolverConfig(d=1000), with truth;
  bad_zero  bad's instance and kinds, and iterative sketching, at
         SolverConfig(d=1000, init="zero"), with truth;
  drift  gen_sparse(20000, 10, 0) at SolverConfig(d=200) with rng_seed 0-3,
         by basic and momentum, by sketch-and-precondition, and by it at
         max_iters=3;
  bench  the four benchmark workloads' instances at workload seed 7, with
         rng_seed 3 and 4, zeta = 8, max_iters=100; truth for paper-dense.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import replace

import numpy as np

from itsketch import (
    SolverConfig,
    SparseSignEmbedding,
    bad_variant,
    gen_randsvd,
    gen_sparse,
    iterative_sketching,
    sketch_and_precondition,
)

KAPPAS = (1e1, 1e2, 1e6, 1e10, 1e14)
BETAS = (0.0, 1e-12, 1e-6, 1e-3, 1.0, 10.0)
SEEDS = (0, 1, 2)


def _is(variant):
    return lambda a, b, cfg, truth: iterative_sketching(a, b, replace(cfg, variant=variant), truth)


def _sp(**changes):
    return lambda a, b, cfg, truth: sketch_and_precondition(a, b, replace(cfg, **changes), truth)


def _bad(kind):
    return lambda a, b, cfg, truth: bad_variant(a, b, cfg, kind, truth)


# A grid yields (problem, cfg, truth, solves): apply is hashed at cfg, and
# each solve is called as solve(a, b, cfg, truth).
def paper(kappas=KAPPAS, betas=BETAS, seeds=SEEDS):
    solves = [_is("basic"), _is("momentum"), _sp(init="sketch_and_solve"), _sp(init="zero")]
    for kappa, beta, s in itertools.product(kappas, betas, seeds):
        q = gen_randsvd(4000, 50, kappa, beta, s)
        yield q, SolverConfig(d=1000, max_iters=100, rng_seed=s), q.truth, solves


def bad():
    q = gen_randsvd(4000, 50, 1e10, 1e-6, 0)
    kinds = ("bad_matrix", "bad_residual", "bad_init")
    yield q, SolverConfig(d=1000), q.truth, [_bad(kind) for kind in kinds]


def bad_zero():
    q = gen_randsvd(4000, 50, 1e10, 1e-6, 0)
    solves = [_bad(kind) for kind in ("bad_matrix", "bad_residual", "bad_init")]
    yield q, SolverConfig(d=1000, init="zero"), q.truth, [*solves, _is("momentum")]


def drift():
    q = gen_sparse(20000, 10, 0)
    for seed in range(4):
        cfg = SolverConfig(d=200, rng_seed=seed)
        yield q, cfg, None, [_is("basic"), _is("momentum"), _sp(), _sp(max_iters=3)]


def bench():
    tall = gen_randsvd(100_000, 100, 1e10, 1e-6, 7)
    workloads = [  # (instance, d, solver, pass truth)
        (gen_randsvd(4000, 50, 1e10, 1e-6, 7), 1000, iterative_sketching, True),
        (tall, 3000, iterative_sketching, False),
        (tall, 3000, sketch_and_precondition, False),
        (gen_sparse(200_000, 100, 7), 3000, iterative_sketching, False),
    ]
    for (q, d, solve, truth), seed in itertools.product(workloads, (3, 4)):
        cfg = SolverConfig(d=d, zeta=8, max_iters=100, rng_seed=seed)
        yield q, cfg, q.truth if truth else None, [solve]


GRIDS = {"paper": paper, "bad": bad, "bad_zero": bad_zero, "drift": drift, "bench": bench}


def _floats(h, values) -> None:
    h.update(np.asarray(values, dtype=float).tobytes())


def digest(grid) -> tuple[int, Counter, str]:
    """(solves, stop-reason counts, sha256) of the grid's sketches and solves."""
    h, reasons = hashlib.sha256(), Counter()
    for q, cfg, truth, solves in grid:
        s = SparseSignEmbedding(cfg.d, q.a.shape[0], cfg.zeta, cfg.rng_seed)
        h.update(s.apply(q.a, q.b).tobytes())
        for solve in solves:
            res = solve(q.a, q.b, cfg, truth)
            t = res.trace
            for v in (res.solution, *t.iterates):
                _floats(h, v)
            for values in (t.residual_changes, t.stop_thresholds, t.residual_norms, t.fe, t.re,
                           [t.normest, t.condest, t.epsilon, res.iterations]):
                _floats(h, values)
            h.update(t.stop_reason.encode())
            reasons[t.stop_reason] += 1
    return sum(reasons.values()), reasons, h.hexdigest()


def main() -> None:
    for name, grid in GRIDS.items():
        count, reasons, sha = digest(grid())
        counts = " ".join(f"{r}={c}" for r, c in sorted(reasons.items()))
        print(f"{name}: {count} solves, {counts}, sha256 {sha}")


if __name__ == "__main__":
    main()
