"""The package's public namespace."""

import dataclasses

import itsketch
from itsketch import SolveResult, SolverConfig


def test_all_names_resolve():
    missing = [name for name in itsketch.__all__ if not hasattr(itsketch, name)]
    assert missing == []
    assert len(set(itsketch.__all__)) == len(itsketch.__all__)


def test_solver_config_fields():
    # every field is set by a caller; a new one must be added here on purpose
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "d", "zeta", "variant", "init", "max_iters", "rng_seed", "extra_iters",
    ]


def test_solve_result_fields():
    # bench/test_smoke.py builds SolveResult(x, SolveTrace(), cfg) positionally
    assert [f.name for f in dataclasses.fields(SolveResult)] == [
        "solution", "trace", "config",
    ]
