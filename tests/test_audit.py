"""The bit audit (tests/audit.py) repeats itself: a subset of its paper grid
hashes the same twice in one process and at one and two BLAS threads."""

from pathlib import Path

import audit
from blas_threads import probe_outputs

# 12 instances, 48 solves: stopped_by_rule, max_iters and lsqr_tolerance
SUBSET = {"kappas": (1e2, 1e14), "betas": (0.0, 1e-6, 10.0), "seeds": (0, 1)}


def test_paper_subset_hash_repeats_across_runs_and_threads():
    first, second = (audit.digest(audit.paper(**SUBSET)) for _ in range(2))
    assert first == second and first[0] == 48
    probe = (f"import sys; sys.path.insert(0, {str(Path(audit.__file__).parent)!r}); "
             f"import audit; print(audit.digest(audit.paper(**{SUBSET!r}))[2])")
    assert probe_outputs(probe) == [first[2] + "\n"] * 2
