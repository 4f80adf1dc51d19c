"""The bit audit (tests/audit.py): each grid hashes to the digest pinned for
this environment in tests/audit_pins.json, and a subset of its paper grid
hashes the same in this process and in fresh ones at one and two BLAS
threads.

The bits depend on the NumPy and SciPy builds and on the CPU kernels their
OpenBLAS copies chose at run time, and the bench grid's 1e5-row products
also on the BLAS thread count; a grid with no pin for its environment's key
is skipped, the key in the reason. A change that moves bits on purpose
updates the pins and names each changed grid.
"""

import ctypes
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

import audit
from blas_threads import probe_outputs
from itsketch import linalg

PINS = json.loads((Path(__file__).parent / "audit_pins.json").read_text())

# 12 instances, 48 solves: stopped_by_rule, max_iters and lsqr_tolerance
SUBSET = {"kappas": (1e2, 1e14), "betas": (0.0, 1e-6, 10.0), "seeds": (0, 1)}


def _openblas_config(package) -> str:
    """The run-time config string (version, build flags, chosen CPU kernel) of
    the OpenBLAS that package (numpy or scipy) ships in its `<name>.libs`."""
    symbol = linalg._find_openblas(package)
    get = symbol and symbol("get_config")
    if not get:
        return "no OpenBLAS found"
    get.restype = ctypes.c_char_p
    return get().decode()


def pin_key(grid: str) -> str:
    """The key of grid's pin in audit_pins.json for this environment."""
    key = (f"numpy {np.__version__}, scipy {scipy.__version__}; "
           f"NumPy's {_openblas_config(np)}; SciPy's {_openblas_config(scipy)}")
    if grid == "bench":
        numpy_threads, scipy_threads = (
            get() if get else "?" for get in (linalg._get_threads, linalg._scipy_get_threads))
        key += f"; BLAS threads {numpy_threads} (NumPy's), {scipy_threads} (SciPy's)"
    return key


@pytest.mark.parametrize("grid", audit.GRIDS)
def test_grid_hashes_to_its_pinned_digest(grid):
    key = pin_key(grid)
    pin = PINS.get(key, {}).get(grid)
    if pin is None:
        pytest.skip(f"no {grid} pin for {key!r}")
    assert audit.digest(audit.GRIDS[grid]())[2] == pin


def test_paper_subset_hash_repeats_across_runs_and_threads():
    first, second = (audit.digest(audit.paper(**SUBSET)) for _ in range(2))
    assert first == second and first[0] == 48
    probe = (f"import sys; sys.path.insert(0, {str(Path(audit.__file__).parent)!r}); "
             f"import audit; print(audit.digest(audit.paper(**{SUBSET!r}))[2])")
    assert probe_outputs(probe) == [first[2] + "\n"] * 2
