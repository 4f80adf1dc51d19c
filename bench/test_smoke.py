"""Smoke test of the benchmark harness at tiny sizes (a few seconds):

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from itsketch import (  # noqa: E402
    SolveResult,
    SolveTrace,
    gen_randsvd,
    gen_sparse,
    iterative_sketching,
    sketch_and_precondition,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.05


def _dense(s):
    return gen_randsvd(800, 10, 1e8, 1e-6, s)


TINY = {
    "dense": harness.Workload("tiny-dense", _dense, iterative_sketching, 300, True),
    "dense-sp": harness.Workload("tiny-dense-sp", _dense, sketch_and_precondition, 300, False),
    "sparse": harness.Workload("tiny-sparse", lambda s: gen_sparse(1500, 10, s),
                               iterative_sketching, 300, False),
}
COUNTS = ("solvers.iters", "solvers.matvecs", "linalg.trisolve_calls",
          "embed.s_bytes", "solvers.trace_bytes", "fe_ratio")
# Small Python objects allocated inside SciPy differ by a few KiB between
# invocations, so peak memory repeats to this tolerance, not to the byte.
PEAK_TOLERANCE_MIB = 1 / 16


@pytest.fixture(autouse=True)
def _few_setups(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.0)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(kind):
    for measure, section in ((harness.measure, "end_to_end"),
                             (harness.measure_traced, "per_layer")):
        res = measure(TINY[kind], 3, SECONDS)
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == _units(section)
        for name, m in res["metrics"].items():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        assert res["outcomes"].failed == 0
        assert res["extra"]["failed_frac"]["value"] == 0.0


def test_run_prints_the_contract_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(harness.WORKLOADS, "paper-dense", TINY["dense"])
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.main(["--workload", "paper-dense", "--seed", "1",
                     "--seconds", str(SECONDS), "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == _units("end_to_end")
    record = json.loads((tmp_path / "BENCH_paper-dense_seed1_trace0.json").read_text())
    assert record["provenance"]["workload_seed"] == 1
    assert record["provenance"]["nproc"] >= 1


def _nan(a, b, cfg, truth):
    return SolveResult(np.full(a.shape[1], np.nan), SolveTrace(), cfg)


def _zeros(a, b, cfg, truth):
    return SolveResult(np.zeros(a.shape[1]), SolveTrace(), cfg)


def _diverged(a, b, cfg, truth):
    res = iterative_sketching(a, b, cfg, truth)
    res.trace.stop_reason = "diverged"
    return res


def _raises(a, b, cfg, truth):
    raise np.linalg.LinAlgError("stub")


@pytest.mark.parametrize("stub", [_nan, _zeros, _diverged, _raises])
def test_bad_solves_raise_failed_frac(stub):
    wl = harness.Workload("stub", _dense, stub, 300, False)
    for measure in (harness.measure, harness.measure_traced):
        res = measure(wl, 3, SECONDS)
        out = res["outcomes"]
        assert out.attempted >= harness.COUNTED
        assert out.failed == out.attempted
        assert res["extra"]["failed_frac"]["value"] == 1.0


@pytest.mark.parametrize("kind", sorted(TINY))
def test_counts_repeat_exactly(kind):
    def counts():
        traced = harness.measure_traced(TINY[kind], 5, SECONDS)["metrics"]
        timed = harness.measure(TINY[kind], 5, SECONDS)["metrics"]
        return ({k: traced[k]["value"] for k in COUNTS}, timed["peak_mem_mb"]["value"])

    (first, peak1), (second, peak2) = counts(), counts()
    assert first == second
    assert abs(peak1 - peak2) <= PEAK_TOLERANCE_MIB
