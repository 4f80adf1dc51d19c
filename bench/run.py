"""Benchmark of the itsketch solvers: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. ``--trace 0`` times untraced solves and
prints the end-to-end metrics; ``--trace 1`` is the separate traced run and
prints the per-layer metrics. ``--workload all`` runs every workload in turn.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A results file
with provenance is written under bench/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
WORKLOAD_NAMES = ("paper-dense", "tall-dense", "tall-dense-sp", "sparse")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads() -> None:
    """Cap BLAS threads at the cores this process may use; must run before
    NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            asked = int(os.environ.get(var, nproc))
        except ValueError:
            asked = nproc
        os.environ[var] = str(max(1, min(asked, nproc)))


def _import_harness():
    """Import the harness against the checkout's own ``src``; exit with
    status 1 if the package is missing there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import itsketch
    except ImportError as exc:
        sys.exit(f"bench: cannot import itsketch from {src}: {exc}")
    if not Path(itsketch.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: itsketch was imported from {itsketch.__file__}, not {src}")
    import harness

    return harness


def _print_metrics(metrics: dict, notes: dict) -> None:
    for name, m in metrics.items():
        value = m["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        note = notes.get(name, "")
        print(f"  {name:<26} {shown:>14} {m['unit']:<9} {note}".rstrip())


def run_one(harness, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = harness.WORKLOADS[name]
    if trace:
        res = harness.measure_traced(wl, seed, seconds)
        notes = {
            "solvers.matvecs": "products with A or A' (counted)",
            "embed.s_bytes": "computed from array sizes",
            "solvers.trace_bytes": "computed from array sizes",
        }
    else:
        res = harness.measure(wl, seed, seconds)
        s = res["samples"]
        notes = {
            "solve_s": f"median of {s['solves']} solves",
            "solve_s_tail": f"p{s['tail_percentile']:.4g} of {s['solves']} solves",
            "setup_s": f"median of {s['setups']} setups",
            "peak_mem_mb": f"median of {s['peak_passes']} solves under tracemalloc",
        }
    out = res["outcomes"]
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": harness.provenance(seed),
        "samples": res["samples"],
        "metrics": res["metrics"],
        "extra": res["extra"],
        "attempted": out.attempted,
        "failed": out.failed,
        "first_error": out.first_error,
        "raw": res["raw"],
    }
    (RESULTS / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        res["tracer"].write(RESULTS / f"SPANS_{stem}.jsonl")

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"solves checked {out.attempted}, failed {out.failed}")
    _print_metrics(res["metrics"], notes)
    notes["failed_frac"] = f"{out.failed} of {out.attempted} solves"
    _print_metrics(res["extra"], notes)
    if out.first_error:
        print(f"  first failure: {out.first_error.strip().splitlines()[-1]}")
    print(f"  results: {os.path.relpath(RESULTS / f'BENCH_{stem}.json', ROOT)}")
    return {"attempted": out.attempted, "failed": out.failed, "metrics": res["metrics"]}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    _cap_blas_threads()
    harness = _import_harness()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = {n: run_one(harness, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    if len(runs) == 1:
        metrics = runs[args.workload]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in runs.items() for k, v in r["metrics"].items()}
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
