"""Run a Python probe in fresh interpreters at several BLAS thread counts.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when it is loaded, so each count
needs its own process.
"""

import os
import subprocess
import sys
from pathlib import Path

import itsketch


def probe_outputs(probe: str, threads=("1", "2")) -> list[str]:
    """The stdout of `python -c probe` at each OPENBLAS_NUM_THREADS value,
    with this checkout's itsketch importable."""
    path = os.pathsep.join(filter(None, [
        str(Path(itsketch.__file__).resolve().parents[1]),
        os.environ.get("PYTHONPATH"),
    ]))
    return [
        subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            timeout=300, env={**os.environ, "OPENBLAS_NUM_THREADS": t, "PYTHONPATH": path},
        ).stdout
        for t in threads
    ]
