"""Span tracing for the benchmark's traced run.

Nothing here changes the package: spans are recorded by wrappers that the
harness installs around the public ``itsketch`` functions a solve calls, and
by a view of the matrix A that records each product with A or A'. Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

# span name -> (module, attribute) of every public function a solve calls.
# A name a later version no longer defines is skipped, and its metric reads 0.
FUNCTION_SPANS = {
    "embed.build": [("itsketch.embed", "sparse_sign_new")],
    "linalg.qr": [("itsketch.linalg", "householder_qr_econ")],
    "linalg.estimate": [
        ("itsketch.linalg", "rand_power_norm_est"),
        ("itsketch.linalg", "cond_est"),
    ],
    "linalg.trisolve": [
        ("itsketch.linalg", "tri_solve_upper"),
        ("itsketch.linalg", "tri_solve_upper_transpose"),
    ],
    "solvers.sketch_and_solve": [("itsketch.solvers", "sketch_and_solve")],
}
METHOD_SPANS = {
    "embed.apply": [
        ("itsketch.embed", "SparseSignEmbedding", "apply_dense"),
        ("itsketch.embed", "SparseSignEmbedding", "apply_sparse"),
        ("itsketch.embed", "SparseSignEmbedding", "apply_vec"),
    ],
}
ROOT_SPAN = "solvers.solve"
MATVEC_SPAN = "solvers.matvec"
# spans that build the sketch and its factor; the rest of a solve iterates
SETUP_SPANS = ("embed.build", "embed.apply", "linalg.qr", "linalg.estimate",
               "solvers.sketch_and_solve")


class Tracer:
    """In-memory span recorder. Each span is [solve, name, start, end, parent],
    where parent is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.solve = -1
        self.built_bytes: dict[int, int] = {}  # solve -> bytes of the S it built
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        rec = [self.solve, name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        sized = name == "embed.build"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if sized:
                self.built_bytes[self.solve] = (
                    self.built_bytes.get(self.solve, 0) + held_bytes(out))
            return out
        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for solve, name, start, end, parent in self.spans:
                f.write(json.dumps({"solve": solve, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function in each loaded ``itsketch`` module that
    holds it, so calls are seen whichever module makes them. Restores the
    originals on exit. Yields the list of wrapped names."""
    patches = []  # (owner, attribute, original)
    found = []
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "itsketch" or k.startswith("itsketch."))]
    for name, targets in FUNCTION_SPANS.items():
        for mod_name, attr in targets:
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if orig is None:
                continue
            found.append(f"{mod_name}.{attr}")
            wrapper = tracer.wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
    for name, targets in METHOD_SPANS.items():
        for mod_name, cls_name, attr in targets:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                continue
            found.append(f"{mod_name}.{cls_name}.{attr}")
            patches.append((cls, attr, orig))
            setattr(cls, attr, tracer.wrap(name, orig))
    try:
        yield found
    finally:
        for owner, key, orig in reversed(patches):
            setattr(owner, key, orig)


class _CountedDense(np.ndarray):
    """View of a dense A whose products ``A @ x`` are spans. ``A.T`` is a
    view of the same class, so ``A.T @ y`` is counted too."""

    def __array_finalize__(self, obj) -> None:
        self._tracer = getattr(obj, "_tracer", None)

    def __matmul__(self, other):
        return self._tracer.call(MATVEC_SPAN, np.matmul, self.view(np.ndarray), other)


class _CountedCsr(sp.csr_matrix):
    """Sparse A whose products with vectors are spans; ``.T`` is counted too."""

    def __matmul__(self, other):
        return self._tracer.call(MATVEC_SPAN, sp.csr_matrix.__matmul__, self, other)

    @property
    def T(self):
        return self._transposed


class _CountedCsc(sp.csc_matrix):
    def __matmul__(self, other):
        return self._tracer.call(MATVEC_SPAN, sp.csc_matrix.__matmul__, self, other)


def counted(a, tracer: Tracer):
    """A operand that records a span for each product with A or A'."""
    if sp.issparse(a):
        csr = _CountedCsr(a.tocsr())
        csr._transposed = _CountedCsc(csr.transpose())
        csr._tracer = csr._transposed._tracer = tracer
        return csr
    view = np.asarray(a).view(_CountedDense)
    view._tracer = tracer
    return view


def held_bytes(obj) -> int:
    """Bytes of the distinct NumPy buffers held by obj's fields, counting a
    list of floats as a float64 array. Computed from array sizes."""
    seen: set[int] = set()

    def size(v) -> int:
        if isinstance(v, np.ndarray):
            while isinstance(v.base, np.ndarray):
                v = v.base
            if id(v) in seen:
                return 0
            seen.add(id(v))
            return v.nbytes
        if sp.issparse(v):
            return sum(size(arr) for arr in (v.data, v.indices, v.indptr))
        if isinstance(v, (list, tuple)):
            return sum(8 if isinstance(e, float) else size(e) for e in v)
        return 0

    return sum(size(v) for v in vars(obj).values())


def _outermost(spans: list[list], idx: int, names) -> bool:
    parent = spans[idx][4]
    while parent >= 0:
        if spans[parent][1] in names:
            return False
        parent = spans[parent][4]
    return True


def breakdown(spans: list[list]) -> dict[int, dict]:
    """Per-solve totals derived from the spans.

    For each solve: ``dur`` of the root span; ``time``/``count`` per span
    name, counting only spans not nested in a span of the same name;
    ``children`` (summed duration of the root's direct children) and
    ``setup`` (outermost spans in SETUP_SPANS)."""
    out: dict[int, dict] = {}
    for i, (solve, name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(solve, {"dur": 0.0, "time": {}, "count": {},
                                     "children": 0.0, "setup": 0.0})
        dur = end - start
        if name == ROOT_SPAN and parent < 0:
            rec["dur"] = dur
            continue
        if parent >= 0 and spans[parent][1] == ROOT_SPAN:
            rec["children"] += dur
        if _outermost(spans, i, (name,)):
            rec["time"][name] = rec["time"].get(name, 0.0) + dur
            rec["count"][name] = rec["count"].get(name, 0) + 1
        if name in SETUP_SPANS and _outermost(spans, i, SETUP_SPANS):
            rec["setup"] += dur
    return out
