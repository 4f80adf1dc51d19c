"""How the public entries read caller arrays: through linalg's one
reader, which refuses a malformed input by name where it enters, reads a
list as its array and converts any other real dtype once."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from itsketch import (
    SolverConfig,
    SparseSignEmbedding,
    backward_error,
    bad_variant,
    forward_error,
    iterative_sketching,
    kernel_problem,
    lsqr,
    measure_distortion,
    qr_solve,
    residual_error,
    sketch_and_precondition,
    sketch_and_solve,
    svd_values,
)

_rng = np.random.default_rng(0)
A = _rng.standard_normal((40, 3))
B = _rng.standard_normal(40)
X = _rng.standard_normal(3)
R = qr_solve(A, B)[1]
Q = np.eye(40)[:, [3, 17, 29]]  # orthonormal in float32 too
S = SparseSignEmbedding(12, 40, 4, 0)
CFG = SolverConfig(d=12, max_iters=3)

# the malformed forms each kind of input can take
MATRIX = ["complex", "ragged-list", "1-d", "3-d"]
TALL = MATRIX + ["wide"]
VECTOR = ["complex", "ragged-list", "short", "length-1", "2-d"]
ANY_VECTOR = ["complex", "ragged-list", "2-d"]  # a length no other input fixes
# test_entry_input_handling draws IS's and SP's other forms of A and b, and
# their lists and other dtypes
DRAWN = {"A": (A, ["1-d", "3-d", "wide"]), "b": (B, ["2-d"])}

# entry: (call, {input: (its array, its malformed forms)}), inputs in call order
ENTRIES = {
    "iterative_sketching": (lambda A, b: iterative_sketching(A, b, CFG), DRAWN),
    "sketch_and_precondition": (lambda A, b: sketch_and_precondition(A, b, CFG), DRAWN),
    "bad_variant": (
        lambda A, b: bad_variant(A, b, CFG, "bad_matrix"), {"A": (A, TALL), "b": (B, VECTOR)}),
    "sketch_and_solve": (lambda A, b: sketch_and_solve(A, b, S), {"A": (A, TALL), "b": (B, VECTOR)}),
    "lsqr": (
        lambda A, b, x0, precond_r: lsqr(A, b, x0, precond_r, 3),
        {"A": (A, MATRIX), "b": (B, VECTOR), "x0": (X, VECTOR),
         "precond_r": (R, MATRIX + ["sparse", "short"])}),
    "qr_solve": (qr_solve, {"A": (A, TALL + ["sparse"]), "b": (B, VECTOR)}),
    "svd_values": (svd_values, {"A": (A, MATRIX + ["sparse"])}),
    "backward_error": (
        backward_error, {"A": (A, TALL + ["sparse"]), "b": (B, VECTOR), "x_hat": (X, VECTOR)}),
    "forward_error": (forward_error, {"x_true": (X, ANY_VECTOR), "x_hat": (X + 1, VECTOR)}),
    "residual_error": (residual_error, {"r_true": (B, ANY_VECTOR), "r_hat": (B + 1, VECTOR)}),
    "apply": (S.apply, {"A": (A, MATRIX + ["short"]), "b": (B, VECTOR)}),
    "measure_distortion": (
        lambda basis_q: measure_distortion(S, basis_q), {"basis_q": (Q, MATRIX + ["sparse"])}),
    "kernel_problem": (
        lambda points, targets: kernel_problem(points, targets, subset_size=5),
        {"points": (A, MATRIX + ["sparse"]), "targets": (B, VECTOR)}),
}


def _malformed(v: np.ndarray, form: str):
    if form == "ragged-list":  # the last row, or entry, one entry longer
        rows = v.tolist()
        rows[-1] = rows[-1] + [1.0] if v.ndim == 2 else [rows[-1], 1.0]
        return rows
    return {
        "complex": lambda: v * (1 + 1j), "1-d": lambda: v[:, 0], "3-d": lambda: v[..., None],
        "wide": lambda: v[:2], "sparse": lambda: sp.csr_matrix(v), "short": lambda: v[:-1],
        "length-1": lambda: v[:1], "2-d": lambda: v[:, None],
    }[form]()


def _call(entry: str, **replaced):
    call, inputs = ENTRIES[entry]
    return call(*[replaced.get(name, v) for name, (v, _) in inputs.items()])


def _bits(out) -> bytes:
    if dataclasses.is_dataclass(out):
        out = dataclasses.astuple(out)
    if isinstance(out, (tuple, list)):
        return b"".join(_bits(v) for v in out)
    if isinstance(out, str):
        return out.encode()
    return np.asarray(out, dtype=float).tobytes()


@pytest.mark.parametrize("entry, name, form", [
    (entry, name, form)
    for entry, (_, inputs) in ENTRIES.items() for name, (_, forms) in inputs.items() for form in forms
])
def test_malformed_input_refused_by_name(entry, name, form):
    # where it enters, as a ValueError whose message starts with the input's
    # name: never a 0.0 or a real-part result, nor an AttributeError, a
    # broadcast error or an unpack error from deeper in
    value = ENTRIES[entry][1][name][0]
    with pytest.raises(ValueError, match=f"^{name} "):
        _call(entry, **{name: _malformed(value, form)})


@pytest.mark.parametrize("form", ["list", "float32"])
@pytest.mark.parametrize("entry, name", [
    (entry, name) for entry, (_, inputs) in ENTRIES.items() if inputs is not DRAWN for name in inputs
])
def test_list_or_float32_input_gives_its_float64_arrays_bits(entry, name, form):
    value = ENTRIES[entry][1][name][0]
    if form == "list":
        given, as_float = value.tolist(), value
    else:
        given = value.astype(np.float32)
        as_float = given.astype(float)
    assert _bits(_call(entry, **{name: given})) == _bits(_call(entry, **{name: as_float}))
