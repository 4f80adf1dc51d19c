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
    choose_dim,
    forward_error,
    gen_randsvd,
    gen_sparse,
    iterative_sketching,
    kernel_problem,
    lsqr,
    measure_distortion,
    qr_solve,
    residual_error,
    sketch_and_precondition,
    sketch_and_solve,
    svd_values,
    theoretical_bound_curve,
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


# (call, {count: its good value}): every count an entry takes from a caller
COUNTS = {
    "gen_randsvd": (lambda m, n, seed: gen_randsvd(m, n, 10.0, 0.1, seed), {"m": 40, "n": 3, "seed": 0}),
    "gen_sparse": (gen_sparse, {"m": 40, "n": 3, "seed": 0}),
    "kernel_problem": (
        lambda subset_size, seed: kernel_problem(A, B, subset_size=subset_size, seed=seed),
        {"subset_size": 5, "seed": 0}),
    "choose_dim": (lambda m, n: choose_dim(m, n, 1e-16, "basic"), {"m": 400, "n": 10}),
    "theoretical_bound_curve": (
        lambda iters: theoretical_bound_curve("damped", 0.1, 1.0, 1.0, 1.0, iters), {"iters": 3}),
}


@pytest.mark.parametrize("entry, name, value", [
    (entry, name, value) for entry, (_, counts) in COUNTS.items() for name in counts
    for value in [float(counts[name]), counts[name] + 0.5, *[True] * (name == "subset_size")]
])
def test_non_integer_count_refused_by_name(entry, name, value):
    # not NumPy's TypeError from inside, nor, for choose_dim, a d from a
    # fractional n
    call, counts = COUNTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}"):
        call(**{**counts, name: value})


@pytest.mark.parametrize("entry, name", [
    (entry, name) for entry, (_, counts) in COUNTS.items() for name in counts
    if name in ("seed", "iters")
])
def test_negative_seed_or_iters_refused_by_name(entry, name):
    # a seed as SparseSignEmbedding's rng_seed: not NumPy's "expected
    # non-negative integer" from default_rng, nor two empty bound curves
    call, counts = COUNTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
        call(**{**counts, name: -1})


@pytest.mark.parametrize("args, name", [
    ((np.where(A == A[7, 1], np.nan, A),), "A"),
    ((sp.csr_matrix(np.where(A == A[7, 1], np.inf, A)),), "A"),
    ((np.where(B == B[3], -np.inf, B),), "A"),
    ((A, np.where(B == B[3], np.nan, B)), "b"),
], ids=["dense", "csr", "vector", "b"])
def test_apply_refuses_non_finite_input(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite: its sketch holds a NaN or inf"):
        S.apply(*args)


@pytest.mark.parametrize("call, name", [
    (lambda: S.apply(np.full((40, 2), 1e308)), "A"),
    (lambda: S.apply(sp.csr_matrix(np.full((40, 2), 1e308))), "A"),
    (lambda: S.apply(np.full(40, 1e308)), "A"),
    (lambda: S.apply(A, np.full(40, 1e308)), "b"),
    (lambda: iterative_sketching(np.full((40, 3), 1e308), B, CFG), "A"),
], ids=["dense", "csr", "vector", "b", "solver"])
def test_apply_tells_a_finite_input_too_large_to_sketch(call, name):
    # its sketch overflows, so it is not called non-finite
    with pytest.raises(ValueError, match=f"^{name} is too large to sketch without overflow; scale it down"):
        call()


def test_nan_basis_refused_by_measure_distortion():
    # ||Q'Q - I|| is NaN, which the orthonormality test let through to an SVD
    # that did not converge
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((400, 5)))[0]
    q[17, 2] = np.nan
    with pytest.raises(ValueError, match="^basis is not orthonormal"):
        measure_distortion(SparseSignEmbedding(60, 400, 4, 0), q)


def test_sketch_and_solve_refuses_s_with_fewer_rows_than_a_has_columns():
    # by name, where S enters: not from the QR of the d x n sketch
    with pytest.raises(ValueError, match=r"^S must have d >= n = 3 rows, got d = 2"):
        sketch_and_solve(A, B, SparseSignEmbedding(2, 40, 1, 0))
