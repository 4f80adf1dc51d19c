"""The package's public namespace."""

import ast
import dataclasses
import pathlib

import itsketch
from itsketch import SolveResult, SolverConfig, SparseSignEmbedding


def test_all_names_resolve():
    missing = [name for name in itsketch.__all__ if not hasattr(itsketch, name)]
    assert missing == []
    assert len(set(itsketch.__all__)) == len(itsketch.__all__)


def test_all_is_pinned():
    # an export is added or removed here on purpose; the Householder QR that
    # forms Q lives in tests/reference.py, since only tests call it
    assert itsketch.__all__ == [
        "qr_solve", "tri_solve_upper", "tri_solve_upper_transpose", "svd_values",
        "SparseSignEmbedding", "DistortionReport", "measure_distortion", "choose_dim",
        "forward_error", "residual_error", "backward_error", "wedin_bounds",
        "LsProblem", "gen_randsvd", "gen_sparse", "kernel_problem", "load_csv",
        "SolverConfig", "SolveTrace", "SolveResult", "sketch_and_solve",
        "iterative_sketching", "sketch_and_precondition", "bad_variant", "lsqr",
        "damping_params", "momentum_params", "rate_g_is", "rate_g_damp", "rate_g_mom",
        "theoretical_bound_curve",
    ]
    assert len(itsketch.__all__) == 31


def test_sparse_sign_embedding_fields():
    # S is drawn from its seed whenever it is applied; no array is stored,
    # and one method applies it
    assert [f.name for f in dataclasses.fields(SparseSignEmbedding)] == [
        "d", "m", "zeta", "scale", "rng_seed",
    ]
    assert not {"matrix", "rows", "signs", "apply_vec", "apply_dense", "apply_sparse"} & set(
        dir(SparseSignEmbedding))


def test_solver_config_fields():
    # every field is set by a caller (test_every_solver_config_field_is_set);
    # a new one must be added here on purpose
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "d", "zeta", "variant", "init", "max_iters", "rng_seed",
    ]


def test_every_solver_config_field_is_set():
    # the keywords the package and the benchmark pass to SolverConfig(...) and
    # to dataclasses.replace(...), which only SolverConfig goes through there
    root = pathlib.Path(__file__).parents[1]
    paths = sorted(root.glob("src/itsketch/*.py")) + sorted(root.glob("bench/*.py"))
    assert paths
    set_by_callers = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("SolverConfig", "replace"):
                    set_by_callers |= {kw.arg for kw in node.keywords}
    assert set_by_callers == {f.name for f in dataclasses.fields(SolverConfig)}


def test_solve_result_fields():
    # bench/test_smoke.py builds SolveResult(x, SolveTrace(), cfg) positionally
    assert [f.name for f in dataclasses.fields(SolveResult)] == [
        "solution", "trace", "config",
    ]


def test_no_unused_imports():
    # a name a module imports must be used in it; __all__ counts as a use
    src = pathlib.Path(itsketch.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= {elt.value for elt in node.value.elts}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
