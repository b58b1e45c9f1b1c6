"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Runs the reference scenario throughout: sample patient, Ts = 5 s, N = 24,
rate bounds [0, 6.67] mg/s x [0, 16.67] ug/s, Q = diag(1, 10, 1, 10),
R = I, offset cost 10 (v_a1 - v_a2 / 2)^2, target BIS 50.

Criterion 3 (steady-input ratio convergence within the 10-minute run) is
a known red: see its docstring and the failure message for the analysis.
"""

import time

import numpy as np
import pytest

from anesmpc import cli, mpc, pipeline, pkpd, qp, sim, terminal

from conftest import controller_path, patient_path
from oracles import sample_invariant_set, simulate_nominal_fast

TABLE_K_ABS = np.array([[0.671, 1.58, 0.0, 0.0], [0.0, 0.0, 0.677, 1.267]])
TABLE_P22, TABLE_P44 = 218.025, 58.574


def report(num, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


@pytest.fixture(scope="module")
def bundle():
    return cli.build_bundle(patient_path(), controller_path())


@pytest.fixture(scope="module")
def run(bundle):
    bundle.controller.reset()
    tic = time.perf_counter()
    log = sim.simulate_closed_loop(bundle.disc, bundle.patient.pd,
                                   bundle.controller, 600.0)
    wall = time.perf_counter() - tic
    return log, wall


def test_criterion_1_settling(bundle, run):
    log, wall = run
    met = sim.compute_metrics(log, 50.0, 2.0)
    ok = met.settling_time <= 300.0 and wall < 10.0
    assert report(1, ok, f"settling {met.settling_time:g} s (<= 300), "
                         f"runtime {wall:.2f} s (< 10)")


def test_criterion_2_input_convergence(run):
    log, _ = run
    mask = log.t >= 360.0
    dev = np.max(np.abs(log.v[mask] - log.v_a[mask]), axis=1)
    scale = np.max(np.abs(log.v_a[mask]), axis=1)
    worst = float(np.max(dev / scale))
    ok = worst <= 0.05
    assert report(2, ok, f"max |v - v_a|/|v_a| after 360 s = {worst:.4f} (<= 0.05)")


def test_criterion_3_ratio_convergence(run, bundle):
    """Known red. The closed loop does converge to the offset-cost
    minimizer (ratio 2) asymptotically, but with the reference tuning the
    drift along the BIS-50 equilibrium manifold is ~3e-5 per step: the
    equilibrium-relocation cost (terminal weight P22 = 218 acting through
    the steady-state gain, curvature ~3e3) dwarfs the offset-cost
    curvature 10 * 0.52, so reaching a 1e-3 ratio error takes days of
    simulated time, not 10 minutes. Raising the offset weight ~3600x
    makes this criterion pass but pins v_a from induction and pushes the
    BIS approach onto the slow propofol mode, breaking criterion 1
    (settling 340 s); no weight satisfies both.
    """
    log, _ = run
    va = log.v_a[-1]
    gap = abs(va[0] - va[1] / 2)
    ok = gap <= 1e-3 * va[1]
    # supporting evidence that the asymptotic claim itself is sound: the
    # offset-cost minimizer is strictly interior to the steady segment
    zs = bundle.controller.zs
    g = zs.g_eff
    v2_star = zs.c / (g[0] / 2 + g[1])
    v_star = np.array([v2_star / 2, v2_star])
    a, b = mpc.steady_segment(zs)
    lo, hi = min(a[0], b[0]), max(a[0], b[0])
    assert lo + 1e-6 < v_star[0] < hi - 1e-6, "minimizer not interior"
    assert report(3, ok, f"final |va1 - va2/2| = {gap:.6f} vs 1e-3 va2 = "
                         f"{1e-3 * va[1]:.6f}; the loop rests where induction "
                         f"ends (minimizer ({v_star[0]:.4f}, {v_star[1]:.4f}) is "
                         "interior and reached only asymptotically, "
                         "~3e-5/step with the reference tuning)")


def test_criterion_4_compensation_exactness(run, bundle):
    log, _ = run
    nominal = simulate_nominal_fast(bundle.disc, log.v)
    err = float(np.max(np.abs(nominal[:-1] - log.x_f)))
    ok = err <= 1e-9
    assert report(4, ok, f"nominal-vs-full fast-state divergence {err:.2e} (<= 1e-9)")


def test_criterion_5_dare_quality(bundle):
    cfg = bundle.file_cfg.mpc
    P, K = bundle.ingredients.P, bundle.ingredients.K
    res = terminal.dare_residual(bundle.disc.A_f, bundle.disc.B, cfg.Q, cfg.R, P)
    block = max(float(np.max(np.abs(P[:2, 2:]))), float(np.max(np.abs(P[2:, :2]))),
                float(np.max(np.abs(K[0, 2:]))), float(np.max(np.abs(K[1, :2]))))
    mask = TABLE_K_ABS > 0
    k_dev = float(np.max(np.abs(np.abs(K[mask]) - TABLE_K_ABS[mask]) / TABLE_K_ABS[mask]))
    p_dev = max(abs(P[1, 1] - TABLE_P22) / TABLE_P22, abs(P[3, 3] - TABLE_P44) / TABLE_P44)
    ok = res <= 1e-8 and block <= 1e-10 and k_dev < 0.10 and p_dev < 0.10
    detail = (f"residual {res:.1e}, cross-blocks {block:.1e}, |K| within "
              f"{100 * k_dev:.2f}%, P22/P44 within {100 * p_dev:.2f}% of the "
              "reference table (Eleveld-derived sample patient)")
    if k_dev >= 0.10 or p_dev >= 0.10:
        detail += " -- deviation exceeds 10%: check patient parameter provenance"
    assert report(5, ok, detail)


def test_criterion_6_invariant_set(bundle):
    tic = time.perf_counter()
    ing = terminal.compute_terminal_ingredients(
        bundle.disc, bundle.controller.V, bundle.file_cfg.mpc.Q, bundle.file_cfg.mpc.R,
        bundle.file_cfg.mpc.lam)
    build_time = time.perf_counter() - tic
    samples = sample_invariant_set(ing, 1000, seed=11)
    W = samples.T
    worst = -np.inf
    Wl = terminal.build_W_lambda(ing.K, ing.psi, bundle.controller.V, ing.lam)
    for _ in range(200):
        worst = max(worst, float(np.max(ing.X_a.F @ W - ing.X_a.g[:, None])))
        worst = max(worst, float(np.max(Wl.F @ W - Wl.g[:, None])))
        W = ing.A_w @ W
    ok = worst <= 1e-8 and ing.determination_index <= 500 and build_time < 60.0
    assert report(6, ok, f"1000 samples x 200 steps, worst slack {worst:.2e} "
                         f"(<= 1e-8), k* = {ing.determination_index} (<= 500), "
                         f"built in {build_time:.1f} s (< 60)")


def test_criterion_7_qp_oracle():
    worst_obj, worst_kkt = 0.0, 0.0
    for problem, sol, best in qp.oracle_trials(seed=2024, trials=100):
        assert sol.status == "optimal"
        worst_kkt = max(worst_kkt, sol.kkt_residuals.max())
        worst_obj = max(worst_obj, abs(qp.objective(problem, sol.z) - best))
    ok = worst_obj <= 1e-6 and worst_kkt <= 1e-8
    assert report(7, ok, f"100 QPs: max |obj - oracle| {worst_obj:.2e} (<= 1e-6), "
                         f"max KKT residual {worst_kkt:.2e} (<= 1e-8)")


def test_criterion_8_descent_and_feasibility(run):
    log, _ = run
    all_opt = all(s == "optimal" for s in log.status)
    max_rise = float(np.max(np.diff(log.cost[1:])))
    ok = all_opt and max_rise <= 1e-8
    assert report(8, ok, f"{len(log)} solves all optimal = {all_opt}, max cost "
                         f"increase after step 1 = {max_rise:.2e} (<= 1e-8)")


def test_criterion_9_steady_consistency(run, bundle):
    log, _ = run
    zs, T = bundle.controller.zs, bundle.controller.T
    eq_err = float(np.max(np.abs(log.v_a @ zs.g_eff - zs.c)))
    xa_err = float(np.max(np.abs(log.x_a - log.v_a @ T.T)))
    rng = np.random.default_rng(3)
    hill_err = 0.0
    for _ in range(100):
        e0 = rng.uniform(60.0, 100.0)
        pd = pkpd.PdParams(E0=e0, Emax=rng.uniform(0.8 * e0, 1.2 * e0),
                           gamma=rng.uniform(1.0, 4.0), Ce50p=rng.uniform(2.0, 8.0),
                           Ce50r=rng.uniform(10.0, 30.0))
        y = rng.uniform(max(pd.E0 - pd.Emax, 0.0) + 1.0, pd.E0 - 1.0)
        c = pkpd.hill_invert(y, pd)
        s = rng.uniform()
        xf = np.array([0.0, s * c * pd.Ce50p, 0.0, (1 - s) * c * pd.Ce50r])
        hill_err = max(hill_err, abs(pkpd.bis_output(xf, pd) - y))
    ok = eq_err <= 1e-8 and xa_err <= 1e-10 and hill_err <= 1e-10
    assert report(9, ok, f"max |g_eff va - c| {eq_err:.2e} (<= 1e-8), max "
                         f"|x_a - T va| {xa_err:.2e} (<= 1e-10), hill roundtrip "
                         f"{hill_err:.2e} (<= 1e-10)")


def test_criterion_10_performance(run, bundle):
    log, _ = run
    median_ms = float(np.median(log.solve_ms))
    tic = time.perf_counter()
    results = pipeline.run_validation_checks(bundle)
    validate_s = time.perf_counter() - tic
    ok = median_ms <= 50.0 and validate_s <= 120.0 and all(r[1] for r in results)
    assert report(10, ok, f"median solve {median_ms:.2f} ms (<= 50), validate "
                          f"suite {validate_s:.1f} s (<= 120), all checks pass")
