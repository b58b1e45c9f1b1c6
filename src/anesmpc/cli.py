"""Command-line entry point.

Subcommands:

* ``ingredients``: compute and write the controller construction bundle
  (K, P, psi, A_w, X_a, D, m_bar, V, steady segment) with a manifest;
* ``simulate``: run the closed loop, write the CSV log and optional SVGs;
* ``validate``: run the cross-module invariant checks, print a pass/fail
  matrix;
* ``steady-set``: print the admissible steady-input segment.

Exit codes: 0 success, 1 validation failure, 2 config/model error,
3 runtime infeasibility or QP iteration limit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, _svg, compensation, geometry, mpc, pkpd, qp, sim, terminal
from .errors import ModelConfigError, SolverInfeasibleError


@dataclass
class Bundle:
    """Everything derived from one (patient, controller-config) pair."""

    patient: pkpd.PatientModel
    cont: pkpd.ContinuousDynamics
    disc: pkpd.DiscreteDynamics
    gain: compensation.CompensationGain
    m_bar: np.ndarray
    U: compensation.InputBox
    V: compensation.InputBox
    zs: mpc.SteadyInputSet
    ingredients: terminal.TerminalIngredients
    controller: mpc.Controller
    file_cfg: mpc.ControllerFileConfig


def build_bundle(patient_path, config_path, ingredients_dir=None) -> Bundle:
    patient = pkpd.load_patient(patient_path)
    file_cfg = mpc.load_controller_config(config_path)
    cont = pkpd.build_continuous(patient.pk_propofol, patient.pk_remifentanil)
    disc = pkpd.discretize_euler(cont, file_cfg.Ts)
    gain = compensation.compensation_gain(disc)
    m_bar = compensation.disturbance_bound(
        disc, file_cfg.U, file_cfg.disturbance_bound_mode, fixed=file_cfg.m_bar)
    V = compensation.tracking_input_set(file_cfg.U, m_bar)
    cfg = file_cfg.mpc
    ing = None
    if ingredients_dir is not None:
        ing = _load_ingredients_bundle(Path(ingredients_dir), patient_path,
                                       config_path, cfg.lam)
    if ing is None:
        ing = terminal.compute_terminal_ingredients(disc, V, cfg.Q, cfg.R, cfg.lam)
    zs = mpc.build_steady_input_set(disc, patient.pd, cfg.y_ref, V, cfg.epsilon)
    ctrl = mpc.build_controller(disc, patient.pd, gain, V, file_cfg.U, zs, ing, cfg)
    return Bundle(patient=patient, cont=cont, disc=disc, gain=gain, m_bar=m_bar,
                  U=file_cfg.U, V=V, zs=zs, ingredients=ing, controller=ctrl,
                  file_cfg=file_cfg)


def _load_ingredients_bundle(outdir: Path, patient_path, config_path,
                             lam: float) -> terminal.TerminalIngredients | None:
    """Reuse a previously written ingredient bundle when its manifest
    matches the requested patient/config pair (paths and SHA-256 of their
    bytes, so an input edited in place forces a recompute); otherwise
    recompute."""
    manifest_path = outdir / "manifest.json"
    if not manifest_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError:
        return None
    if (manifest.get("subcommand") != "ingredients"
            or manifest.get("patient") != str(patient_path)
            or manifest.get("config") != str(config_path)
            or manifest.get("patient_sha256") != _sha256(patient_path)
            or manifest.get("config_sha256") != _sha256(config_path)
            or manifest.get("parameters", {}).get("lambda") != lam):
        return None
    try:
        return terminal.TerminalIngredients(
            K=geometry.load_matrix(outdir / "K.txt"),
            P=geometry.load_matrix(outdir / "P.txt"),
            psi=geometry.load_matrix(outdir / "psi.txt"),
            A_w=geometry.load_matrix(outdir / "A_w.txt"),
            X_a=geometry.load_polyhedron(outdir / "X_a.poly"),
            lam=lam,
            determination_index=int(manifest["parameters"]["determination_index"]),
        )
    except (OSError, KeyError, ValueError):
        return None


def _sha256(path) -> str:
    # imported on use: hashlib loads OpenSSL, ~4 MB resident, which a
    # build without manifests never needs
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(outdir: Path, subcommand: str, args, extra: dict) -> None:
    manifest = {
        "tool": "anesmpc",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "patient": str(args.patient),
        "config": str(args.config),
        "patient_sha256": _sha256(args.patient),
        "config_sha256": _sha256(args.config),
        "out": str(outdir),
        "parameters": extra,
    }
    path = outdir / "manifest.json"
    if path.exists():  # keep an ingredient bundle's manifest intact
        try:
            owner = json.loads(path.read_text()).get("subcommand")
        except json.JSONDecodeError:
            owner = None
        if owner is not None and owner != subcommand:
            path = outdir / f"manifest_{subcommand}.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_ingredients(args) -> int:
    bundle = build_bundle(args.patient, args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ing = bundle.ingredients
    geometry.save_matrix(outdir / "K.txt", ing.K)
    geometry.save_matrix(outdir / "P.txt", ing.P)
    geometry.save_matrix(outdir / "psi.txt", ing.psi)
    geometry.save_matrix(outdir / "A_w.txt", ing.A_w)
    geometry.save_polyhedron(outdir / "X_a.poly", ing.X_a)
    geometry.save_matrix(outdir / "D.txt", bundle.gain.D)
    geometry.save_matrix(outdir / "m_bar.txt", bundle.m_bar[None, :])
    geometry.save_matrix(outdir / "V.txt", np.vstack([bundle.V.lower, bundle.V.upper]))
    seg = mpc.steady_segment(bundle.zs)
    geometry.save_matrix(outdir / "steady_segment.txt", np.vstack(seg))
    write_manifest(outdir, "ingredients", args, {
        "lambda": bundle.file_cfg.mpc.lam,
        "epsilon": bundle.file_cfg.mpc.epsilon,
        "m_bar": [float(v) for v in bundle.m_bar],
        "disturbance_bound_mode": bundle.file_cfg.disturbance_bound_mode,
        "determination_index": ing.determination_index,
    })

    rho = float(np.max(np.abs(np.linalg.eigvals(ing.A_w[:4, :4]))))
    print(f"patient            {bundle.patient.label}")
    print(f"sampling period    {bundle.disc.Ts:g} s")
    print(f"lambda             {ing.lam:g}")
    print(f"m_bar              ({bundle.m_bar[0]:.6g}, {bundle.m_bar[1]:.6g}) "
          f"[{bundle.file_cfg.disturbance_bound_mode}]")
    print(f"V                  [{bundle.V.lower[0]:.6g}, {bundle.V.upper[0]:.6g}] x "
          f"[{bundle.V.lower[1]:.6g}, {bundle.V.upper[1]:.6g}]")
    print(f"closed-loop radius {rho:.6g}")
    print(f"X_a                {ing.X_a.nrows} rows, determined at k* = "
          f"{ing.determination_index}")
    print(f"steady segment     ({seg[0][0]:.6g}, {seg[0][1]:.6g}) -- "
          f"({seg[1][0]:.6g}, {seg[1][1]:.6g})")
    print(f"bundle written to  {outdir}")
    return 0


def run_simulate(args) -> int:
    bundle = build_bundle(args.patient, args.config, ingredients_dir=args.out)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    log = sim.simulate_closed_loop(
        bundle.disc, bundle.patient.pd, bundle.controller, args.duration,
        plant_substeps=bundle.file_cfg.plant_substeps, cont=bundle.cont)
    csv_path = outdir / "run.csv"
    log.to_csv(csv_path)
    met = sim.compute_metrics(log, bundle.file_cfg.mpc.y_ref,
                              bundle.file_cfg.settling_band)
    write_manifest(outdir, "simulate", args, {
        "duration": args.duration,
        "svg": bool(args.svg),
        "settling_band": bundle.file_cfg.settling_band,
        "plant_substeps": bundle.file_cfg.plant_substeps,
        "note": "solve_ms column carries wall-clock timing and is not reproducible",
    })
    if args.svg:
        _svg.line_plot(outdir / "bis.svg", log.t, {"BIS": log.bis},
                       "Hypnosis depth", "time [s]", "BIS")
        _svg.line_plot(outdir / "inputs.svg", log.t, {
            "u_p": log.u[:, 0], "u_r": log.u[:, 1],
            "v_p": log.v[:, 0], "v_r": log.v[:, 1],
            "va_p": log.v_a[:, 0], "va_r": log.v_a[:, 1],
        }, "Applied, tracking and steady inputs", "time [s]", "rate [mg/s | ug/s]")
        _svg.line_plot(outdir / "fast_states.svg", log.t, {
            "p1": log.x_f[:, 0], "p4": log.x_f[:, 1],
            "r1": log.x_f[:, 2], "r4": log.x_f[:, 3],
        }, "Fast-state concentrations", "time [s]", "concentration [mg/L | ug/L]")
    print(f"simulated {len(log)} steps ({args.duration:g} s at Ts = {bundle.disc.Ts:g} s)")
    print(f"settling time      {met.settling_time:g} s (band +-{bundle.file_cfg.settling_band:g})")
    print(f"undershoot         {met.undershoot:.2f}")
    print(f"final BIS error    {met.terminal_error:.3f}")
    print(f"median solve       {float(np.median(log.solve_ms)):.2f} ms")
    print(f"log written to     {csv_path}")
    return 0


# -- validate ---------------------------------------------------------------


def _check_cancellation(bundle, shared) -> tuple[bool, str]:
    disc, D = bundle.disc, bundle.gain.D
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        xf = rng.uniform(0.0, 5.0, 4)
        xs = rng.uniform(0.0, 5.0, 4)
        v = rng.uniform(0.0, 5.0, 2)
        full = disc.A_f @ xf + disc.B @ (v + D @ xs) + disc.A_s @ xs
        nominal = disc.A_f @ xf + disc.B @ v
        worst = max(worst, float(np.max(np.abs(full - nominal))))
    return worst <= 1e-12, f"max deviation {worst:.2e}"


def _check_dare(bundle, shared) -> tuple[bool, str]:
    cfg = bundle.file_cfg.mpc
    res = terminal.dare_residual(bundle.disc.A_f, bundle.disc.B, cfg.Q, cfg.R,
                                 bundle.ingredients.P)
    return res <= terminal.DARE_RESIDUAL_TOL, f"residual {res:.2e}"


def _check_invariance(bundle, shared) -> tuple[bool, str]:
    ing = bundle.ingredients
    samples = terminal.sample_invariant_set(ing, 1000, seed=1)
    W = samples.T
    for _ in range(200):
        if not np.all(ing.X_a.F @ W <= ing.X_a.g[:, None] + 1e-8):
            return False, "a trajectory left X_a"
        W = ing.A_w @ W
    return True, "1000 samples stayed in X_a for 200 steps"


def _check_invariance_lp(bundle, shared) -> tuple[bool, str]:
    ing = bundle.ingredients
    excess = terminal.invariance_excess(ing.A_w, ing.X_a)
    return excess <= 1e-9, (f"{ing.X_a.nrows} LPs, max over X_a of F_j A_w w - g_j "
                            f"= {excess:.2e}")


def _check_qp_oracle(bundle, shared) -> tuple[bool, str]:
    for trial, (sol, best) in enumerate(qp.oracle_trials(seed=2)):
        if sol.status != "optimal" or sol.kkt_residuals.max() > 1e-8:
            return False, f"trial {trial}: status {sol.status}"
        if abs(sol.objective - best) > 1e-6:
            return False, f"trial {trial}: objective off by {abs(sol.objective - best):.2e}"
    return True, "100 random QPs match enumeration to 1e-6"


def _nominal_log(bundle, shared):
    """The nominal 600 s closed loop, simulated once per validation run."""
    if "nominal_log" not in shared:
        bundle.controller.reset()
        shared["nominal_log"] = sim.simulate_closed_loop(
            bundle.disc, bundle.patient.pd, bundle.controller, 600.0)
    return shared["nominal_log"]


def _check_descent(bundle, shared) -> tuple[bool, str]:
    log = _nominal_log(bundle, shared)
    diffs = np.diff(log.cost[1:])
    ok = bool(np.all(diffs <= 1e-8))
    return ok, f"max cost increase {float(np.max(diffs)):.2e}"


def _check_recursive_feasibility(bundle, shared) -> tuple[bool, str]:
    log = _nominal_log(bundle, shared)
    ok = all(s == "optimal" for s in log.status)
    return ok, f"{len(log)} solves, all optimal" if ok else "a solve failed"


VALIDATION_CHECKS = (
    ("cancellation", _check_cancellation),
    ("dare-residual", _check_dare),
    ("invariant-set-sampling", _check_invariance),
    ("invariant-set-lp", _check_invariance_lp),
    ("qp-oracle", _check_qp_oracle),
    ("lyapunov-descent", _check_descent),
    ("recursive-feasibility", _check_recursive_feasibility),
)


def run_validation_checks(bundle, checks=VALIDATION_CHECKS):
    """Run (name, check) pairs on one bundle; each check is called as
    check(bundle, shared), where shared caches work that several checks
    read (the nominal closed-loop log) for this run only."""
    results = []
    shared = {}
    for name, fn in checks:
        tic = time.perf_counter()
        ok, detail = fn(bundle, shared)
        results.append((name, ok, detail, time.perf_counter() - tic))
    return results


def run_validate(args) -> int:
    bundle = build_bundle(args.patient, args.config)
    results = run_validation_checks(bundle)
    width = max(len(name) for name, *_ in results)
    all_ok = True
    for name, ok, detail, elapsed in results:
        mark = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{name:<{width}}  {mark}  {detail} ({elapsed:.2f} s)")
    if not all_ok:
        failed = ", ".join(name for name, ok, *_ in results if not ok)
        print(f"validation failed: {failed}")
    return 0 if all_ok else 1


def run_steady_set(args) -> int:
    bundle = build_bundle(args.patient, args.config)
    a, b = mpc.steady_segment(bundle.zs)
    g = bundle.zs.g_eff
    print(f"steady output row  g_eff = ({g[0]:.9g}, {g[1]:.9g})")
    print(f"target potency     c = {bundle.zs.c:.9g}")
    print(f"segment endpoints  ({a[0]:.6g}, {a[1]:.6g}) -- ({b[0]:.6g}, {b[1]:.6g})")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anesmpc",
        description="Constrained tracking MPC for propofol/remifentanil hypnosis control",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, out=False):
        p.add_argument("--patient", required=True, help="patient INI file")
        p.add_argument("--config", required=True, help="controller INI file")
        if out:
            p.add_argument("--out", required=True, help="output directory")

    p_ing = sub.add_parser("ingredients", help="compute and write the controller bundle")
    common(p_ing, out=True)
    p_sim = sub.add_parser("simulate", help="run the closed loop and write CSV/SVG")
    common(p_sim, out=True)
    p_sim.add_argument("--duration", type=float, default=600.0,
                       help="simulation length in seconds (default 600)")
    p_sim.add_argument("--svg", action="store_true", help="also write SVG plots")
    p_val = sub.add_parser("validate", help="run the cross-module invariant checks")
    common(p_val)
    p_ss = sub.add_parser("steady-set", help="print the admissible steady-input segment")
    common(p_ss)
    return parser


_RUNNERS = {
    "ingredients": run_ingredients,
    "simulate": run_simulate,
    "validate": run_validate,
    "steady-set": run_steady_set,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _RUNNERS[args.subcommand](args)
    except SolverInfeasibleError as exc:
        step = f" at step {exc.step}" if exc.step is not None else ""
        if exc.status == "max_iter":
            print(f"error: QP solver hit its iteration limit{step}: {exc}", file=sys.stderr)
        else:
            print(f"error: controller infeasible{step}: {exc}", file=sys.stderr)
        return 3
    except ModelConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
