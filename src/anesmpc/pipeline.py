"""The offline chain (PK/PD, compensation, terminal ingredients,
controller) from in-memory configs (``build``) or INI files
(``build_bundle``), the closed loop a bundle runs (``closed_loop``), the
ingredient files, the run manifest and the validation checks. Every run
builds from its two files; a written bundle is output only. Layers are
called through their module attributes, so a wrapper patched onto a
module sees every call."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, compensation, geometry, mpc, pkpd, qp, sim, terminal

@dataclass
class Bundle:
    """Everything derived from one (patient, controller-config) pair."""

    patient: pkpd.PatientModel
    cont: pkpd.ContinuousDynamics
    disc: pkpd.DiscreteDynamics
    gain: compensation.CompensationGain
    m_bar: np.ndarray
    ingredients: terminal.TerminalIngredients
    controller: mpc.Controller
    file_cfg: mpc.ControllerFileConfig


def build(patient: pkpd.PatientModel, file_cfg: mpc.ControllerFileConfig) -> Bundle:
    """Run the construction chain."""
    cont = pkpd.build_continuous(patient.pk_propofol, patient.pk_remifentanil)
    disc = pkpd.discretize_euler(cont, file_cfg.Ts)
    gain = compensation.compensation_gain(disc)
    m_bar = compensation.disturbance_bound(file_cfg.m_bar)
    V = compensation.tracking_input_set(file_cfg.U, m_bar)
    cfg = file_cfg.mpc
    # an input box whose lambda-shrunk part misses the steady segment is
    # named here, before X_a is built from its (possibly huge) rows
    mpc.build_steady_input_set(disc, patient.pd, cfg.y_ref, V, cfg.lam)
    ingredients = terminal.compute_terminal_ingredients(disc, V, cfg.Q, cfg.R, cfg.lam)
    ctrl = mpc.build_controller(disc, patient.pd, gain, V, file_cfg.U, ingredients, cfg)
    return Bundle(patient, cont, disc, gain, m_bar, ingredients, ctrl, file_cfg)


def build_bundle(patient_path, config_path) -> Bundle:
    """Load both files and build."""
    return build(pkpd.load_patient(patient_path), mpc.load_controller_config(config_path))


def closed_loop(bundle: Bundle, duration: float) -> sim.SimLog:
    """The closed loop `simulate` runs and `validate` checks: the bundle's
    controller on its plant, substepped as its config says."""
    return sim.simulate_closed_loop(
        bundle.disc, bundle.patient.pd, bundle.controller, duration,
        plant_substeps=bundle.file_cfg.plant_substeps, cont=bundle.cont)


# -- ingredient bundle files ------------------------------------------------


def save_ingredients(outdir, bundle: Bundle, patient_path, config_path) -> None:
    """Write K, P, psi, A_w, X_a, D, m_bar, V and the steady segment, with a
    manifest naming the two input files and their SHA-256 and recording
    X_a's invariance_excess, its LP proof of invariance (<= 1e-9 when
    invariant). The proof runs here, on writing, so a build without
    files does not pay for it."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ing, ctrl = bundle.ingredients, bundle.controller
    for name in ("K", "P", "psi", "A_w"):
        geometry.save_matrix(outdir / f"{name}.txt", getattr(ing, name))
    geometry.save_polyhedron(outdir / "X_a.poly", ing.X_a)
    geometry.save_matrix(outdir / "D.txt", bundle.gain.D)
    geometry.save_matrix(outdir / "m_bar.txt", bundle.m_bar[None, :])
    geometry.save_matrix(outdir / "V.txt", np.vstack([ctrl.V.lower, ctrl.V.upper]))
    geometry.save_matrix(outdir / "steady_segment.txt",
                         np.vstack(mpc.steady_segment(ctrl.zs)))
    write_manifest(outdir, "ingredients", patient_path, config_path, {
        "lambda": ing.lam,
        "m_bar": [float(v) for v in bundle.m_bar],
        "determination_index": ing.determination_index,
        "invariance_excess": terminal.invariance_excess(ing.A_w, ing.X_a),
    })


def _sha256(path) -> str:
    # imported on use: hashlib loads OpenSSL, ~4 MB resident, which a
    # build without manifests never needs
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(outdir: Path, subcommand: str, patient_path, config_path,
                   extra: dict) -> None:
    manifest = {
        "tool": "anesmpc",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "patient": str(patient_path),
        "config": str(config_path),
        "patient_sha256": _sha256(patient_path),
        "config_sha256": _sha256(config_path),
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


# -- validation checks ------------------------------------------------------


def _check_cancellation(bundle, shared) -> tuple[bool, str]:
    """With u = v + D x_s the full fast update exceeds the nominal one by
    exactly (A_s + B D) x_s; bound it over the whole state box [0, 5]^4."""
    disc = bundle.disc
    worst = 5.0 * float(np.abs(disc.A_s + disc.B @ bundle.gain.D).sum(axis=1).max())
    return worst <= 1e-12, f"max deviation {worst:.2e} over x_s in [0, 5]^4"


def _check_dare(bundle, shared) -> tuple[bool, str]:
    cfg = bundle.file_cfg.mpc
    res = terminal.dare_residual(bundle.disc.A_f, bundle.disc.B, cfg.Q, cfg.R,
                                 bundle.ingredients.P)
    return res <= terminal.DARE_RESIDUAL_TOL, f"residual {res:.2e}"


def _check_invariance_lp(bundle, shared) -> tuple[bool, str]:
    ing = bundle.ingredients
    excess = terminal.invariance_excess(ing.A_w, ing.X_a)
    lps = terminal.invariance_lps(ing.A_w, ing.X_a)
    return excess <= 1e-9, f"{lps} LPs, max over X_a of F_j A_w w - g_j = {excess:.2e}"


def _check_qp_oracle(bundle, shared) -> tuple[bool, str]:
    for trial, (problem, sol, best) in enumerate(qp.oracle_trials(seed=2)):
        if sol.status != "optimal" or sol.kkt_residuals.max() > 1e-8:
            return False, f"trial {trial}: status {sol.status}"
        if (off := abs(qp.objective(problem, sol.z) - best)) > 1e-6:
            return False, f"trial {trial}: objective off by {off:.2e}"
    return True, "100 random QPs match enumeration to 1e-6"


def _nominal_log(bundle, shared):
    """The nominal 600 s closed loop, simulated once per validation run."""
    if "nominal_log" not in shared:
        shared["nominal_log"] = closed_loop(bundle, 600.0)
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


def _check_disturbance_bound(bundle, shared) -> tuple[bool, str]:
    seen = np.abs(_nominal_log(bundle, shared).x_s @ bundle.gain.D.T).max(axis=0)
    m_bar = bundle.m_bar
    return bool(np.all(seen <= m_bar)), (
        f"max |D x_s| ({seen[0]:.3g}, {seen[1]:.3g}) vs m_bar ({m_bar[0]:g}, {m_bar[1]:g})")


VALIDATION_CHECKS = (
    ("cancellation", _check_cancellation),
    ("dare-residual", _check_dare),
    ("invariant-set-lp", _check_invariance_lp),
    ("qp-oracle", _check_qp_oracle),
    ("lyapunov-descent", _check_descent),
    ("recursive-feasibility", _check_recursive_feasibility),
    ("disturbance-bound", _check_disturbance_bound),
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
