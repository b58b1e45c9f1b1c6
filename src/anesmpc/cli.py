"""Command-line entry point: parses arguments, calls into
:mod:`anesmpc.pipeline` and prints. The subcommands are listed in
``make_parser``.

Exit codes: 0 success, 1 validation failure, 2 config/model error or a
failed polyhedron computation in the construction chain, 3 runtime
infeasibility or QP iteration limit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, _svg, mpc, pipeline, sim
from .errors import GeometryError, ModelConfigError, SolverInfeasibleError
from .pipeline import build_bundle


def run_ingredients(args) -> int:
    bundle = build_bundle(args.patient, args.config)
    outdir = Path(args.out)
    pipeline.save_ingredients(outdir, bundle, args.patient, args.config)

    ing, V = bundle.ingredients, bundle.controller.V
    seg = mpc.steady_segment(bundle.controller.zs)
    rho = float(np.max(np.abs(np.linalg.eigvals(ing.A_w[:4, :4]))))
    print(f"patient            {bundle.patient.label}")
    print(f"sampling period    {bundle.disc.Ts:g} s")
    print(f"lambda             {ing.lam:g}")
    print(f"m_bar              ({bundle.m_bar[0]:.6g}, {bundle.m_bar[1]:.6g})")
    print(f"V                  [{V.lower[0]:.6g}, {V.upper[0]:.6g}] x "
          f"[{V.lower[1]:.6g}, {V.upper[1]:.6g}]")
    print(f"closed-loop radius {rho:.6g}")
    print(f"X_a                {ing.X_a.nrows} rows, determined at k* = "
          f"{ing.determination_index}")
    print(f"steady segment     ({seg[0][0]:.6g}, {seg[0][1]:.6g}) -- "
          f"({seg[1][0]:.6g}, {seg[1][1]:.6g})")
    print(f"bundle written to  {outdir}")
    return 0


def run_simulate(args) -> int:
    bundle = build_bundle(args.patient, args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    log = pipeline.closed_loop(bundle, args.duration)
    csv_path = outdir / "run.csv"
    log.to_csv(csv_path)
    met = sim.compute_metrics(log, bundle.file_cfg.mpc.y_ref,
                              bundle.file_cfg.settling_band)
    pipeline.write_manifest(outdir, "simulate", args.patient, args.config, {
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


def run_validate(args) -> int:
    bundle = build_bundle(args.patient, args.config)
    results = pipeline.run_validation_checks(bundle)
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
    zs = bundle.controller.zs
    a, b = mpc.steady_segment(zs)
    g = zs.g_eff
    print(f"steady output row  g_eff = ({g[0]:.9g}, {g[1]:.9g})")
    print(f"target potency     c = {zs.c:.9g}")
    print(f"segment endpoints  ({a[0]:.6g}, {a[1]:.6g}) -- ({b[0]:.6g}, {b[1]:.6g})")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anesmpc",
        description="Constrained tracking MPC for propofol/remifentanil hypnosis control",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, run, out=False):
        p.set_defaults(run=run)
        p.add_argument("--patient", required=True, help="patient INI file")
        p.add_argument("--config", required=True, help="controller INI file")
        if out:
            p.add_argument("--out", required=True, help="output directory")

    p_ing = sub.add_parser("ingredients", help="compute and write the controller bundle")
    common(p_ing, run_ingredients, out=True)
    p_sim = sub.add_parser("simulate", help="run the closed loop and write CSV/SVG")
    common(p_sim, run_simulate, out=True)
    p_sim.add_argument("--duration", type=float, default=600.0,
                       help="simulation length in seconds (default 600)")
    p_sim.add_argument("--svg", action="store_true", help="also write SVG plots")
    p_val = sub.add_parser("validate", help="run the cross-module invariant checks")
    common(p_val, run_validate)
    p_ss = sub.add_parser("steady-set", help="print the admissible steady-input segment")
    common(p_ss, run_steady_set)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.run(args)
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
    except GeometryError as exc:
        print(f"error: polyhedron computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
