"""Fast self-test of the benchmark harness (about a minute).

    python3 bench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and shows that
each output check fails on a corrupted log or build. Exits 1 on the first
failed expectation.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import replace

import run  # sets the BLAS pin and the import path of the program

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from anesmpc import cli, geometry, sim  # noqa: E402

OUT = run.BENCH / "out" / "selftest"


def expect(cond: bool, what: str) -> None:
    print(f"  {'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        sys.exit(1)


def expect_failure(fails: list, needle: str, what: str) -> None:
    expect(any(needle in f for f in fails), f"{what} -> {fails}")


def tiny_runs() -> None:
    print("workloads at tiny sizes")
    workloads.MIN_REPEATS = 1
    for trace in (False, True):
        for name in workloads.WORKLOADS:
            line, _ = run.run_workload(name, seed=1, seconds=0.0, trace=trace, builds=1,
                                       cohort_size=2, setpoint_s=3600.0, out_root=OUT)
            wanted = set(tracing.LAYER_METRICS) if trace else set(run.END_TO_END)
            if name == "cohort-build":  # no episodes: checks, and layers when traced
                wanted = wanted - {"trace.overhead_ms"} if trace else set()
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] > 0
                   and set(line["metrics"]) == wanted,
                   f"{name} trace={int(trace)}: correct, every metric reported")


def corrupted_checks() -> None:
    inputs = workloads.make_inputs("setpoint", 0, run.PACKAGE / "data", OUT / "inputs")
    bundle = cli.build_bundle(inputs.patient, inputs.config)
    cfg = bundle.file_cfg
    y_ref, band = cfg.mpc.y_ref, cfg.settling_band

    print("induction checks")
    log = sim.simulate_closed_loop(bundle.disc, bundle.patient.pd, bundle.controller,
                                   workloads.INDUCTION_S)
    kkt = [0.0] * len(log)
    expect(workloads.check_induction(log, kkt, 0, y_ref, band) == [], "reference log passes")

    def corrupt(**changes):
        arrays = {k: (v.copy() if isinstance(v, np.ndarray) else list(v))
                  for k, v in vars(log).items()}
        for key, (idx, value) in changes.items():
            arrays[key][idx] = value
        return replace(log, **arrays)

    check = workloads.check_induction
    expect_failure(check(corrupt(bis=(80, 30.0)), kkt, 0, y_ref, band), "settling",
                   "BIS out of band at 400 s")
    expect_failure(check(corrupt(bis=(20, 47.0)), kkt, 0, y_ref, band), "min BIS",
                   "undershoot to 47")
    expect_failure(check(corrupt(status=(7, "max_iter")), kkt, 0, y_ref, band), "not optimal",
                   "a max_iter solve")
    expect_failure(check(log, kkt[:-1] + [1e-6], 0, y_ref, band), "KKT", "KKT residual 1e-6")
    expect_failure(check(corrupt(cost=(50, log.cost[49] + 1.0)), kkt, 0, y_ref, band),
                   "cost rose", "cost increase at step 50")
    expect_failure(check(log, kkt, 1, y_ref, band), "differ", "an episode differing")
    other = corrupt(u=(3, log.u[3] + 1e-15))
    expect(not workloads.same_log(log, other) and workloads.same_log(log, corrupt()),
           "log comparison sees a 1e-15 change and ignores solve_ms")

    print("setpoint checks")
    schedule = [(0.0, 50.0), (1800.0, 40.0)]
    log = workloads.setpoint_episode(bundle, schedule, 3600.0)
    kkt = [0.0] * len(log)
    check = workloads.check_setpoint
    expect(check(log, kkt, 0, schedule, 3600.0) == [], "reference log passes")
    expect_failure(check(corrupt(status=(400, "infeasible")), kkt, 0, schedule, 3600.0),
                   "not optimal", "an infeasible solve")
    expect_failure(check(log, [1e-7] + kkt[1:], 0, schedule, 3600.0), "KKT",
                   "KKT residual 1e-7")
    expect_failure(check(corrupt(bis=(359, 53.0)), kkt, 0, schedule, 3600.0), "segment",
                   "BIS 53 at the end of the first segment")
    expect_failure(check(log, kkt, 2, schedule, 3600.0), "differ", "episodes differing")

    print("cohort-build checks")
    expect(workloads.check_cohort_build("ref", bundle) == [], "reference build passes")
    ing = bundle.ingredients
    bad_p = replace(bundle, ingredients=replace(ing, P=ing.P * 1.001))
    expect_failure(workloads.check_cohort_build("ref", bad_p), "DARE", "perturbed P")
    dim = ing.X_a.dim
    empty = geometry.Polyhedron(np.vstack([np.eye(dim)[:1], -np.eye(dim)[:1]]), [-1.0, 0.0])
    bad_x = replace(bundle, ingredients=replace(ing, X_a=empty))
    expect_failure(workloads.check_cohort_build("ref", bad_x), "empty", "empty X_a")


def main() -> int:
    logging.disable(logging.WARNING)  # the set-point loop's clamp warning
    tiny_runs()
    corrupted_checks()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
