"""Closed-loop simulation of the 8-state patient under the tracking MPC.

The plant steps the same Euler discretization as the controller model
(nominal setting, no plant-model mismatch); an optional substep count
refines the plant integration for sensitivity studies. The controller
reads the exact fast and slow states.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelConfigError
from .mpc import Controller
from .pkpd import (ContinuousDynamics, DiscreteDynamics, PdParams, bis_output,
                   discretize_euler, full_step_matrices)

logger = logging.getLogger(__name__)

CSV_HEADER = "t,bis,u_p,u_r,v_p,v_r,va_p,va_r,p1,p4,r1,r4,p2,p3,r2,r3,status,solve_ms"


@dataclass
class SimLog:
    """Per-step closed-loop records; one row per control step."""

    t: np.ndarray
    bis: np.ndarray
    u: np.ndarray
    v: np.ndarray
    v_a: np.ndarray
    x_f: np.ndarray
    x_s: np.ndarray
    x_a: np.ndarray
    cost: np.ndarray
    status: list
    solve_ms: np.ndarray
    # working-set changes of each step's QP, the rows of its final working
    # set, and whether the clip into U moved the step's input by more than
    # mpc.CLAMP_TOL; not run.csv columns
    qp_iterations: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    active_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    clamped: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def __len__(self) -> int:
        return self.t.size

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for i in range(len(self)):
                nums = [self.t[i], self.bis[i], *self.u[i], *self.v[i],
                        *self.v_a[i], *self.x_f[i], *self.x_s[i]]
                fh.write(",".join(f"{x:.12g}" for x in nums)
                         + f",{self.status[i]},{self.solve_ms[i]:.12g}\n")


@dataclass(frozen=True)
class Metrics:
    settling_time: float
    undershoot: float
    terminal_error: float


def simulate_closed_loop(disc: DiscreteDynamics, pd: PdParams, ctrl: Controller,
                         duration: float, x0=None, plant_substeps: int = 1,
                         cont: ContinuousDynamics | None = None) -> SimLog:
    """Run the loop for `duration` seconds (a multiple of the sampling
    period) from the 8-state start x0 (default: fully awake, all zero),
    with plant_substeps Euler substeps of the plant per sampling period.
    Logs the run's first clamp of the applied input into U as a warning."""
    if not (isinstance(plant_substeps, numbers.Integral) and plant_substeps >= 1):
        raise ModelConfigError(f"plant_substeps must be an integer >= 1, got {plant_substeps!r}")
    Ts = disc.Ts
    ratio = duration / Ts
    steps = round(ratio) if math.isfinite(ratio) else 0  # NaN and inf have no step count
    if abs(steps * Ts - duration) > 1e-9 or steps < 1:
        raise ModelConfigError("duration must be a positive multiple of Ts")
    x = np.zeros(8) if x0 is None else np.asarray(x0, float).copy()
    if x.shape != (8,) or not np.all((0.0 <= x) & (x < np.inf)):  # NaN fails both
        raise ModelConfigError("x0 must be 8 finite nonnegative concentrations")

    if plant_substeps == 1:
        M, B = full_step_matrices(disc)
    else:
        if cont is None:
            raise ModelConfigError("plant substepping needs the continuous dynamics")
        M, B = full_step_matrices(discretize_euler(cont, Ts / plant_substeps))

    # a step's record keeps its vectors as floats: v_a and x_a are views of
    # the step's 444-entry read-out vector
    states, records, warned = np.empty((steps, 8)), [], False
    ctrl.reset()
    for k in range(steps):
        states[k] = x
        x_f, x_s = x[:4], x[4:]
        tic = time.perf_counter()
        out = ctrl.control_step(x_f, x_s)
        solve_ms = (time.perf_counter() - tic) * 1e3
        records.append((out.u.tolist(), out.v0.tolist(), out.v_a.tolist(), out.x_a.tolist(),
                        out.cost, out.solver_status, solve_ms, out.qp_iterations,
                        out.active_rows, out.clamped))
        if out.clamped and not warned:
            warned = True
            logger.warning("applied input clamped to the input box at step %d (u=%s); the "
                           "disturbance bound is too small for this trajectory", k, out.u)
        for _ in range(plant_substeps):
            x = M @ x + B @ out.u
    u, v, v_a, x_a, cost, status, solve_ms, iters, active, clamped = map(np.array, zip(*records))
    bis = np.array([bis_output(x_f, pd) for x_f in states[:, :4]])
    return SimLog(t=np.arange(steps) * Ts, bis=bis, u=u, v=v, v_a=v_a, x_f=states[:, :4],
                  x_s=states[:, 4:], x_a=x_a, cost=cost, status=status.tolist(),
                  solve_ms=solve_ms, qp_iterations=iters, active_rows=active, clamped=clamped)


def compute_metrics(log: SimLog, y_ref: float, band: float) -> Metrics:
    """Settling time (the time of the sample after the last one outside
    the band, NaN counting as outside: the first sample's when none is,
    inf when the last one is), undershoot and final tracking error."""
    if len(log) == 0:
        raise ModelConfigError("empty simulation log")
    outside = (~(np.abs(log.bis - y_ref) <= band)).nonzero()[0]
    first = outside[-1] + 1 if outside.size else 0
    settle = float(log.t[first]) if first < len(log) else math.inf
    return Metrics(
        settling_time=settle,
        undershoot=float(np.min(log.bis)),
        terminal_error=float(abs(log.bis[-1] - y_ref)),
    )
