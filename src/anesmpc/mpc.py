"""Tracking MPC with artificial steady-state input.

Every sampling instant solves a condensed QP in the decision vector
y = (v_0, ..., v_{N-1}, t): the predicted fast states are eliminated
through the nominal dynamics, and the artificial steady input is
v_a = p0 c + d t, with p0 = g_eff / |g_eff|^2 and d the unit vector
orthogonal to g_eff, so it lies on the steady BIS line g_eff . v_a = c for
every t and the QP has no equality row; the target level c enters only the
linear term and the right-hand side. The artificial steady state is
x_a = (I - A)^-1 B v_a, and the terminal pair (x_N, v_a) is constrained to
the maximal admissible invariant set X_a. X_a lies in the lambda-tightened
input box on v_a it was built on, so the QP has no box rows of its own on
v_a, and the reachable steady inputs are the BIS line clipped to that box
(SteadyInputSet). The applied drug rate is u = v_0 + D x_s, the tracking
input plus the slow-state compensation.

With n = 4 and N = 24 the dense Hessian is 49 x 49, small enough that
condensing beats a sparse KKT formulation, and it makes the warm start a
plain index shift of the previous solution.

A control step is one precomputed affine map of x_f around the QP solve.
The QP is one parametric family in x_f (qp.QpFactor): H and A_in stay,
while the linear term f and the right-hand side of the X_a rows move
affinely with x_f. One product of the step map with x_f, plus its part
in c, which retarget sets, gives f, the unconstrained minimiser
z_u = -H^-1 f (refined once when the map is built), the row residuals
A_in z_u - b_in, everything the step reads off its solution at y = z_u,
and the quadratic part of the cost at y = 0, which the reported cost
adds to the QP's objective. The read-out is v_a, x_a, the predicted
states, the terminal-law input that closes the warm start, and the rows
the output check compares with one stacked bound vector (v_0 against
the tightened box, the terminal pair against X_a). When z_u meets every
row, as in most steps, the solve returns it, and the step is that
product, a max over the residuals, the stationarity and the output
checks. Otherwise the solve runs its start rule and dual loop from the
same z_u and residuals, forms b_in, and the read-out is one product of
the read-out matrix with (x_f, y). The applied input u = v_0 + D x_s is
formed apart from the read-out.
"""

from __future__ import annotations

import configparser
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import qp
from .compensation import CompensationGain, InputBox
from .errors import ModelConfigError, SolverInfeasibleError
from .pkpd import (DiscreteDynamics, PdParams, as_fast_state, as_slow_state, ini_numbers,
                   ini_reject_unknown, steady_output_row)
from .terminal import TerminalIngredients, controllability_index, tighten_box

logger = logging.getLogger(__name__)

EQ_TOL = 1e-8
TERMINAL_TOL = 1e-8
CLAMP_TOL = 1e-12  # clip of the applied input beyond which it is reported


@dataclass(frozen=True)
class VdSpec:
    """Offset cost q (a . v_a - b)^2 on the steady input."""

    weight: float = 10.0
    coeffs: tuple = (1.0, -0.5)
    offset: float = 0.0

    def __post_init__(self):
        if not self.weight >= 0.0:
            raise ModelConfigError(
                "offset cost weight 'vd_weight' must be nonnegative: a negative "
                "weight makes the offset cost concave")

    def __call__(self, v_a) -> float:
        v_a = np.asarray(v_a, float)
        a = np.asarray(self.coeffs, float)
        return float(self.weight * (a @ v_a - self.offset) ** 2)


@dataclass(frozen=True)
class MpcConfig:
    N: int = 24
    Q: np.ndarray = field(default_factory=lambda: np.diag([1.0, 10.0, 1.0, 10.0]))
    R: np.ndarray = field(default_factory=lambda: np.eye(2))
    lam: float = 0.99
    vd: VdSpec = field(default_factory=VdSpec)
    y_ref: float = 50.0

    def __post_init__(self):
        object.__setattr__(self, "Q", np.asarray(self.Q, float))
        object.__setattr__(self, "R", np.asarray(self.R, float))
        if self.N < 1:
            raise ModelConfigError("horizon N must be at least 1")
        if not 0.0 < self.lam < 1.0:
            raise ModelConfigError(
                "'lambda' must lie in (0, 1): the terminal invariant set is "
                "only finitely determined for lambda < 1"
            )


@dataclass(frozen=True)
class SteadyInputSet:
    """Admissible steady inputs: the line g_eff . v_a = c intersected with
    the tracking input box shrunk by lambda about its centre, the v_a box
    of W_lambda that X_a lies in."""

    g_eff: np.ndarray
    c: float
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class ControlOutput:
    u: np.ndarray
    v0: np.ndarray
    v_a: np.ndarray
    x_a: np.ndarray
    predicted_xf: np.ndarray
    cost: float
    solver_status: str
    qp_iterations: int = 0


def build_steady_input_set(disc: DiscreteDynamics, pd: PdParams, y_ref: float,
                           V: InputBox, lam: float) -> SteadyInputSet:
    """Steady inputs holding BIS y_ref in tighten_box(V, lam); raises if none."""
    g_eff, c = steady_output_row(disc, pd, y_ref)
    box = tighten_box(V, lam)
    zs = SteadyInputSet(g_eff=g_eff, c=c, lower=box.lower, upper=box.upper)
    try:
        steady_segment(zs)
    except ModelConfigError:
        raise ModelConfigError(
            f"no steady input for BIS {y_ref:g} lies in the input box "
            f"'u_min'/'u_max' shrunk by 'lambda' = {lam:g} about its centre, "
            "which the terminal set requires") from None
    return zs


def steady_segment(zs: SteadyInputSet):
    """Endpoints of the admissible steady-input segment (line clipped to
    the box). Raises when the intersection is empty."""
    g1, g2 = zs.g_eff
    if abs(g2) < 1e-15:
        raise ModelConfigError("steady output row is degenerate in the second input")
    # parametrize by v1 and clip the induced v2 range to its bounds
    lo1, hi1 = zs.lower[0], zs.upper[0]
    lo2, hi2 = zs.lower[1], zs.upper[1]
    # v2(v1) = (c - g1 v1)/g2, monotone in v1 (sign of -g1/g2)
    cands = []
    for v1 in (lo1, hi1):
        v2 = (zs.c - g1 * v1) / g2
        if lo2 - 1e-12 <= v2 <= hi2 + 1e-12:
            cands.append((v1, min(max(v2, lo2), hi2)))
    for v2 in (lo2, hi2) if abs(g1) > 1e-15 else ():
        v1 = (zs.c - g2 * v2) / g1
        if lo1 - 1e-12 <= v1 <= hi1 + 1e-12:
            cands.append((min(max(v1, lo1), hi1), v2))
    if not cands:
        raise ModelConfigError("no admissible steady input for the BIS target")
    pts = np.array(cands)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order[0]], pts[order[-1]]


def prediction_maps(A: np.ndarray, B: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Gx = [I; A; ...; A^N] and S, stacked so that x_k = A^k x0 + S_k v
    for k = 0 .. N. Block (k, j) of S is A^(k-1-j) B for j < k, so column
    block j is the stack A^0 B, ..., A^(N-1-j) B: a leading slice of one
    stack of the N products A^i B."""
    n, m = B.shape
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(A @ powers[-1])
    AiB = np.vstack([P @ B for P in powers[:N]])
    S = np.zeros(((N + 1) * n, m * N))
    for j in range(N):
        S[(j + 1) * n:, j * m:(j + 1) * m] = AiB[:(N - j) * n]
    return np.vstack(powers), S


class Controller:
    """Precomputed QP template plus the per-step solve. The admissible
    steady inputs `zs` follow from the target cfg.y_ref and the lambda of
    the terminal ingredients (see retarget)."""

    def __init__(self, disc: DiscreteDynamics, pd: PdParams, gain: CompensationGain,
                 V: InputBox, U: InputBox, ingredients: TerminalIngredients,
                 cfg: MpcConfig):
        ctrl_idx = controllability_index(disc.A_f, disc.B)
        if cfg.N < ctrl_idx:
            raise ModelConfigError(
                f"horizon N={cfg.N} below the controllability index {ctrl_idx}"
            )
        self.disc = disc
        self.pd = pd
        self.D = gain.D
        self.V = V
        self.U = U
        self.ing = ingredients
        self.cfg = cfg

        A, B = disc.A_f, disc.B
        N = cfg.N
        n, m = B.shape
        mN = m * N
        self.n, self.m, self.N = n, m, N

        Gx, S = prediction_maps(A, B, N)
        self.Gx = Gx
        self.T = np.linalg.solve(np.eye(n) - A, B)  # x_a = T v_a

        # z = (v_0 .. v_{N-1}, v_a) = E y + e c, the two-input steady line
        # parametrized by t; the cost and rows are built in z, then mapped
        g = steady_output_row(disc, pd, cfg.y_ref)[0]
        self.p0 = g / (g @ g)
        self.d = np.array([-g[1], g[0]]) / np.linalg.norm(g)
        E = np.zeros((mN + m, mN + 1))
        E[:mN, :mN] = np.eye(mN)
        E[mN:, mN] = self.d
        e = np.concatenate([np.zeros(mN), self.p0])
        self.ny = mN + 1

        # deviation map M: z -> stacked (x_k - x_a), constant part Gx x0
        M = np.hstack([S, -np.tile(self.T, (N + 1, 1))])
        Qbar = np.zeros(((N + 1) * n, (N + 1) * n))
        for k in range(N):
            Qbar[k * n:(k + 1) * n, k * n:(k + 1) * n] = cfg.Q
        Qbar[N * n:, N * n:] = ingredients.P
        Mv = np.hstack([np.eye(m * N), -np.tile(np.eye(m), (N, 1))])
        Rbar = np.kron(np.eye(N), cfg.R)

        a_sel = np.concatenate([np.zeros(mN), np.asarray(cfg.vd.coeffs, float)])
        H_z = 2.0 * (M.T @ Qbar @ M + Mv.T @ Rbar @ Mv
                     + cfg.vd.weight * np.outer(a_sel, a_sel))
        self.H = E.T @ (0.5 * (H_z + H_z.T)) @ E
        self.Qbar = Qbar
        # f = E'(2 M'Qbar Gx x0 - 2 w b a_sel + H_z e c); the objective is
        # the true cost less its value at y = 0, which is added back when
        # reporting it (see retarget)
        f_x = E.T @ (2.0 * (M.T @ Qbar @ Gx))
        self.f_const = E.T @ (-2.0 * cfg.vd.weight * cfg.vd.offset * a_sel)
        self.f_per_c = E.T @ (H_z @ e)

        # rows: the box on v_0 .. v_{N-1}, then X_a (which bounds v_a),
        # whose rhs moves with x_f by -Fx A_N x_f
        rows_v = np.hstack([np.eye(mN), np.zeros((mN, m))])
        F_xa, g_xa = ingredients.X_a.F, ingredients.X_a.g
        Fx, Fv = F_xa[:, :n], F_xa[:, n:]
        A_N, S_N = Gx[N * n:], S[N * n:]
        A_z = np.vstack([rows_v, -rows_v, np.hstack([Fx @ S_N, Fv])])
        self.A_in = A_z @ E
        self.b_in_base = np.concatenate([np.tile(V.upper, N), -np.tile(V.lower, N), g_xa])
        self.b_in_per_c = A_z @ e
        b_x = np.zeros((len(self.A_in), n))
        b_x[2 * mN:] = Fx @ A_N
        self.qp_factor = qp.QpFactor(self.H, self.A_in, F=f_x, B=b_x)

        # read-out: (x_f, v, v_a) -> v_a, x_a, x_0 .. x_N, the terminal-law
        # input K (x_N - T v_a) + v_a, then the checked rows v_0, -v_0 and
        # F_xN x_N + F_va v_a; with v_a = v_a0 + d t it is one product with
        # (x_f, y) plus the part at v_a0 = p0 c, which retarget sets
        K, sel_v0 = ingredients.K, np.eye(m, mN)
        blocks = [  # (x_f columns, v columns, v_a columns)
            (np.zeros((m, n)), np.zeros((m, mN)), np.eye(m)),
            (np.zeros((n, n)), np.zeros((n, mN)), self.T),
            (Gx, S, np.zeros((len(Gx), m))),
            (K @ A_N, K @ S_N, np.eye(m) - K @ self.T),
            (np.zeros((m, n)), sel_v0, np.zeros((m, m))),
            (np.zeros((m, n)), -sel_v0, np.zeros((m, m))),
            (Fx @ A_N, Fx @ S_N, Fv),
        ]
        bx, bv, self.readout_va = (np.vstack(cols) for cols in zip(*blocks))
        self.readout = np.hstack([bx, bv, (self.readout_va @ self.d)[:, None]])
        ends = np.cumsum([len(b[0]) for b in blocks])
        self._va_rows, self._xa_rows, self._x_rows, self._tail_rows = (
            slice(a, b) for a, b in zip([0, *ends[:3]], ends[:4]))
        self._checked_rows = slice(ends[3], None)
        # bounds of the checked rows: the tightened box, then X_a
        self.checked_bound = np.concatenate([V.upper + EQ_TOL, -(V.lower - EQ_TOL),
                                             g_xa + TERMINAL_TOL])

        # the step map: x_f -> (f, z_u, c) of the QP family, the read-out
        # at y = z_u, then cost_xx x_f, the cost's quadratic part at y = 0
        # (cost_xx = Gx'Qbar Gx); its part in c is set by retarget
        fam = self.qp_factor
        Z = fam.theta_map[fam.rows[1]]
        self.step_map = np.vstack([fam.theta_map, self.readout[:, :n] + self.readout[:, n:] @ Z,
                                   Gx.T @ Qbar @ Gx])
        q = fam.rows[2].stop
        self._out_rows = slice(q, q + len(self.readout))
        self._cost_rows = slice(q + len(self.readout), None)
        self._xy = np.empty(n + self.ny)
        self._warm_buf = np.empty(self.ny)
        self._clamp_warned = False
        self.retarget(cfg.y_ref)
        self.reset()

    # -- helpers -----------------------------------------------------------

    def read_out(self, x0: np.ndarray, y: np.ndarray, p: qp.ParametricQp) -> np.ndarray:
        """Every quantity a step reads off its solution y at the state x0,
        stacked (see __init__). At y = z_u of the step's QP p they are rows
        of the step map's values; at any other y, one product of the
        read-out matrix with (x0, y) plus its part at v_a0, set in
        retarget."""
        if y is p.z_u:
            return p.values[self._out_rows]
        xy = self._xy
        xy[:self.n], xy[self.n:] = x0, y
        out = self.readout @ xy
        out += self.readout_c
        return out

    def reset(self) -> None:
        """Start a new run: no warm start, step count 0."""
        self._warm: np.ndarray | None = None
        self._steps = 0

    def retarget(self, y_ref: float) -> None:
        """Set the BIS target, at construction or mid-run, by deriving the
        steady output level c and the part of the step map it sets (the
        terminal set and input boxes stay valid); raises when no steady
        input holds the target inside the lambda-tightened box that X_a
        allows."""
        self.zs = build_steady_input_set(self.disc, self.pd, y_ref, self.V, self.ing.lam)
        self.cfg = replace(self.cfg, y_ref=float(y_ref))
        c = self.zs.c
        self.b_in_c = self.b_in_base - c * self.b_in_per_c
        offset = self.qp_factor.offset(self.f_const + c * self.f_per_c, self.b_in_c)
        # the true cost at y = 0 (zero plan, steady input v_a0 = p0 c) as
        # x0'cost_xx x0 + cost_x'x0 + cost_at_zero, with x_k - x_a = Gx x0 - x_a0
        v_a0 = c * self.p0
        self.readout_c = self.readout_va @ v_a0
        x_a0 = np.tile(self.T @ v_a0, self.N + 1)
        cost_x = -2.0 * (self.Gx.T @ self.Qbar @ x_a0)
        self.cost_at_zero = (x_a0 @ self.Qbar @ x_a0 + self.N * v_a0 @ self.cfg.R @ v_a0
                             + self.cfg.vd(v_a0))
        z0 = offset[self.qp_factor.rows[1]]
        self.step_c = np.concatenate([offset, self.readout[:, self.n:] @ z0 + self.readout_c,
                                      cost_x])

    # -- main entry --------------------------------------------------------

    def control_step(self, x_f, x_s) -> ControlOutput:
        """Solve the tracking QP at (x_f, x_s), hot-started from the shifted
        previous plan, and return u = v_0 + D x_s clipped into U. The clip
        is always applied; the first one that moves u by more than
        CLAMP_TOL is logged as a warning. Raises SolverInfeasibleError when
        the QP fails or its optimum leaves the tightened box, the steady
        output line or X_a; its `step` counts the steps since reset()."""
        x_f, x_s = _as_states(x_f, x_s)
        try:
            out = self._solve(x_f, x_s)
        except SolverInfeasibleError as exc:
            exc.step = self._steps
            raise
        self._steps += 1
        return out

    def _solve(self, x_f: np.ndarray, x_s: np.ndarray) -> ControlOutput:
        s = self.step_map @ x_f
        s += self.step_c
        problem = qp.ParametricQp(self.qp_factor, x_f, s, self.b_in_c)
        sol = qp.qp_solve(problem, warm_start=self._warm)
        if sol.status == "max_iter":
            raise SolverInfeasibleError(
                f"tracking QP stopped after {sol.iterations} iterations",
                report=sol.kkt_residuals, status=sol.status)
        if sol.status != "optimal":
            raise SolverInfeasibleError(
                f"tracking QP is infeasible: {_describe(sol.infeasibility_report)}",
                report=sol.infeasibility_report, status=sol.status)
        y = sol.z
        mN = self.m * self.N
        v0 = y[:self.m].copy()
        out = self.read_out(x_f, y, problem)
        v_a, x_a = out[self._va_rows], out[self._xa_rows]
        w = self._warm_buf  # the plan shifted by one step, closed by the terminal law
        w[:mN - self.m], w[mN - self.m:mN], w[mN] = y[self.m:mN], out[self._tail_rows], y[mN]
        self._warm = w
        cost = sol.objective + float(x_f @ s[self._cost_rows]) + self.cost_at_zero

        u = v0 + self.D @ x_s
        clamped = u.clip(self.U.lower, self.U.upper)
        if not self._clamp_warned and np.abs(clamped - u).max() > CLAMP_TOL:
            logger.warning(
                "applied input clamped to the input box (u=%s); the "
                "disturbance bound is too small for this trajectory", u
            )
            self._clamp_warned = True
        u = clamped

        self._validate_output(v0, v_a, out[self._checked_rows])
        return ControlOutput(
            u=u, v0=v0, v_a=v_a, x_a=x_a,
            predicted_xf=out[self._x_rows].reshape(self.N + 1, self.n),
            cost=cost, solver_status=sol.status, qp_iterations=sol.iterations,
        )

    def _validate_output(self, v0, v_a, checked) -> None:
        """One comparison of the checked rows (v_0, -v_0, the X_a rows at the
        terminal pair) with their bounds, and the steady line at self.zs."""
        outside = checked > self.checked_bound
        off_line = abs(self.zs.g_eff @ v_a - self.zs.c) > EQ_TOL
        if not (off_line or outside.any()):
            return
        if outside[:2 * self.m].any():
            raise SolverInfeasibleError(f"tracking input {v0} left the tightened box")
        if off_line:
            raise SolverInfeasibleError("steady-output equality violated at the optimum")
        slack = checked[2 * self.m:] - self.ing.X_a.g
        worst = int(np.argmax(slack))
        raise SolverInfeasibleError(
            f"terminal pair violates invariant-set row {worst} by {slack[worst]:.3g}"
        )


def _as_states(x_f, x_s) -> tuple[np.ndarray, np.ndarray]:
    """(x_f, x_s) as float vectors, checked together over all 8 entries; on
    failure the cause is named: a wrong length, a NaN or Inf, or a sign."""
    x_f, x_s = np.asarray(x_f, float).ravel(), np.asarray(x_s, float).ravel()
    x = np.concatenate((x_f, x_s))  # a copy: the step's QP keeps x_f
    if x_f.size == x_s.size == 4 and 0.0 <= x.min() and x.max() < np.inf:
        return x[:4], x[4:]
    as_fast_state(x_f)  # these raise on a wrong length or a NaN or Inf
    as_slow_state(x_s)
    raise ModelConfigError("negative concentrations passed to the controller")


def _describe(report) -> str:
    """'<row> violated by <amount>, blocked by <rows>' from a QP
    infeasibility report."""
    (row, amount), *blockers = report
    blocked = f", blocked by {', '.join(r for r, _ in blockers)}" if blockers else ""
    return f"{row} violated by {amount:.3g}{blocked}"


def build_controller(disc: DiscreteDynamics, pd: PdParams, gain: CompensationGain,
                     V: InputBox, U: InputBox, ingredients: TerminalIngredients,
                     cfg: MpcConfig) -> Controller:
    return Controller(disc, pd, gain, V, U, ingredients, cfg)


@dataclass(frozen=True)
class ControllerFileConfig:
    """Everything a controller config file carries beyond MpcConfig."""

    mpc: MpcConfig
    Ts: float
    U: InputBox
    m_bar: np.ndarray
    settling_band: float
    plant_substeps: int


_CONTROLLER_KEYS = ("N", "Ts", "Q_diag", "R_diag", "lambda", "y_ref", "u_min", "u_max",
                   "m_bar", "vd_weight", "vd_coeffs", "vd_offset", "settling_band",
                   "plant_substeps")


def load_controller_config(path) -> ControllerFileConfig:
    """Read the [controller] section of an INI-style tuning file."""
    path = Path(path)
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not cfg.read(path):
        raise ModelConfigError(f"cannot read controller config {path}")
    ini_reject_unknown(cfg, {"controller": _CONTROLLER_KEYS}, path)

    def floats(key, count):
        return ini_numbers(cfg, "controller", key, count, path)

    def positive_int(key):
        val = floats(key, 1)[0]
        if val < 1 or val != int(val):
            raise ModelConfigError(f"{path}: key '{key}' must be an integer >= 1")
        return int(val)

    mpc_cfg = MpcConfig(
        N=positive_int("N"),
        Q=np.diag(floats("Q_diag", 4)),
        R=np.diag(floats("R_diag", 2)),
        lam=float(floats("lambda", 1)[0]),
        vd=VdSpec(
            weight=float(floats("vd_weight", 1)[0]),
            coeffs=tuple(floats("vd_coeffs", 2)),
            offset=float(floats("vd_offset", 1)[0]),
        ),
        y_ref=float(floats("y_ref", 1)[0]),
    )
    u_min, u_max = floats("u_min", 2), floats("u_max", 2)
    if np.any(u_min > u_max):
        raise ModelConfigError(f"{path}: key 'u_min' exceeds 'u_max'")
    settling_band = (float(floats("settling_band", 1)[0])
                     if cfg.has_option("controller", "settling_band") else 2.0)
    if not settling_band > 0.0:
        raise ModelConfigError(f"{path}: key 'settling_band' must be positive")
    return ControllerFileConfig(
        mpc=mpc_cfg,
        Ts=float(floats("Ts", 1)[0]),
        U=InputBox(lower=u_min, upper=u_max),
        m_bar=floats("m_bar", 2),
        settling_band=settling_band,
        plant_substeps=(positive_int("plant_substeps")
                        if cfg.has_option("controller", "plant_substeps") else 1),
    )
