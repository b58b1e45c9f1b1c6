"""Tracking MPC with artificial steady-state input.

Every sampling instant solves a condensed QP in the decision vector
y = (v_0, ..., v_{N-1}, t): the predicted fast states are eliminated
through the nominal dynamics, and the artificial steady input is
v_a = p0 c + d t, with p0 = g_eff / |g_eff|^2 and d the unit vector
orthogonal to g_eff (steady_line), so it lies on the steady BIS line
g_eff . v_a = c for every t and the QP has no equality row. The
artificial steady state is x_a = (I - A)^-1 B v_a, and the terminal pair
(x_N, v_a) is constrained to the maximal admissible invariant set X_a.
X_a lies in the lambda-tightened input box on v_a it was built on, so
the QP has no box rows of its own on v_a, and the reachable steady
inputs are the BIS line clipped to that box (SteadyInputSet). The
applied drug rate is u = v_0 + D x_s, the tracking input plus the
slow-state compensation.

With n = 4 and N = 24 the dense Hessian is 49 x 49, small enough that
condensing beats a sparse KKT formulation.

A control step is one precomputed linear map of theta = (x_f, c, 1)
around the QP solve: the target level c is a parameter of the QP, next
to the state, as the reference is in explicit MPC. The cost, the rows
and the read-out are built once over w = (x_f, v_0 .. v_{N-1}, v_a) and
a constant 1, and mapped to the decision y and theta. The cost is the
sum of squares of weighted residual rows r = S_y y + S_theta theta. The
QP is one parametric family in theta (qp.QpFactor): H and A_in stay,
and f = F theta and b_in = B theta; H and F are blocks of 2 S'S for
S = [S_y S_theta]. retarget only validates the target and sets the c
entry of theta. One product of the step map with theta gives the
unconstrained minimiser z_u = -H^-1 f (refined once when the map is
built), the row residuals A_in z_u - b_in and everything the step reads
off its solution at y = z_u; f itself is formed only if read. Each step
builds a fresh theta, which its QP and the solution's KKT record keep
uncopied. The read-out is v_a, x_a, the predicted states and r, so the
reported cost is r . r, a sum of squares with nothing to cancel. The
output check reads the QP's own row residuals A_in y - b_in. When z_u
meets every row, as in most steps, the solve returns it, and the step
is that product, a max over the residuals and the output checks on the
same residuals; the solution's KKT residuals are formed only if read
(see qp). Otherwise the solve runs its start and dual loop from the
same z_u and residuals, the read-out adds the read-out matrix times
y - z_u to its rows of the product, the check forms b_in and
A_in y - b_in, and v_0, held on a bound of V by a working row, is
clipped into V against rounding. The applied input u = v_0 + D x_s is
formed apart from the read-out.

The controller owns one qp.WorkingSet for its QP family, its buffers
sized once, and each solve continues from the working set the previous
step ended with: consecutive steps that hold working rows differ by a
few rows, so such a step factorises nothing. Only an accepted step's
working set is carried. reset(), a step that returns z_u (its working
set is empty) and a step that raises (its QP failed or its plan failed
the output check) leave no row to carry, and the next solve starts from
the rows violated at its z_u. Each output reports the size of the
step's final working set as `active_rows`.

The fixed cost around that product is kept small, as most steps are
nothing else. The state check runs on Python floats: one concatenate
builds theta and x_s, and one loop over its entries tests
0 <= v < inf, which a NaN fails. The steady-line check reads the two
entries of v_a against g_eff, kept as floats by retarget, and u is
tested against U's bounds, kept as floats at construction: clip runs
only on a u outside them, and its move, against CLAMP_TOL, is the
output's `clamped`. ControlOutput is an immutable tuple record, as is
the QP's solution (see qp).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import qp
from .compensation import CompensationGain, InputBox
from .errors import ModelConfigError, SolverInfeasibleError
from .pkpd import (DiscreteDynamics, PdParams, as_fast_state, as_slow_state, ini_numbers,
                   ini_reject_unknown, steady_output_row)
from .terminal import TerminalIngredients, controllability_index, psd_sqrt, tighten_box

EQ_TOL = 1e-8
CLAMP_TOL = 1e-12  # clip of the applied input beyond which it is reported
N_MAX = 200  # largest horizon a controller config may set
PLANT_SUBSTEPS_MAX = 1000  # most plant substeps per sampling period a config may set


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


class ControlOutput(NamedTuple):
    u: np.ndarray
    v0: np.ndarray
    v_a: np.ndarray
    x_a: np.ndarray
    predicted_xf: np.ndarray
    cost: float
    solver_status: str
    qp_iterations: int = 0
    clamped: bool = False  # the clip into U moved u by more than CLAMP_TOL
    active_rows: int = 0  # rows of the QP's final working set


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


def steady_line(g_eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p0 = g_eff / |g_eff|^2 and the unit d orthogonal to g_eff: the
    steady inputs g_eff . v_a = c are the line v_a = p0 c + d t. Raises
    when g_eff = 0, the only degenerate row."""
    norm = np.linalg.norm(g_eff)
    if not norm > 0.0:
        raise ModelConfigError("steady output row is zero: no steady input moves BIS")
    return g_eff / (g_eff @ g_eff), np.array([-g_eff[1], g_eff[0]]) / norm


def steady_segment(zs: SteadyInputSet):
    """Endpoints of the admissible steady-input segment, ordered by v1: the
    interval of t where lower <= p0 c + d t <= upper. Raises when it is
    empty."""
    p0, d = steady_line(zs.g_eff)
    base = p0 * zs.c
    with np.errstate(divide="ignore"):  # d_i = 0: the bound holds for every t or none
        ends = np.sort((np.array([zs.lower, zs.upper]) - base) / d, axis=0)
    t_lo, t_hi = ends[0].max(), ends[1].min()
    if not t_lo <= t_hi:
        raise ModelConfigError("no admissible steady input for the BIS target")
    a, b = base + d * t_lo, base + d * t_hi
    return (a, b) if tuple(a) <= tuple(b) else (b, a)


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
        self._u_bounds = (U.lower.tolist(), U.upper.tolist())
        self.ing = ingredients
        self.cfg = cfg

        A, B = disc.A_f, disc.B
        N = cfg.N
        n, m = B.shape
        mN = m * N
        self.n, self.m, self.N = n, m, N
        self.ny = ny = mN + 1

        Gx, S = prediction_maps(A, B, N)
        A_N, S_N = Gx[N * n:], S[N * n:]
        self.T = np.linalg.solve(np.eye(n) - A, B)  # x_a = T v_a
        self._theta_tail = np.array([np.nan, 1.0])  # (c, 1), set by retarget
        self.retarget(cfg.y_ref)
        self.p0, self.d = steady_line(self.zs.g_eff)

        def y_theta(X, one=0.0):
            """Rows X over w = (x_f, v_0 .. v_{N-1}, v_a) plus `one` times 1
            as rows over (y, theta): X w + one = y_theta(X, one) (y, theta),
            since v_a = p0 c + d t."""
            x, v, v_a = np.split(X, [n, n + mN], axis=1)
            return np.column_stack([v, v_a @ self.d, x, v_a @ self.p0,
                                    np.broadcast_to(one, len(X))])

        # the cost is the sum of squares of residual rows over (w, 1): the
        # state deviations x_k - x_a (k = 0 .. N) weighted by Q^1/2 and, at
        # k = N, P^1/2, the input deviations v_k - v_a by R^1/2, and
        # a . v_a - b by sqrt(vd_weight). As rows S over (y, theta), H and F
        # (f = F theta) are blocks of 2 S'S, one product of S with itself
        Qh = np.kron(np.eye(N + 1), psd_sqrt(cfg.Q, "Q"))
        Qh[N * n:, N * n:] = psd_sqrt(ingredients.P, "P")
        Rh, vd = psd_sqrt(cfg.R, "R"), math.sqrt(cfg.vd.weight)
        residual = y_theta(np.vstack([
            Qh @ np.hstack([Gx, S, -np.tile(self.T, (N + 1, 1))]),
            np.hstack([np.zeros((mN, n)), np.kron(np.eye(N), Rh), -np.tile(Rh, (N, 1))]),
            vd * np.concatenate([np.zeros(n + mN), cfg.vd.coeffs])]),
            np.r_[np.zeros((N + 1) * n + mN), -vd * cfg.vd.offset])
        StS = residual.T @ residual
        self.H, F = _finite_cost(2.0 * StS[:ny, :ny]), 2.0 * StS[:ny, ny:]

        # rows: the box on v_0 .. v_{N-1}, then X_a (which bounds v_a), each
        # a row over (w, 1) that must be <= 0; the rhs b = B theta
        Fx, Fv = np.split(ingredients.X_a.F, [n], axis=1)
        box = np.eye(mN, n + mN + m, n)
        rows = np.vstack([box, -box, np.hstack([Fx @ A_N, Fx @ S_N, Fv])])
        bound = np.concatenate([np.tile(V.upper, N), -np.tile(V.lower, N), ingredients.X_a.g])
        A_theta = y_theta(rows, -bound)
        self.A_in = A_theta[:, :ny]
        self.qp_factor = qp.QpFactor(self.H, self.A_in, F=F, B=-A_theta[:, ny:])

        # read-out, over w: v_a, x_a, x_0 .. x_N, then the cost's residual
        # rows
        blocks = [np.eye(m, n + mN + m, n + mN),
                  np.hstack([np.zeros((n, n + mN)), self.T]),
                  np.hstack([Gx, S, np.zeros((len(Gx), m))])]
        readout = np.vstack([y_theta(np.vstack(blocks)), residual])
        self.readout_y = readout[:, :ny]
        ends = np.cumsum([len(b) for b in blocks] + [len(residual)])
        (self._va_rows, self._xa_rows, self._x_rows,
         self._cost_rows) = (slice(a, b) for a, b in zip([0, *ends[:-1]], ends))

        # the step map: theta -> (z_u, c) of the QP family, then the
        # read-out at y = z_u
        fam = self.qp_factor
        rows_z, rows_c = fam.rows
        self.step_map = _finite_cost(np.vstack([
            fam.theta_map, readout[:, ny:] + self.readout_y @ fam.theta_map[rows_z]]))
        self._out_rows = slice(rows_c.stop, None)
        self._ws = qp.WorkingSet(fam)
        self.reset()

    # -- helpers -----------------------------------------------------------

    def read_out(self, y: np.ndarray, p: qp.ParametricQp) -> np.ndarray:
        """Every quantity a step reads off its solution y of the step's QP
        p, stacked (see __init__): rows of the step map's values, which
        hold them at y = z_u, moved by the read-out matrix times y - z_u."""
        if y is p.z_u:
            return p.values[self._out_rows]
        out = self.readout_y @ (y - p.z_u)
        out += p.values[self._out_rows]
        return out

    def reset(self) -> None:
        """Start a new run: no working row carried, step count 0."""
        self._ws.clear()
        self._steps = 0

    def retarget(self, y_ref: float) -> None:
        """Set the BIS target, at construction or mid-run: the steady output
        level c is an entry of the step's parameter theta, so the QP family
        and every map stay (as do the terminal set and input boxes); raises
        when no steady input holds the target inside the lambda-tightened
        box that X_a allows."""
        self.zs = build_steady_input_set(self.disc, self.pd, y_ref, self.V, self.ing.lam)
        self.cfg = replace(self.cfg, y_ref=float(y_ref))
        self._g_eff = self.zs.g_eff.tolist()
        self._theta_tail[0] = self.zs.c

    # -- main entry --------------------------------------------------------

    def control_step(self, x_f, x_s) -> ControlOutput:
        """Solve the tracking QP at (x_f, x_s), continuing from the working
        set the previous accepted step ended with, and return
        u = v_0 + D x_s clipped into U. A clip that moves u by more than
        CLAMP_TOL sets the output's `clamped`. Raises SolverInfeasibleError
        when the QP fails or its optimum leaves the tightened box, the
        steady output line or X_a; its `step` counts the steps since
        reset(). A step that raises carries no working row to the next."""
        theta, x_s = _as_states(x_f, x_s, self._theta_tail)
        try:
            out = self._solve(theta, x_s)
        except BaseException as exc:
            self._ws.clear()  # only an accepted step's working set is carried
            if isinstance(exc, SolverInfeasibleError):
                exc.step = self._steps
            raise
        self._steps += 1
        return out

    def _solve(self, theta: np.ndarray, x_s: np.ndarray) -> ControlOutput:
        s = self.step_map @ theta
        problem = qp.ParametricQp(self.qp_factor, theta, s)
        sol = qp.qp_solve(problem, self._ws)
        if sol.status == "max_iter":
            raise SolverInfeasibleError(
                f"tracking QP stopped after {sol.iterations} iterations",
                report=sol.kkt_residuals, status=sol.status)
        if sol.status != "optimal":
            raise SolverInfeasibleError(
                f"tracking QP is infeasible: {_describe(sol.infeasibility_report)}",
                report=sol.infeasibility_report, status=sol.status)
        y = sol.z
        v0 = y[:self.m].copy()
        out = self.read_out(y, problem)
        v_a = out[self._va_rows]
        r = out[self._cost_rows]
        cost = float(r @ r)
        at_z_u = y is problem.z_u
        self._validate_output(y, v_a, problem.c if at_z_u else self.A_in @ y - problem.b_in)
        if not at_z_u:
            # working rows hold v_0 on a bound of V, which rounding can leave
            np.maximum(v0, self.V.lower, out=v0)
            np.minimum(v0, self.V.upper, out=v0)

        u = v0 + self.D @ x_s
        (lo1, lo2), (hi1, hi2) = self._u_bounds
        u1, u2 = u.tolist()
        clamped = False
        if not (lo1 <= u1 <= hi1 and lo2 <= u2 <= hi2):
            applied = u.clip(self.U.lower, self.U.upper)
            clamped = max(map(abs, (applied - u).tolist())) > CLAMP_TOL
            u = applied
        return ControlOutput(u, v0, v_a, out[self._xa_rows],
                             out[self._x_rows].reshape(self.N + 1, self.n), cost,
                             sol.status, sol.iterations, clamped, len(sol.active_set))

    def _validate_output(self, y, v_a, residuals) -> None:
        """The plan y against every row of its QP, from the row residuals
        A_in y - b_in (the box on each v_k, then X_a at the terminal pair),
        and v_a against the steady line at self.zs, each to EQ_TOL. A box
        row is named first: a v_k outside the box also moves the pair."""
        (va1, va2), (g1, g2) = v_a.tolist(), self._g_eff
        off_line = abs(g1 * va1 + g2 * va2 - self.zs.c) > EQ_TOL
        if not (off_line or residuals.max() > EQ_TOL):
            return
        m, mN = self.m, self.m * self.N
        if (box := residuals[:2 * mN] > EQ_TOL).any():
            k = int(box.argmax()) % mN // m
            raise SolverInfeasibleError(
                f"tracking input v_{k} = {y[k * m:(k + 1) * m]} left the tightened box")
        if off_line:
            raise SolverInfeasibleError("steady-output equality violated at the optimum")
        slack = residuals[2 * mN:]
        worst = int(np.argmax(slack))
        raise SolverInfeasibleError(
            f"terminal pair violates invariant-set row {worst} by {slack[worst]:.3g}"
        )


def _as_states(x_f, x_s, tail) -> tuple[np.ndarray, np.ndarray]:
    """theta = (x_f, tail) and x_s as float vectors, from one copy (the
    step's QP keeps theta); the 8 state entries are checked together with
    the tail, whose entries (c, 1) are positive, as Python floats in one
    pass (a NaN fails 0 <= v, so none slips by as it would past a min or
    max of the list). On failure the cause is named: a wrong length, a NaN
    or Inf, or a sign."""
    x = np.concatenate((x_f, tail, x_s), axis=None, dtype=float)
    if x.size == 10 and np.size(x_f) == 4:
        for v in x.tolist():
            if not 0.0 <= v < math.inf:
                break
        else:
            return x[:-4], x[-4:]
    as_fast_state(x_f)  # these raise on a wrong length or a NaN or Inf
    as_slow_state(x_s)
    raise ModelConfigError("negative concentrations passed to the controller")


def _finite_cost(X: np.ndarray) -> np.ndarray:
    """X, H or the step map, if finite: a cost too large for floats overflows."""
    if not np.isfinite(X).all():
        raise ModelConfigError("the cost keys 'Q_diag', 'R_diag', 'vd_weight', 'vd_coeffs' and "
                               "'vd_offset' give a QP that overflows in floating point")
    return X


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

    def positive_int(key, most):
        val = floats(key, 1)[0]
        if not (1 <= val <= most and val == int(val)):
            raise ModelConfigError(f"{path}: key '{key}' must be an integer in [1, {most}]")
        return int(val)

    mpc_cfg = MpcConfig(
        N=positive_int("N", N_MAX),
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
        plant_substeps=(positive_int("plant_substeps", PLANT_SUBSTEPS_MAX)
                        if cfg.has_option("controller", "plant_substeps") else 1),
    )
