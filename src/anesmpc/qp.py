"""Dense convex QP solver: Goldfarb–Idnani dual active set on a cached factor.

Solves  min 0.5 z'Hz + f'z  s.t.  A_eq z = b_eq,  A_in z <= b_in.

The MPC re-solves one QP whose H, A_eq and A_in never change, so a
:class:`QpFactor` built once per controller (or inside a one-off
:func:`qp_solve`) caches the Cholesky factor of H (regularised once if it
fails), H^-1 A', the Gram matrix G = A H^-1 A' of A = [A_eq; A_in] and the
factor of the equality rows' block of G, which every solve starts from.

The dual method (Goldfarb & Idnani 1983) starts at z_u = -H^-1 f with the
equality rows in the working set S, adds the most violated inequality row
(lowest index on ties) and drops rows whose multipliers would turn negative.
Each iterate minimises the objective on S, so no phase I is needed: G_SS
lam = A_S z_u - b_S, A z = A z_u - G[:, S] lam, and the inverse Cholesky
factor of G_SS grows one row per added constraint. A hot start takes the
rows tight at a warm-start point into S with one Cholesky factorisation of
their block of G; when a pivot comes out near zero it admits them one at a
time instead, skipping dependent rows. Then it drops negative multipliers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

_FEAS_TOL = 1e-9
_REG_EIG_FLOOR = 1e-10
_REG_DELTA = 1e-9
_DEP_TOL = 1e-10  # squared pivot / G_pp at or below which a row is dependent


@dataclass(frozen=True)
class QpProblem:
    H: np.ndarray
    f: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_in: np.ndarray | None = None
    b_in: np.ndarray | None = None

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        n = H.shape[0]
        f = np.asarray(self.f, dtype=float).ravel()
        if H.shape != (n, n) or f.shape != (n,):
            raise ValueError("H must be square and f match its dimension")
        Aeq = np.zeros((0, n)) if self.A_eq is None else np.atleast_2d(np.asarray(self.A_eq, float))
        beq = np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, float).ravel()
        Ain = np.zeros((0, n)) if self.A_in is None else np.atleast_2d(np.asarray(self.A_in, float))
        bin_ = np.zeros(0) if self.b_in is None else np.asarray(self.b_in, float).ravel()
        if Aeq.shape != (beq.size, n) or Ain.shape != (bin_.size, n):
            raise ValueError("constraint matrix/vector dimensions are inconsistent")
        for name, val in (("H", H), ("f", f), ("A_eq", Aeq), ("b_eq", beq),
                          ("A_in", Ain), ("b_in", bin_)):
            object.__setattr__(self, name, val)

    @property
    def nvars(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    primal_eq: float
    primal_in: float
    complementarity: float

    def max(self) -> float:
        return max(self.stationarity, self.primal_eq, self.primal_in,
                   self.complementarity)


@dataclass(frozen=True)
class QpSolution:
    z: np.ndarray | None
    objective: float
    status: str  # "optimal" | "infeasible" | "max_iter"
    kkt_residuals: KktResiduals | None
    iterations: int = 0
    active_set: tuple = ()
    # on "infeasible": (row, violation) of the row that cannot be met, then
    # (row, weight) of each working row blocking it; rows are "A_eq[i]"/"A_in[i]"
    infeasibility_report: list = field(default_factory=list)


class QpFactor:
    """Everything fixed across QPs that share H, A_eq and A_in."""

    def __init__(self, H: np.ndarray, A_eq: np.ndarray, A_in: np.ndarray):
        self.source = (H, A_eq, A_in)
        self.H = 0.5 * (H + H.T)
        try:
            L = np.linalg.cholesky(self.H)
            if L.size and np.min(np.diag(L)) ** 2 < _REG_EIG_FLOOR:
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            self.H = self.H + _REG_DELTA * np.eye(len(H))
            L = np.linalg.cholesky(self.H)  # raises when H is indefinite
        self.H_inv = np.linalg.solve(L.T, np.linalg.solve(L, np.eye(len(H))))
        self.neq = A_eq.shape[0]
        self.A = np.vstack([A_eq, A_in])
        self.HinvAt = np.linalg.solve(L.T, np.linalg.solve(L, self.A.T))
        self.G = self.A @ self.HinvAt
        self.G = 0.5 * (self.G + self.G.T)
        eq = _WorkingSet(self.G)
        for j in range(self.neq):
            eq.admit(j)
        self.eq_rows, self.eq_Li = tuple(eq.rows), eq.Li  # every solve starts here


class _WorkingSet:
    """Working rows (indices into the stacked A) and the inverse Li of the
    lower Cholesky factor of their block of G, so G_SS^-1 = Li' Li. Li is
    replaced, never written in place: solves share QpFactor.eq_Li."""

    def __init__(self, G: np.ndarray, rows=(), Li: np.ndarray | None = None):
        self.G, self.rows = G, list(rows)
        self.Li = np.zeros((0, 0)) if Li is None else Li

    def solve(self, v: np.ndarray) -> np.ndarray:
        return self.Li.T @ (self.Li @ v)

    def pivot(self, j: int) -> tuple[np.ndarray, float, bool]:
        """G_SS^-1 G[S, j], the squared pivot of row j, and whether j depends on S."""
        g = self.G[self.rows, j]
        r = self.solve(g)
        d2 = float(self.G[j, j] - g @ r)
        return r, d2, d2 <= _DEP_TOL * self.G[j, j]

    def admit(self, j: int) -> None:
        r, d2, dependent = self.pivot(j)
        if not dependent:
            self.append(j, r, d2)

    def admit_all(self, rows: list[int]) -> None:
        """Admit rows with one Cholesky factorisation of the block of G over
        S + rows, kept only when every squared pivot passes the test of
        :meth:`pivot`; otherwise row by row, skipping dependent rows."""
        S = self.rows + rows
        try:
            L = np.linalg.cholesky(self.G[np.ix_(S, S)])
        except np.linalg.LinAlgError:
            L = None
        if L is not None and np.all(np.diag(L) ** 2 > _DEP_TOL * self.G[S, S]):
            self.rows, self.Li = S, np.linalg.solve(L, np.eye(len(S)))
        else:
            for j in rows:
                self.admit(j)

    def append(self, j: int, r: np.ndarray, d2: float) -> None:
        row = np.append(-r, 1.0) / np.sqrt(d2)
        self.Li = np.vstack([np.hstack([self.Li, np.zeros((len(r), 1))]), row])
        self.rows.append(j)

    def remove(self, pos: int) -> None:
        del self.rows[pos]
        L = np.linalg.cholesky(self.G[np.ix_(self.rows, self.rows)])
        self.Li = np.linalg.solve(L, np.eye(len(self.rows)))


def _residuals(p: QpProblem, factor: QpFactor, b: np.ndarray, z, lam) -> KktResiduals:
    """KKT residuals on the stacked rows A = [A_eq; A_in] and b = [b_eq; b_in],
    with lam the equality multipliers followed by the inequality ones."""
    neq = factor.neq
    grad = p.H @ z + p.f + factor.A.T @ lam
    r = factor.A @ z - b
    slack = r[neq:]
    return KktResiduals(float(np.max(np.abs(grad), initial=0.0)),
                        float(np.max(np.abs(r[:neq]), initial=0.0)),
                        float(np.max(slack, initial=0.0)),
                        float(np.max(np.abs(lam[neq:] * slack), initial=0.0)))


def qp_solve(p: QpProblem, warm_start: np.ndarray | None = None,
             max_iter: int = 500, factor: QpFactor | None = None) -> QpSolution:
    """Solve the QP; on "optimal" all KKT residuals are <= 1e-8.

    Hot-starts from the inequality rows tight (or violated) at
    ``warm_start``. ``factor`` must come from this problem's H, A_eq and
    A_in. Each working-set change is one iteration; past ``max_iter`` the
    current iterate is returned with status "max_iter".
    """
    if factor is None:
        factor = QpFactor(p.H, p.A_eq, p.A_in)
    elif any(a is not b for a, b in zip(factor.source, (p.H, p.A_eq, p.A_in))):
        raise ValueError("QpFactor was built for a different H, A_eq or A_in")
    neq, G = factor.neq, factor.G
    z_u = -(factor.H_inv @ p.f)
    z_u -= factor.H_inv @ (factor.H @ z_u + p.f)  # one refinement step
    b = np.concatenate([p.b_eq, p.b_in])
    c = factor.A @ z_u - b  # row residuals at z_u

    def finish(status, lam, it, extra=()):
        rows = ws.rows + [j for j, _ in extra]
        lam_all = np.zeros(c.size)
        lam_all[rows] = np.concatenate([lam, [t for _, t in extra]])
        z = z_u - factor.HinvAt @ lam_all
        np.maximum(lam_all[neq:], 0.0, out=lam_all[neq:])
        res = _residuals(p, factor, b, z, lam_all)
        return QpSolution(z, float(0.5 * z @ p.H @ z + p.f @ z), status, res, it,
                          tuple(sorted(j - neq for j in ws.rows[ne:])))

    def label(row):
        return f"A_eq[{row}]" if row < neq else f"A_in[{row - neq}]"

    def infeasible(report, it):
        return QpSolution(None, np.inf, "infeasible", None, it, infeasibility_report=report)

    ws = _WorkingSet(G, factor.eq_rows, factor.eq_Li)
    ne = len(ws.rows)
    if ne < neq:  # a dependent equality row must be implied by the others
        off = np.abs(c[:neq] - G[:neq, ws.rows] @ ws.solve(c[ws.rows]))
        if np.max(off) > _FEAS_TOL:
            return infeasible([(label(int(np.argmax(off))), float(np.max(off)))], 0)
    if warm_start is not None:
        tight = np.flatnonzero(p.A_in @ np.ravel(warm_start) - p.b_in >= -_FEAS_TOL)
        if tight.size:
            ws.admit_all((neq + tight).tolist())
    lam = ws.solve(c[ws.rows])

    it = 0
    while np.min(lam[ne:], initial=0.0) < 0.0:
        if it >= max_iter:
            return finish("max_iter", lam, it)
        it += 1
        ws.remove(ne + int(np.argmin(lam[ne:])))
        lam = ws.solve(c[ws.rows])

    while True:
        viol = c[neq:] - G[neq:, ws.rows] @ lam
        viol[[j - neq for j in ws.rows[ne:]]] = -np.inf
        i = int(np.argmax(viol)) if viol.size else -1
        if i < 0 or viol[i] <= _FEAS_TOL:
            return finish("optimal", lam, it)
        # raise the multiplier t of row j from 0 until the row is met,
        # dropping working rows whose multipliers reach zero first
        j, t, res_j = neq + i, 0.0, float(viol[i])
        while True:
            if it >= max_iter:
                return finish("max_iter", lam, it, extra=[(j, t)])
            it += 1
            r, d2, dependent = ws.pivot(j)  # d lam_S / d t = -r
            step_full = np.inf if dependent else res_j / d2
            pos = ne + np.flatnonzero(r[ne:] > 0.0)
            ratios = np.maximum(lam[pos], 0.0) / r[pos]
            step_drop = float(np.min(ratios, initial=np.inf))
            if dependent and not pos.size:
                big = np.abs(r) > 1e-12 * np.max(np.abs(r), initial=0.0)
                return infeasible([(label(j), res_j)] + [
                    (label(row), float(w)) for row, w, b in zip(ws.rows, r, big) if b], it)
            step = min(step_full, step_drop)
            lam, t, res_j = lam - step * r, t + step, res_j - step * d2
            if step_full <= step_drop:
                ws.append(j, r, d2)
                lam = ws.solve(c[ws.rows])
                break
            drop = int(pos[np.argmin(ratios)])
            ws.remove(drop)
            lam = np.delete(lam, drop)


def enumerate_active_sets(p: QpProblem) -> tuple[float, np.ndarray | None]:
    """Oracle for small QPs: solve the KKT system of every active-set
    guess (the equality rows plus each subset of the inequality rows),
    keep the primal feasible candidates and return the best objective and
    minimiser; (inf, None) when no candidate is feasible."""
    n = p.nvars
    q = p.A_in.shape[0]
    best_obj, best_z = np.inf, None
    for k in range(q + 1):
        for combo in itertools.combinations(range(q), k):
            C = np.vstack([p.A_eq, p.A_in[list(combo)]])
            d = np.concatenate([p.b_eq, p.b_in[list(combo)]])
            m = C.shape[0]
            KKT = np.block([[p.H, C.T], [C, np.zeros((m, m))]])
            try:
                z = np.linalg.solve(KKT, np.concatenate([-p.f, d]))[:n]
            except np.linalg.LinAlgError:
                continue
            if np.any(p.A_in @ z > p.b_in + 1e-8):
                continue
            if np.any(np.abs(p.A_eq @ z - p.b_eq) > 1e-8):
                continue
            obj = float(0.5 * z @ p.H @ z + p.f @ z)
            if obj < best_obj - 1e-12:
                best_obj, best_z = obj, z
    return best_obj, best_z


def oracle_trials(seed: int, trials: int = 100):
    """Yield (qp_solve solution, enumerated optimal objective) for random
    strictly convex QPs with 2-6 variables and 0-3 inequality rows around
    a feasible point."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        nq = int(rng.integers(0, 4))
        M = rng.normal(size=(n, n))
        H = M @ M.T + (0.5 + rng.uniform()) * np.eye(n)
        f = rng.normal(size=n)
        z0 = rng.normal(size=n)
        A_in = rng.normal(size=(nq, n))
        b_in = A_in @ z0 + rng.uniform(0.1, 1.0, nq)
        problem = QpProblem(H, f, A_in=A_in, b_in=b_in)
        yield qp_solve(problem), enumerate_active_sets(problem)[0]
