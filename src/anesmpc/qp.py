"""Dense convex QP solver: Goldfarb–Idnani dual active set on a cached factor.

Solves  min 0.5 z'Hz + f'z  s.t.  A z <= b,  with A = A_in and b = b_in.

There are no equality rows: a caller with an equality eliminates it first,
as the MPC does with its steady output line. The MPC re-solves one QP whose
H and A never change while f and b move with its state and target, so it
is one parametric family (as in explicit MPC and qpOASES): a
:class:`QpFactor`, built once per controller (or by a one-off
:class:`QpProblem`), holds f = F theta and b = B theta, linear in a
parameter theta that may carry a constant 1. It keeps the square-root
rows M = A Li', with Li the inverse of the Cholesky factor L of H
(regularised once if it fails), and from them the Gram matrix
G = A H^-1 A' = M M', H^-1 A' = Li' M' and -H^-1 = -Li' Li. It keeps F
and B and caches one stacked map theta_map = [Z; A Z - B] of theta to
the unconstrained minimiser z_u = -H^-1 f and the row residuals
c = A z_u - b. Z = -H^-1 F is refined by one step when the family is
built, so a solve refines nothing. A QP is its family and theta, a
:class:`ParametricQp`: a caller that owns the family forms (z_u, c) in
one product and hands them over with theta, and f = F theta and
b = B theta are formed only if read. A plain :class:`QpProblem` is the
plain family's QP at theta = (f, b) (F = [I 0], B = [0 I]), so every
QP goes through the same start.

The dual method (Goldfarb & Idnani 1983) iterates on a working set S:
each iterate minimises the objective with the rows of S held as
equalities, so no phase I is needed: G_SS lam = A_S z_u - b_S and
A z = A z_u - G[:, S] lam, with z_u = -H^-1 f and G_SS^-1 = Li' Li for a
square Li. The loop adds the most violated row (violations within
_TIE_TOL of the largest tie, and the lowest index wins) and drops rows
whose multipliers would turn negative.

A solve continues from a :class:`WorkingSet` of its family, as the
online active-set strategy of qpOASES keeps its active set and its
factorisation along a parametric family (Ferreau, Bock & Diehl 2008).
When no row is violated at z_u, z_u is the optimum and the working set
is emptied. Otherwise S starts from the rows the working set carries
from the previous solve, with the Li and G[S, :] that solve left, so a
carried start factorises and evaluates nothing. With no row carried,
S starts from the rows violated at z_u (the cold rule): one QR
factorisation of their square-root rows, M_S' = Q R, the square-root
form in which Goldfarb and Idnani state the method, gives G_SS = R'R:
its squared pivots diag(R)^2, tested in one pass against the factor's
floors _DEP_TOL G_jj, end the leading run at the first that fails, and
the run goes in with Li = R'^-1, one inverse of R' read in place from
the lower triangle of the raw factor. The rows after the run go in one
at a time, skipping dependent rows. Either way the start then drops
multipliers below a rounding-level tolerance, most negative first (each
test is one argmin, and an argmax only past the tolerance), and the
dual loop runs from there. From rest, the MPC's cold solve thus admits
25 rows at once and takes 8 iterations where adding one row per
iteration took 27. The caller decides what is carried; in the MPC only
an accepted step's working set is carried, and reset() and a step that
raises empty it.

S, Li and G[:, S] live in three buffers sized once per working set for
min(rows, nvars) working rows, the most S can hold: nvars independent
rows span every row. S is kept as an index array, so gathering the
working entries of a vector converts no list. G[:, S] is kept as its
transpose, the rows G[S, :] (G is symmetric). An added row j writes one
entry or row of each in place: j, [-r, 1] / sqrt(d2) into Li, with
r = G_SS^-1 G[S, j] and squared pivot d2, and G[j, :]; this bordering
needs only Li' Li = G_SS^-1, not a triangular Li. The violation update
reads G[:, S] as a view. A dropped row shifts the buffered entries of S
and rows of G over it and deletes its column of Li; one Householder
reflection then restores Li' Li = G_SS^-1 in O(k^2) operations, with no
factorisation. A chain of such updates keeps Li' Li G_SS = I to 1e-10
on the MPC's runs (see the tests).

A solve starts from the row residuals c at z_u, which come with the
problem. When max c does not exceed _FEAS_TOL, as in most MPC steps,
the solve returns z_u with 0 iterations and S empty: nothing is
factorised, no working-set algebra runs, and a solve given no working
set builds none. No solve forms its KKT residuals: it returns a
:class:`KktRecord` that forms them on first read, once, from the family,
theta, z and either max c or the clipped lam. At z_u the primal residual
is max c, the multipliers and complementarity are exactly 0, and only
the stationarity H z + f is left to form; a solve that ends with working
rows recomputes every residual from (z, lam), f and b. The MPC reads
neither on a step that succeeds; the benchmark, ``validate`` and the
tests read both. The record copies nothing, so theta must not change
while it may still be read. No solve forms the objective (see
:func:`objective`).

A solution and the residuals its record forms are immutable tuple
records (``typing.NamedTuple``), not frozen dataclasses: most MPC steps
build a solution and little else, and a frozen dataclass sets each
field through ``object.__setattr__``, which costs several times a
tuple's construction. ``sol._replace(z=...)`` gives a copy with a field
changed.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

_FEAS_TOL = 1e-9
_REG_EIG_FLOOR = 1e-10
_REG_DELTA = 1e-9
_DEP_TOL = 1e-10  # squared pivot / G_pp at or below which a row is dependent
_LAM_TOL = 1e-12  # a start drops multipliers below -_LAM_TOL max(1, max |lam|)
_TIE_TOL = 1e-10  # violations within _TIE_TOL max(1, top) of the top one tie


class KktResiduals(NamedTuple):
    stationarity: float
    primal_in: float
    complementarity: float

    def max(self) -> float:
        return max(self.stationarity, self.primal_in, self.complementarity)


class KktRecord:
    """A solution's KKT residuals, formed on first read from the family,
    theta, z and lam, the clipped multipliers, or max c at z = z_u with
    no working row: :attr:`residuals` forms them once and drops the rest.
    theta is kept, not copied: it must not change while the record may
    still be read."""

    __slots__ = ("_factor", "_theta", "_z", "_lam", "_kkt")

    def __init__(self, factor: QpFactor, theta: np.ndarray, z: np.ndarray, lam):
        self._factor, self._theta, self._z, self._lam, self._kkt = factor, theta, z, lam, None

    @property
    def residuals(self) -> KktResiduals:
        if self._kkt is None:
            self._kkt = self._form()
            self._factor = self._theta = self._z = self._lam = None
        return self._kkt

    def max(self) -> float:
        return self.residuals.max()

    def _form(self) -> KktResiduals:
        fam, theta, z, lam = self._factor, self._theta, self._z, self._lam
        H, A_in = fam.source
        grad = H @ z + fam.F @ theta
        if not isinstance(lam, np.ndarray):  # z = z_u, lam is max c
            return KktResiduals(float(np.abs(grad).max(initial=0.0)), float(lam), 0.0)
        slack = A_in @ z - fam.B @ theta
        grad += A_in.T @ lam
        return KktResiduals(float(np.abs(grad).max(initial=0.0)),
                            float(slack.max(initial=0.0)),
                            float(np.abs(lam * slack).max(initial=0.0)))


class QpSolution(NamedTuple):
    z: np.ndarray | None
    status: str  # "optimal" | "infeasible" | "max_iter"
    kkt_residuals: KktRecord | None
    iterations: int = 0
    active_set: tuple = ()
    # on "infeasible": (row, violation) of the row that cannot be met, then
    # (row, weight) of each working row blocking it; rows are named "A_in[i]"
    infeasibility_report: tuple = ()


class QpFactor:
    """A family of QPs that share H and A_in, with f and b linear in a
    parameter theta: f = F theta and b = B theta. Without F and B it is
    the family of plain QPs, theta = (f, b) (F = [I 0], B = [0 I]).

    Caches the square-root rows M = A Li' (Li the inverse of the
    Cholesky factor of H), -H^-1 = -Li' Li, H^-1 A' = Li' M', the Gram
    matrix G = A H^-1 A' = M M', the floors _DEP_TOL G_jj at or below
    which a squared pivot is dependent, the lower-triangular mask with
    which a start reads its QR factor, F, B and the stacked map
    theta_map = [Z; A_in Z - B] of theta to (z_u, c): Z = -H^-1 F, refined
    once, gives z_u, and A_in Z - B the row residuals c = A_in z_u - b."""

    def __init__(self, H: np.ndarray, A_in: np.ndarray, F: np.ndarray | None = None,
                 B: np.ndarray | None = None):
        self.source = (H, A_in)
        self.H = 0.5 * (H + H.T)
        try:
            L = np.linalg.cholesky(self.H)
            if L.size and np.min(np.diag(L)) ** 2 < _REG_EIG_FLOOR:
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            self.H = self.H + _REG_DELTA * np.eye(len(H))
            L = np.linalg.cholesky(self.H)  # raises when H is indefinite
        # H^-1 = Li' Li from one inverse Li of the factor; G = M M' is
        # symmetric to the bit (one product of M with its own transpose)
        Li = np.linalg.inv(L)
        self.neg_H_inv = -(Li.T @ Li)
        self.M = A_in @ Li.T
        self.HinvAt = Li.T @ self.M.T
        self.G = self.M @ self.M.T
        q, n = A_in.shape
        self.lower = np.tri(min(q, n))  # reads R' faster than qr's mode "r" (triu)
        self.dep_floor = _DEP_TOL * np.diag(self.G)
        if F is None:
            F, B = np.eye(n, n + q), np.eye(q, n + q, n)
        self.F, self.B = F, B
        Z = self.unconstrained(F)
        self.theta_map = np.vstack([Z, A_in @ Z - B])
        self.rows = (slice(0, n), slice(n, n + q))  # z_u, c

    def unconstrained(self, f: np.ndarray) -> np.ndarray:
        """-H^-1 f with one refinement step, for a vector f or for each
        column of a matrix f."""
        z = self.neg_H_inv @ f
        z += self.neg_H_inv @ (self.H @ z + f)
        return z


class ParametricQp:
    """The QP of a family at theta: z_u = -H^-1 f and the row residuals
    c = A_in z_u - b are read off values, the family's theta_map times
    theta (values may hold more rows after those). c is a view; z_u is a
    copy, so the solution that returns it keeps no other row of values
    alive. f = F theta and b = B theta are formed on first read: a solve
    whose z_u meets every row reads neither. theta is kept, not copied: it
    must not change while the QP or a record of its solution may still be
    read."""

    __slots__ = ("factor", "theta", "values", "H", "A_in", "z_u", "c", "_f", "_b_in")

    def __init__(self, factor: QpFactor, theta: np.ndarray, values: np.ndarray):
        self.factor, self.theta, self.values = factor, theta, values
        self.H, self.A_in = factor.source
        rows_z, rows_c = factor.rows
        self.z_u, self.c = values[rows_z].copy(), values[rows_c]
        self._f = self._b_in = None

    @property
    def f(self) -> np.ndarray:
        if self._f is None:
            self._f = self.factor.F @ self.theta
        return self._f

    @property
    def b_in(self) -> np.ndarray:
        if self._b_in is None:
            self._b_in = self.factor.B @ self.theta
        return self._b_in

    @property
    def nvars(self) -> int:
        return self.H.shape[0]


class QpProblem(ParametricQp):
    """The plain QP  min 0.5 z'Hz + f'z  s.t.  A_in z <= b_in  (no rows
    without A_in and b_in): the plain family's QP at theta = (f, b), on a
    factor built here. Every entry must be finite; f and b_in are kept as
    given, float arrays uncopied."""

    __slots__ = ()

    def __init__(self, H, f, A_in=None, b_in=None):
        H = np.asarray(H, dtype=float)
        n = H.shape[0]
        f = np.asarray(f, dtype=float).ravel()
        if H.shape != (n, n) or f.shape != (n,):
            raise ValueError("H must be square and f match its dimension")
        A_in = (np.zeros((0, n)) if A_in is None
                else np.array(A_in, dtype=float, copy=None, ndmin=2))
        b_in = np.zeros(0) if b_in is None else np.asarray(b_in, float).ravel()
        if A_in.shape != (b_in.size, n):
            raise ValueError("constraint matrix/vector dimensions are inconsistent")
        for name, val in (("H", H), ("f", f), ("A_in", A_in), ("b_in", b_in)):
            if not np.isfinite(val).all():
                raise ValueError(f"{name} contains NaN or Inf")
        factor = QpFactor(H, A_in)
        theta = np.concatenate([f, b_in])
        super().__init__(factor, theta, factor.theta_map @ theta)
        self._f, self._b_in = f, b_in


class WorkingSet:
    """The working rows S of a family's QPs, a square Li with
    Li' Li = G_SS^-1 (R'^-1 for the QR factor R of a start's square-root
    rows until a row is dropped) and the rows G[S, :], in buffers of
    ``cap`` = min(rows, nvars) rows sized once; :attr:`idx` (S as an index
    array), :attr:`Li` and :attr:`cols` (G[:, S]) are views of their first
    len(S) rows, :attr:`rows` is S as a list. G, the square-root rows M
    and the dependence floors _DEP_TOL diag(G) come from the family's
    factor. A caller that solves a sequence of the family's QPs keeps one
    and passes it to every :func:`qp_solve`, which continues from the rows
    it holds and leaves the rows it ends with."""

    def __init__(self, factor: QpFactor):
        self.factor = factor
        self.G, self.M, self.lower = factor.G, factor.M, factor.lower
        self.dep_floor = factor.dep_floor
        self.cap, self.k = min(factor.M.shape), 0
        self._S = np.empty(self.cap, dtype=np.intp)
        self._Li = np.empty((self.cap, self.cap))
        self._GS = np.empty((self.cap, self.G.shape[0]))

    def clear(self) -> None:
        """Empty S: the next solve starts fresh."""
        self.k = 0

    @property
    def idx(self) -> np.ndarray:
        return self._S[:self.k]

    @property
    def rows(self) -> list[int]:
        return self._S[:self.k].tolist()

    @property
    def Li(self) -> np.ndarray:
        return self._Li[:self.k, :self.k]

    @property
    def cols(self) -> np.ndarray:
        return self._GS[:self.k].T

    def solve(self, v: np.ndarray) -> np.ndarray:
        Li = self._Li[:self.k, :self.k]
        return Li.T @ (Li @ v)

    def pivot(self, j: int) -> tuple[np.ndarray, float, bool]:
        """G_SS^-1 G[S, j], the squared pivot of row j, and whether j depends
        on S; with cap = nvars rows, S spans every row."""
        k = self.k
        g = self._GS[:k, j].copy()  # BLAS rounds a dot with a strided vector otherwise
        r = self.solve(g)
        d2 = float(self.G[j, j] - g @ r)
        return r, d2, d2 <= self.dep_floor[j] or k == self.cap

    def admit(self, j: int) -> None:
        r, d2, dependent = self.pivot(j)
        if not dependent:
            self.append(j, r, d2)

    def admit_all(self, rows) -> None:
        """Start an empty working set from rows (a list or an index array):
        one QR factor M_run' = Q R of the square-root rows of its first
        min(len(rows), cap) rows gives G over them as R'R, so diag(R)^2 are
        their squared pivots. The leading run up to the first pivot that
        fails the test of :meth:`pivot` goes in with Li = R'^-1, read in
        place from the lower triangle of the raw factor, the rows after it
        one at a time, skipping dependent rows."""
        rows = np.asarray(rows, dtype=np.intp)
        run = rows[:self.cap]
        h = np.linalg.qr(self.M.take(run, axis=0).T, mode="raw")[0]  # R' in its lower triangle
        d = h.diagonal()
        failed = d * d <= self.dep_floor[run]
        k = int(failed.argmax())
        if not failed[k]:
            k = run.size
        if k:
            Rt = h[:k, :k]
            Rt *= self.lower[:k, :k]
            self._Li[:k, :k] = np.linalg.inv(Rt)
            self.G.take(run[:k], axis=0, out=self._GS[:k])
            self._S[:k] = run[:k]
            self.k = k
        for j in rows[k:].tolist():
            self.admit(j)

    def append(self, j: int, r: np.ndarray, d2: float) -> None:
        """Li gains the row [-r, 1] / sqrt(d2), G[S, :] the row G[j, :]."""
        k = self.k
        s = math.sqrt(d2)
        np.divide(r, -s, out=self._Li[k, :k])
        self._Li[k, k] = 1.0 / s
        self._Li[:k, k] = 0.0
        self._GS[k] = self.G[j]
        self._S[k] = j
        self.k = k + 1

    def remove(self, pos: int) -> None:
        """Drop the row at pos: shift the buffered rows of S and G over it
        and delete column pos, l, of Li, leaving M. The smaller block's
        inverse is M'(I - l l'/l'l)M = R'R for the leading k-1 rows R of
        Q M, where the Householder reflection Q maps l onto a multiple of
        e_k: O(k^2) operations and no factorisation."""
        k = self.k
        self.k = k - 1
        self._S[pos:k - 1] = self._S[pos + 1:k]
        self._GS[pos:k - 1] = self._GS[pos + 1:k]
        if k > 1:
            Li = self._Li[:k, :k]
            v = Li[:, pos].copy()
            Li[:, pos:k - 1] = Li[:, pos + 1:k]
            # Q = I - 2 v v'/v'v with v = l + sign(l_k)|l| e_k, so that v_k
            # does not cancel, and v'v / 2 = |l| (|l| + |l_k|)
            norm, l_k = math.sqrt(v @ v), float(v[-1])
            v[-1] += math.copysign(norm, l_k)
            w = v @ Li[:, :k - 1]
            w /= norm * (norm + abs(l_k))
            Li[:k - 1, :k - 1] -= v[:k - 1, None] * w


def qp_solve(p: ParametricQp, ws: WorkingSet | None = None,
             max_iter: int = 500) -> QpSolution:
    """Solve the QP; on "optimal" all KKT residuals are <= 1e-8. The
    solution holds neither p nor its objective (see :func:`objective`).

    p brings its family, theta, z_u and row residuals (a QpProblem is the
    plain family's QP at theta = (f, b)). ``ws``, a working set of p's
    family, carries rows from one solve to the next: the solve starts
    from the rows it holds and leaves in it the rows it ends with, so a
    sequence of the family's QPs passes one. Without it, the solve builds
    its own when it needs one. Raises ValueError when ``ws`` belongs to
    another family.

    Returns the unconstrained minimiser z_u, with 0 iterations and no
    active row, and empties ``ws``, when z_u violates no row by more than
    _FEAS_TOL. Otherwise starts from the rows of ``ws`` or, with none,
    from the rows violated at z_u. Each working-set change after the
    start's admissions is one iteration; past ``max_iter`` the current
    iterate is returned with status "max_iter".
    """
    factor, z_u, c = p.factor, p.z_u, p.c
    if ws is not None and ws.factor is not factor:
        raise ValueError("the working set belongs to another QP family")
    top = c.max(initial=0.0)
    if top <= _FEAS_TOL:
        # z_u is the optimum
        if ws is not None:
            ws.clear()
        return QpSolution(z_u, "optimal", KktRecord(factor, p.theta, z_u, top))

    def finish(status, lam, it, extra=None):
        lam_all = np.zeros(c.size)
        lam_all[ws.idx] = lam
        if extra is not None:
            lam_all[extra[0]] = extra[1]
        z = z_u - factor.HinvAt @ lam_all
        np.maximum(lam_all, 0.0, out=lam_all)
        return QpSolution(z, status, KktRecord(factor, p.theta, z, lam_all), it,
                          tuple(sorted(ws.rows)))

    if ws is None:
        ws = WorkingSet(factor)
    if not ws.k:
        ws.admit_all((c > _FEAS_TOL).nonzero()[0])
    lam = ws.solve(c[ws.idx])

    it = 0
    while (drop := _most_negative(lam)) >= 0:
        if it >= max_iter:
            return finish("max_iter", lam, it)
        it += 1
        ws.remove(drop)
        lam = ws.solve(c[ws.idx])

    while True:
        viol = c
        if ws.k:
            viol = c - ws.cols @ lam
            viol[ws.idx] = -np.inf
        j = int(viol.argmax())
        if viol[j] <= _FEAS_TOL:
            return finish("optimal", lam, it)
        j = int((viol >= viol[j] - _TIE_TOL * max(1.0, viol[j])).argmax())
        # raise the multiplier t of row j from 0 until the row is met,
        # dropping working rows whose multipliers reach zero first
        t, res_j = 0.0, float(viol[j])
        while True:
            if it >= max_iter:
                return finish("max_iter", lam, it, extra=(j, t))
            it += 1
            r, d2, dependent = ws.pivot(j)  # d lam_S / d t = -r
            step_full = np.inf if dependent else res_j / d2
            # along a dependent row, entries of r at rounding level are zero:
            # they would give steps of ~1e20 that drop rows r leaves alone
            floor = 1e-12 * np.abs(r).max(initial=0.0) if dependent else 0.0
            pos = (r > floor).nonzero()[0]
            if dependent and not pos.size:
                # S only shrinks while t grows, and a row independent of S is
                # independent of its subsets: j was dependent at every step,
                # which left its violation at viol[j] (res_j only sums d2
                # rounding over those steps)
                return QpSolution(None, "infeasible", None, it, infeasibility_report=(
                    (f"A_in[{j}]", float(viol[j])),
                    *((f"A_in[{row}]", float(w)) for row, w in zip(ws.rows, r) if abs(w) > floor)))
            step_drop = np.inf
            if pos.size:
                ratios = np.maximum(lam[pos], 0.0) / r[pos]
                first = int(ratios.argmin())
                step_drop = float(ratios[first])
            step = min(step_full, step_drop)
            lam, t, res_j = lam - step * r, t + step, res_j - step * d2
            if step_full <= step_drop:
                ws.append(j, r, d2)
                lam = ws.solve(c[ws.idx])
                break
            drop = int(pos[first])
            ws.remove(drop)
            lam[drop:-1] = lam[drop + 1:]  # lam is this step's own array
            lam = lam[:-1]


def _most_negative(lam: np.ndarray) -> int:
    """The position of the most negative multiplier (the first of equals)
    when it lies below -_LAM_TOL max(1, max |lam|), the start's drop
    test, else -1; from one argmin, and an argmax only for a multiplier
    below -_LAM_TOL."""
    if not lam.size:
        return -1
    i = int(lam.argmin())
    low = lam[i]
    if low < -_LAM_TOL and low < -_LAM_TOL * max(1.0, -low, lam[lam.argmax()]):
        return i
    return -1


def objective(p: ParametricQp, z: np.ndarray) -> float:
    """The objective 0.5 z'Hz + f'z of the QP p at z."""
    return float(0.5 * z @ p.H @ z + p.f @ z)


def enumerate_active_sets(p: ParametricQp) -> tuple[float, np.ndarray | None]:
    """Oracle for small QPs: solve the KKT system of every active-set
    guess (each subset of the rows), keep the primal feasible candidates
    and return the best objective and minimiser; (inf, None) when no
    candidate is feasible."""
    n = p.nvars
    q = p.A_in.shape[0]
    best_obj, best_z = np.inf, None
    for k in range(q + 1):
        for combo in itertools.combinations(range(q), k):
            C, d = p.A_in[list(combo)], p.b_in[list(combo)]
            KKT = np.block([[p.H, C.T], [C, np.zeros((k, k))]])
            try:
                z = np.linalg.solve(KKT, np.concatenate([-p.f, d]))[:n]
            except np.linalg.LinAlgError:
                continue
            if np.any(p.A_in @ z > p.b_in + 1e-8):
                continue
            if (obj := objective(p, z)) < best_obj - 1e-12:
                best_obj, best_z = obj, z
    return best_obj, best_z


def oracle_trials(seed: int, trials: int = 100):
    """Yield (problem, qp_solve solution, enumerated optimal objective) for
    random strictly convex QPs with 2-6 variables and 0-3 rows around a
    feasible point."""
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
        yield problem, qp_solve(problem), enumerate_active_sets(problem)[0]
