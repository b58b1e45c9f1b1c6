"""H-representation polyhedra with a dense single-phase simplex LP core.

A polyhedron is stored as ``{w in R^n : F w <= g}``. Everything here is
dense numpy: the sets this package manipulates stay small (<= ~10
variables, at most a few thousand rows), so no sparse machinery is used.

Every LP goes through one front end, lp_max_stack, which solves a
family of LPs max C[l] . w over one row set; lp_max is a family of one.
Every LP starts from the slack basis, so the front end first shifts a
family whose rows have a negative rhs to the set's centre (centre, which
states the one rule for that point): no LP needs a phase I, and the only
feasibility step is the Chebyshev-centre LP, which lets the radius go
negative until w = 0 meets every row. The simplex keeps a dictionary
tableau: one column per nonbasic variable (2n of them for the split free
variables) plus the rhs, with the basic columns, always unit vectors,
left implicit. It is stored transposed, a column to a row of the array,
so that the ratio test and the pivot read contiguous columns. One pivot
loop (_run_simplex, _pivot) solves every LP, alone or in a family, by
Bland's rule (_run_simplex states it) with feasibility and optimality
tolerances of 1e-9: the front end builds the family's dictionary once,
and each LP pivots its own copy of it, so a family holds one dictionary
at a time whatever its size. Every LP runs to its optimum or to a ray
that shows it unbounded, and returns that point or the ray's direction.

Redundancy removal tests every row against all the others in one
family, drops the rows whose maximum falls short of their bound by a
margin, keeps those whose maximum tops it by the margin, and tests only
the rest again one at a time in row order. Dropping the first kind all
at once is sound: a row strictly redundant against all other rows is
redundant against every subset of them that still defines the set.

Redundancy removal shifts the rows to the same centre and runs one row
LP per pair of twins there, the twin taking the same verdict: one LP per
mirror pair for a symmetric set. Rays from the centre along given
directions show rows irredundant with no LP (shown_irredundant, the rule
of the propagation's witness points). On the shipped pair X_a's 96 rows
are reduced to 44 with a family of 13 LPs and no centre LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GeometryError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9

_MAX_PIVOTS = 200000


@dataclass(frozen=True)
class Polyhedron:
    """The set {w : F w <= g}, with F of shape (k, n) and g of shape (k,)."""

    F: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        # float input passes through uncopied: set-up wraps every LP's rows
        F = np.array(self.F, dtype=float, copy=None, ndmin=2)
        g = np.asarray(self.g, dtype=float).ravel()
        if F.shape[0] != g.shape[0]:
            raise GeometryError(
                f"row mismatch: F has {F.shape[0]} rows, g has {g.shape[0]} entries"
            )
        if not (np.isfinite(F).all() and np.isfinite(g).all()):
            raise GeometryError("polyhedron data contains NaN or Inf")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "g", g)

    @property
    def dim(self) -> int:
        return self.F.shape[1]

    @property
    def nrows(self) -> int:
        return self.F.shape[0]


class LpResult(NamedTuple):
    value: float
    # "optimal": the maximiser; "unbounded": the direction of a ray of the
    # set along which the objective grows, not a point; "infeasible": None
    argmax: np.ndarray | None
    status: str  # "optimal" | "infeasible" | "unbounded"


def _pivot(D: np.ndarray, basis: list, nonbasic: list, row: int, col: int,
           work: np.ndarray) -> None:
    """Exchange basis[row] and nonbasic[col] in the dictionary D, stored
    transposed (D[col] is column col). The leaving variable takes the
    entering one's column, colvals * (-1/p) with 1/p in the pivot row;
    every entry comes out as the full tableau computes it. work is
    scratch of D's shape."""
    p = D.item(col, row)
    D[:, row] /= p
    colvals = D[col].copy()
    colvals[row] = 0.0
    np.multiply(D[:, row : row + 1], colvals, out=work)
    D -= work
    inv = 1.0 / p
    np.multiply(colvals, -inv, out=D[col])
    D[col, row] = inv
    # clamp tiny rhs drift
    rhs = D[-1, :-1]
    if rhs[rhs.argmin()] < 0.0:
        rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _run_simplex(D: np.ndarray, basis: list, nonbasic: list, c: np.ndarray,
                 skip: int | None, work: np.ndarray, ratios: np.ndarray) -> LpResult:
    """Pivot the dictionary D to its optimum or to a ray that shows the LP
    unbounded. D holds it transposed, D[j, i] the entry of row i in column
    j: D[-1] is the rhs column (>= 0), D[:, -1] the cost row (the reduced
    costs of minimizing -c . w), and D[-1, -1] the objective gained so
    far. basis and nonbasic list the variables of its rows and columns
    (w = wp - wn as variables 0..2n-1, then the slacks).

    Every pivot follows Bland's rule, which cannot cycle: the entering
    variable is the improving one (reduced cost below -OPT_TOL) of lowest
    variable index, and of the rows tied in the ratio test (within 1e-12
    of its minimum over the entries above FEAS_TOL) the one whose basic
    variable has the lowest index leaves; with no such entry the entering
    column is a ray. Row skip, when given, stays out of the ratio test, so
    its slack never leaves the basis: the LP is the one over the other
    rows. _MAX_PIVOTS is only a safety cap. work and ratios are scratch of
    D's shape and of the rhs's.
    """
    m = len(basis)
    n = len(nonbasic) // 2
    costs = D[:-1, -1]
    rhs = D[-1, :m]
    for _ in range(_MAX_PIVOTS + 1):
        cols = [j for j, v in enumerate(costs.tolist()) if v < -OPT_TOL]
        if not cols:
            break
        # the lowest variable index among them, whatever its column
        col = cols[0] if len(cols) == 1 else min(cols, key=nonbasic.__getitem__)
        colvals = D[col, :m]
        pos = colvals > FEAS_TOL
        if skip is not None:
            pos[skip] = False
        ratios.fill(np.inf)
        np.divide(rhs, colvals, out=ratios, where=pos)
        least = ratios.item(ratios.argmin()) if m else np.inf
        if least == np.inf:
            return LpResult(np.inf, _ray(D, basis, nonbasic, col, n), "unbounded")
        cand = (ratios <= least + 1e-12).nonzero()[0].tolist()
        # Bland's tie-break: the smallest basis index
        row = cand[0] if len(cand) == 1 else min(cand, key=basis.__getitem__)
        _pivot(D, basis, nonbasic, row, col, work)
    else:
        raise GeometryError("simplex did not converge within the pivot cap")
    w = _point(D, basis, n)
    return LpResult(float(c @ w), w, "optimal")


def _point(D: np.ndarray, basis: list, n: int) -> np.ndarray:
    """The vertex w = wp - wn that the dictionary D with this basis holds."""
    m = len(basis)
    x = np.zeros(2 * n + m)
    x.put(basis, D[-1, :m])
    return x[:n] - x[n : 2 * n]


def _ray(D: np.ndarray, basis: list, nonbasic: list, col: int, n: int) -> np.ndarray:
    """The direction in w of the ray that column col of the dictionary D
    shows when no entry of it is positive: the entering variable grows at
    rate 1 and each basic variable falls at its entry of the column, so
    every slack stays nonnegative while the objective grows."""
    m = len(basis)
    x = np.zeros(2 * n + m)
    x.put(basis, -D[col, :m])
    x[nonbasic[col]] = 1.0
    return x[:n] - x[n : 2 * n]


def _centre(poly: Polyhedron) -> tuple[np.ndarray, float]:
    """Chebyshev-centre LP, max r s.t. F w + |F_i| r <= g, r_lo <= r <= 1,
    solved in r - r_lo with r_lo = min(0, min_i g_i / |F_i|), where w = 0
    meets every row, so every rhs is nonnegative. The set is empty iff
    r < -FEAS_TOL; a row 0 w <= g < 0 gives r = -inf at once."""
    F, g = poly.F, poly.g
    n = poly.dim
    norms = np.linalg.norm(F, axis=1)
    flat = norms == 0.0
    if np.any(g[flat] < -FEAS_TOL):
        return np.zeros(n), -np.inf
    r_lo = float(np.min(g[~flat] / norms[~flat], initial=0.0))
    lifted = Polyhedron(
        np.block([[F, norms[:, None]],
                  [np.zeros((2, n)), np.array([[1.0], [-1.0]])]]),
        np.concatenate([np.maximum(g - norms * r_lo, 0.0), [1.0 - r_lo, 0.0]]))
    res = lp_max(np.eye(n + 1)[n], lifted)
    return res.argmax[:n], float(res.argmax[n]) + r_lo


def lp_max(c, poly: Polyhedron) -> LpResult:
    """Maximize c . w over {F w <= g} with free variables w: lp_max_stack
    of the one objective c."""
    return lp_max_stack(np.reshape(c, (1, -1)), poly)[0]


def lp_max_stack(C, poly: Polyhedron, skip=None) -> list[LpResult]:
    """Maximize C[l] . w over poly's rows, less row skip[l] (an integer in
    [0, m)) when skip is given, for every row l of C, with free variables w.

    Each LpResult's status is "optimal", "infeasible" or "unbounded"; on
    "optimal" the argmax satisfies F w <= g + 1e-9 and the value is
    C[l] . argmax. On "unbounded" the argmax is a direction d, not a point:
    the ray of the entering column that ends the LP, along which C[l] . d
    > 0 and no row but skip[l] has F_i d above the feasibility tolerance.

    Every LP starts from the slack basis. When some g_i < 0 the rows are
    first shifted to poly's centre w0 (centre), F u <= h with h >= 0, and
    the results shifted back; when poly is empty, every LP is
    "infeasible", skipped row or not. The family's dictionary is built
    once, and each LP runs on _run_simplex from its own copy of it.
    """
    C = np.array(C, dtype=float, ndmin=2, copy=None)
    F, g = poly.F, poly.g
    m, n = F.shape
    L = C.shape[0]
    if C.shape[1] != n:
        raise GeometryError(f"objectives have {C.shape[1]} entries for a {n}-dim set")
    if not np.isfinite(C).all():
        raise GeometryError("objective contains NaN or Inf")
    if skip is not None:
        skip = np.asarray(skip)
        if skip.shape != (L,) or skip.dtype.kind not in "iu" or np.any((skip < 0) | (skip >= m)):
            raise GeometryError(f"skip must hold {L} integers in [0, {m})")
    shifted = (g < 0).any()
    if shifted:
        frame = centre(poly)
        if frame is None:
            return [LpResult(-np.inf, None, "infeasible")] * L
        w0, g, _ = frame
    # w = wp - wn with slacks s, from the slack basis; minimize -c.(wp - wn)
    template = np.empty((2 * n + 1, m + 1))
    template[:n, :m] = F.T
    template[n:-1, :m] = -F.T
    template[-1, :m] = g
    template[-1, -1] = 0.0
    D, work, ratios = np.empty_like(template), np.empty_like(template), np.empty(m)
    basis, nonbasic = list(range(2 * n, 2 * n + m)), list(range(2 * n))
    results = []
    for l, c in enumerate(C):
        np.copyto(D, template)
        D[:n, -1] = -c
        D[n:-1, -1] = c
        res = _run_simplex(D, basis.copy(), nonbasic.copy(), c,
                           None if skip is None else skip[l], work, ratios)
        if shifted and res.status == "optimal":  # a ray needs no shift
            w = res.argmax + w0
            res = LpResult(float(c @ w), w, res.status)
        results.append(res)
    return results


def contains(poly: Polyhedron, w, tol: float = FEAS_TOL) -> bool:
    """Componentwise membership test F w <= g + tol."""
    w = np.asarray(w, dtype=float).ravel()
    if w.shape[0] != poly.dim:
        raise GeometryError(f"point has {w.shape[0]} entries for a {poly.dim}-dim set")
    return bool(np.all(poly.F @ w <= poly.g + tol))


def is_empty(poly: Polyhedron) -> bool:
    return lp_max(np.zeros(poly.dim), poly).status == "infeasible"


def mirror_rows(F) -> np.ndarray | None:
    """mirror[i] = i', the row with F[i'] = -F[i] exactly, for rows that
    all come in such pairs, with no row repeated and none zero; None
    otherwise."""
    F = np.asarray(F, dtype=float)
    m = F.shape[0]
    if m == 0:
        return None
    # F's rows and their negations sort to the same sequence iff they pair
    up, down = np.lexsort(F.T), np.lexsort(-F.T)
    rows = F[up]
    if (rows[1:] == rows[:-1]).all(axis=1).any() or not np.array_equal(rows, -F[down]):
        return None
    mirror = np.empty(m, dtype=np.intp)
    mirror[down] = up
    if (mirror == np.arange(m)).any():  # a zero row
        return None
    return mirror


def centre(poly: Polyhedron, basis=None) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The point w0 an LP family over poly's rows is shifted to, so that it
    starts from the slack basis: (w0, h, twin), with h >= 0 the rhs about
    w0 (F u <= h for u = w - w0) and twin[i] the row that takes row i's LP
    maximum; None when the set holds no point (of basis's span, when
    given: w0 = basis t).

    This is the one centre rule. When the rows come in mirror pairs
    (mirror_rows) about one point of basis's span, w0 is that centre of
    symmetry, found with no LP: one least-squares solve of the pairs'
    midpoint equations F_i w = (g_i - g_i')/2, accepted when w0 solves
    every one to 1e-12 of |F_i| |w0|. Then both rows of a pair get
    h = (g_i + g_i')/2, so {F u <= h} is exactly symmetric about the
    origin, twin is the pairing (mirroring maps the set and each row's LP
    onto its twin's), and the set is empty iff some h_i / |F_i| is below
    -FEAS_TOL. Otherwise w0 is the Chebyshev centre of the set (of its
    points in basis's span), by one _centre LP, h = g - F w0 and twin the
    identity. Either way h is clipped at 0, as a flat set's rounding
    needs.
    """
    F, g = poly.F, poly.g
    mirror = mirror_rows(F)
    if mirror is not None:
        rep = (np.arange(poly.nrows) < mirror).nonzero()[0]
        mid = 0.5 * (g[rep] - g[mirror[rep]])
        A = F[rep] if basis is None else F[rep] @ basis
        t = np.linalg.lstsq(A, mid, rcond=None)[0]
        w0 = t if basis is None else basis @ t
        scale = np.maximum(1.0, np.abs(F[rep]) @ np.abs(w0))
        if np.all(np.abs(F[rep] @ w0 - mid) <= 1e-12 * scale):
            h = 0.5 * (g + g[mirror])
            if np.min(h / np.linalg.norm(F, axis=1)) < -FEAS_TOL:
                return None
            return w0, np.maximum(h, 0.0), mirror
    t, r = _centre(poly if basis is None else Polyhedron(F @ basis, g))
    if r < -FEAS_TOL:
        return None
    w0 = t if basis is None else basis @ t
    return w0, np.maximum(g - F @ w0, 0.0), np.arange(poly.nrows)


def ray_ratios(FP, h) -> np.ndarray:
    """h_i / FP_iq where FP_iq > 0, +inf elsewhere, for FP = F @ P: with
    h >= 0, the ray from 0 along column q of P meets row i's bound at that
    multiple of it."""
    ratio = np.full(FP.shape, np.inf)
    np.divide(np.reshape(h, (-1, 1)), FP, out=ratio, where=FP > 0.0)
    return ratio


def shown_irredundant(cp, t, h) -> np.ndarray:
    """Whether a row c . w <= h with c . p = cp along a direction p is shown
    irredundant by the point t p where p leaves the other rows (t = inf: p
    never does): c . (t p) > h + 1e-9 + 1e-7 max(1, h), a margin far above
    the LP tolerance. Elementwise, with broadcasting; forms no inf * 0."""
    value = np.zeros(np.broadcast_shapes(np.shape(cp), np.shape(t)))
    np.multiply(cp, t, out=value, where=cp > 0.0)
    return value > h + 1e-9 + 1e-7 * np.maximum(1.0, h)


def remove_redundant(poly: Polyhedron, directions=None) -> Polyhedron:
    """The rows a single pass in row order keeps, where the pass drops each
    row whose LP-max over the rows still kept is <= g_j + 1e-9.

    A row equal to a later row (same F row and g) is dropped without an
    LP: the later copy bounds it exactly. The other rows are shifted to
    their centre w0 (centre), F u <= h with h >= 0, and a row and its
    twin there take the same verdict. With margin = 1e-7 max(1, h_j),
    row j is
    - kept when a ray from w0 along one of the rows of directions (an
      (q, n) array, optional) shows it or its twin irredundant: the ray
      meets it first, and leaves the other rows at a point beyond it by
      the margin (shown_irredundant);
    - else tested by the LP max F_j u over all the other rows, for one
      row of each twin pair, all these LPs solved as one family
      (lp_max_stack), and
      - dropped with its twin when that maximum is below h_j - margin: a
        row strictly redundant against all other rows is redundant
        against every subset of them that still defines the set, so all
        such rows go at once;
      - kept with its twin when the LP is unbounded or a vertex tops
        h_j + margin, since fewer rows only raise the maximum;
      - otherwise (weakly redundant or borderline) tested again with its
        twin by lp_max, each alone, in row order, against the rows still
        kept, as the pass would.
    """
    F, g = poly.F, poly.g
    if directions is not None:
        D = np.array(directions, dtype=float, ndmin=2, copy=None)
        if D.shape[1] != poly.dim or not np.isfinite(D).all():
            raise GeometryError(f"directions must be finite with {poly.dim} entries each")
    seen = set()
    repeated_later = np.zeros(poly.nrows, dtype=bool)
    for j in reversed(range(poly.nrows)):
        key = (tuple(F[j].tolist()), float(g[j]))  # -0.0 == 0.0
        repeated_later[j] = key in seen
        seen.add(key)
    rows = (~repeated_later).nonzero()[0]
    F_u = F[rows]
    frame = centre(Polyhedron(F_u, g[rows]))
    if frame is None:
        raise GeometryError("cannot reduce an empty polyhedron")
    _, h, twin = frame
    if rows.size < 2:
        return Polyhedron(F_u, g[rows])
    margin = 1e-7 * np.maximum(1.0, h)
    kept = np.zeros(rows.size, dtype=bool)
    if directions is not None:
        FD = F_u @ D.T
        ratio = ray_ratios(FD, h)
        first = ratio.argmin(axis=0)
        beyond = np.partition(ratio, 1, axis=0)[1]  # where the ray leaves the rest
        cp = FD[first, np.arange(D.shape[0])]
        kept[first[shown_irredundant(cp, beyond, h[first])]] = True
        kept |= kept[twin]
    live = np.ones(rows.size, dtype=bool)
    borderline = np.zeros(rows.size, dtype=bool)
    tested = ((np.arange(rows.size) <= twin) & ~kept).nonzero()[0]
    tests = lp_max_stack(F_u[tested], Polyhedron(F_u, h), skip=tested)
    for j, res in zip(tested.tolist(), tests):
        if res.status == "optimal" and res.value < h[j] - margin[j]:
            live[[j, twin[j]]] = False
        elif res.status == "optimal" and res.value <= h[j] + margin[j]:
            borderline[[j, twin[j]]] = True
    surviving = live.nonzero()[0].tolist()
    for j in borderline.nonzero()[0].tolist():
        others = [i for i in surviving if i != j]
        if not others:
            continue
        res = lp_max(F_u[j], Polyhedron(F_u[others], h[others]))
        if res.status == "optimal" and res.value <= h[j] + FEAS_TOL:
            surviving.remove(j)
    keep = rows[surviving]
    return Polyhedron(F[keep], g[keep])


def save_matrix(path, M) -> None:
    """Plain-text matrix format: 'rows cols' header then one line per row,
    17 significant digits (bit-exact float round trip)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def save_polyhedron(path, poly: Polyhedron) -> None:
    """Header 'n k', then the k rows of F, then one line holding g."""
    with open(path, "w") as fh:
        fh.write(f"{poly.dim} {poly.nrows}\n")
        for row in poly.F:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        fh.write(" ".join(f"{v:.17g}" for v in poly.g) + "\n")
