"""H-representation polyhedra with a dense single-phase simplex LP core.

A polyhedron is stored as ``{w in R^n : F w <= g}``. Everything here is
dense numpy: the sets this package manipulates stay small (<= ~10
variables, at most a few thousand rows), so no sparse machinery is used.

Every LP starts from the slack basis, so its rhs must be nonnegative. The
simplex uses Dantzig pricing and falls back to Bland's rule after a fixed
number of pivots to break cycling; feasibility and optimality tolerances
are both 1e-9. Rows with a negative rhs are first shifted to a Chebyshev
centre, whose LP lets the radius go negative until w = 0 meets every row:
that LP is the only feasibility step, and no LP needs a phase I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9

# pivots with Dantzig pricing before switching to Bland's rule
_BLAND_AFTER = 5000
_MAX_PIVOTS = 200000


@dataclass(frozen=True)
class Polyhedron:
    """The set {w : F w <= g}, with F of shape (k, n) and g of shape (k,)."""

    F: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        g = np.asarray(self.g, dtype=float).ravel()
        if F.shape[0] != g.shape[0]:
            raise GeometryError(
                f"row mismatch: F has {F.shape[0]} rows, g has {g.shape[0]} entries"
            )
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(g))):
            raise GeometryError("polyhedron data contains NaN or Inf")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "g", g)

    @property
    def dim(self) -> int:
        return self.F.shape[1]

    @property
    def nrows(self) -> int:
        return self.F.shape[0]


@dataclass(frozen=True)
class LpResult:
    value: float
    argmax: np.ndarray | None
    status: str  # "optimal" | "infeasible" | "unbounded"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    # clean the pivot column exactly and clamp tiny rhs drift
    T[:, col] = 0.0
    T[row, col] = 1.0
    rhs = T[:-1, -1]
    rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: np.ndarray, ncols: int) -> int:
    """Drive the tableau T (last row = reduced costs of a minimization,
    last column = rhs >= 0) to optimality. Returns the pivot count, raises
    on unboundedness via GeometryError with a marker message."""
    m = T.shape[0] - 1
    it = 0
    while True:
        costs = T[-1, :ncols]
        if it < _BLAND_AFTER:
            col = int(np.argmin(costs))
            if costs[col] >= -OPT_TOL:
                return it
        else:  # Bland: first improving index
            neg = np.nonzero(costs < -OPT_TOL)[0]
            if neg.size == 0:
                return it
            col = int(neg[0])
        colvals = T[:m, col]
        pos = colvals > FEAS_TOL
        if not np.any(pos):
            raise GeometryError("_UNBOUNDED_")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / colvals[pos]
        best = np.min(ratios)
        # deterministic tie-break: smallest basis index (Bland-compatible)
        cand = np.nonzero(ratios <= best + 1e-12)[0]
        row = int(cand[np.argmin(basis[cand])])
        _pivot(T, basis, row, col)
        it += 1
        if it > _MAX_PIVOTS:
            raise GeometryError("simplex did not converge within the pivot cap")


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
    """Maximize c . w over {F w <= g} with free variables w.

    A single-phase simplex from the slack basis. When some g_i < 0 the
    rows are first shifted to the Chebyshev centre w0, F u <= g - F w0
    with a nonnegative rhs, and the result shifted back; an empty set
    found there is "infeasible". Returns an LpResult whose status is
    "optimal", "infeasible" or "unbounded"; on "optimal" the argmax
    satisfies F w <= g + 1e-9.
    """
    c = np.asarray(c, dtype=float).ravel()
    F, g = poly.F, poly.g
    m, n = F.shape
    if c.shape[0] != n:
        raise GeometryError(f"objective has {c.shape[0]} entries for a {n}-dim set")
    if m == 0:
        return LpResult(np.inf, None, "unbounded") if np.any(c != 0) else LpResult(
            0.0, np.zeros(n), "optimal"
        )
    w0 = np.zeros(n)
    if np.any(g < 0):
        w0, r = _centre(poly)
        if r < -FEAS_TOL:
            return LpResult(-np.inf, None, "infeasible")
        g = np.maximum(g - F @ w0, 0.0)

    # w = wp - wn with slacks s, from the slack basis; minimize -c.(wp - wn)
    T = np.empty((m + 1, 2 * n + m + 1))
    T[:m] = np.hstack([F, -F, np.eye(m), g[:, None]])
    T[-1] = np.concatenate([-c, c, np.zeros(m + 1)])
    basis = 2 * n + np.arange(m)
    try:
        _run_simplex(T, basis, 2 * n + m)
    except GeometryError as exc:
        if "_UNBOUNDED_" in str(exc):
            return LpResult(np.inf, None, "unbounded")
        raise

    x = np.zeros(2 * n + m)
    x[basis] = T[:m, -1]
    w = x[:n] - x[n : 2 * n] + w0
    return LpResult(float(c @ w), w, "optimal")


def contains(poly: Polyhedron, w, tol: float = FEAS_TOL) -> bool:
    """Componentwise membership test F w <= g + tol."""
    w = np.asarray(w, dtype=float).ravel()
    if w.shape[0] != poly.dim:
        raise GeometryError(f"point has {w.shape[0]} entries for a {poly.dim}-dim set")
    return bool(np.all(poly.F @ w <= poly.g + tol))


def is_empty(poly: Polyhedron) -> bool:
    return lp_max(np.zeros(poly.dim), poly).status == "infeasible"


def chebyshev_centre(poly: Polyhedron) -> tuple[np.ndarray, float]:
    """Centre w0 and radius r of a largest ball in the set, by one LP with
    the radius capped at 1 (see _centre). A flat set gives r = 0; an
    empty one raises GeometryError.
    """
    w0, r = _centre(poly)
    if r < -FEAS_TOL:
        raise GeometryError("polyhedron is empty")
    return w0, max(r, 0.0)


def remove_redundant(poly: Polyhedron) -> Polyhedron:
    """Drop every row whose LP-max over the remaining rows is <= g_j + 1e-9.

    Rows are tested one pass in the order given against the current
    surviving set, so the output is deterministic. The LPs run on the
    rows shifted to the Chebyshev centre w0, F u <= g - F w0 with a
    nonnegative rhs, found once for all of them.
    A row equal to a later row (same F row and g) is dropped without an
    LP: the later copy bounds it exactly.
    """
    try:
        w0, _ = chebyshev_centre(poly)
    except GeometryError:
        raise GeometryError("cannot reduce an empty polyhedron") from None
    F, g = poly.F, poly.g
    h = np.maximum(g - F @ w0, 0.0)
    seen = set()
    repeated_later = np.zeros(poly.nrows, dtype=bool)
    for j in reversed(range(poly.nrows)):
        key = (tuple(F[j].tolist()), float(g[j]))  # -0.0 == 0.0
        repeated_later[j] = key in seen
        seen.add(key)
    surviving = list(range(poly.nrows))
    for j in range(poly.nrows):
        if repeated_later[j]:
            surviving.remove(j)
            continue
        others = [i for i in surviving if i != j]
        if not others:
            continue
        res = lp_max(F[j], Polyhedron(F[others], h[others]))
        if res.status == "optimal" and res.value <= h[j] + FEAS_TOL:
            surviving.remove(j)
    return Polyhedron(F[surviving], g[surviving])


def save_matrix(path, M) -> None:
    """Plain-text matrix format: 'rows cols' header then one line per row,
    17 significant digits (bit-exact float round trip)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        r, c = (int(t) for t in fh.readline().split())
        M = np.array([[float(t) for t in fh.readline().split()] for _ in range(r)])
    if M.shape != (r, c):
        raise GeometryError(f"matrix file {path} does not match its header")
    return M


def save_polyhedron(path, poly: Polyhedron) -> None:
    """Header 'n k', then the k rows of F, then one line holding g."""
    with open(path, "w") as fh:
        fh.write(f"{poly.dim} {poly.nrows}\n")
        for row in poly.F:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        fh.write(" ".join(f"{v:.17g}" for v in poly.g) + "\n")


def load_polyhedron(path) -> Polyhedron:
    with open(path) as fh:
        n, k = (int(t) for t in fh.readline().split())
        F = np.array([[float(t) for t in fh.readline().split()] for _ in range(k)])
        g = np.array([float(t) for t in fh.readline().split()])
    if F.shape != (k, n) or g.shape != (k,):
        raise GeometryError(f"polyhedron file {path} does not match its header")
    return Polyhedron(F, g)
