"""Terminal ingredients for the tracking MPC.

Produces the feedback gain K and terminal weight P from the discrete
algebraic Riccati equation (structure-preserving doubling), the extended
dynamics of (fast state, artificial steady input) pairs under the
terminal law, and the maximal admissible invariant set for tracking used
as the MPC terminal constraint. The set's LPs run in coordinates shifted
to a steady pair inside the constraints, a fixed point of the extended
dynamics picked by geometry.centre's rule over the steady pairs, where
every propagated row keeps a nonnegative rhs: each LP starts from the
slack basis with no shift of its own, and invariance_excess proves
invariance the same way. All of them go through geometry's one LP front
end and its one pivot loop: a propagation LP as lp_max, a family of
one, and invariance_excess's row LPs as one family; where a set holds
no steady pair, the front end shifts the rows to the set's centre
itself. Since the shifted set holds the origin, a point an earlier
propagation LP returned, scaled back into the current set, or the ray
an unbounded one returned can show a candidate row irredundant with no
LP, and a candidate that repeats a row already held needs none.

W_lambda bounds the terminal-law input by the box V and the steady input
by V shrunk about its centre, so both boxes share that centre, and
W_lambda and every propagated set are symmetric about the steady pair at
it: each row has its exact negation, with the same rhs about it. That
pair is the shift, and the rows' pairing comes with it; each LP point's
mirror is a witness too, a candidate whose mirror was just shown
redundant needs no LP, and invariance_excess runs one LP per mirror
pair. On the shipped pair 5 LPs decide the 12 propagation rounds, and
the final reduction of 96 rows (26 mirror pairs once exact copies go)
runs a family of 13 LPs, one for each of 13 pairs (93 pivots), the LP
points and their images under A_w showing the other 13 irredundant.

Sign convention: K is Schur-stabilizing for A + BK and enters the
terminal law as v = K(x - x_a) + v_a; for the positive anesthesia
dynamics its entries come out nonpositive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compensation import InputBox
from .errors import ModelConfigError
from .geometry import (
    Polyhedron,
    centre,
    lp_max,
    lp_max_stack,
    ray_ratios,
    remove_redundant,
    shown_irredundant,
)
from .pkpd import DiscreteDynamics

DARE_STEP_TOL = 1e-12
DARE_MAX_ITER = 100
DARE_RESIDUAL_TOL = 1e-8
INVARIANT_MAX_ITER = 500
_RANK_TOL = 1e-11


@dataclass(frozen=True)
class TerminalIngredients:
    K: np.ndarray
    P: np.ndarray
    psi: np.ndarray
    A_w: np.ndarray
    X_a: Polyhedron
    lam: float
    determination_index: int = 0


def _rank(M) -> int:
    return int(np.linalg.matrix_rank(M, tol=_RANK_TOL))


def _check_stabilizable(A: np.ndarray, B: np.ndarray) -> None:
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - 1e-12:
            if _rank(np.hstack([A - lam * np.eye(n), B])) < n:
                raise ModelConfigError(
                    f"(A, B) not stabilizable: PBH rank drops at eigenvalue {lam:.6g}"
                )


def psd_sqrt(M: np.ndarray, name: str) -> np.ndarray:
    """The symmetric square root of the weight M (its symmetric part);
    raises, naming it, when M is not positive semidefinite."""
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w.min() < -1e-10:
        raise ModelConfigError(f"{name} must be positive semidefinite")
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


def _check_observable_sqrtQ(A: np.ndarray, Q: np.ndarray) -> None:
    n = A.shape[0]
    C = psd_sqrt(Q, "Q")
    obs = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
    if _rank(obs) < n:
        raise ModelConfigError("(Q^1/2, A) is not observable")


def solve_dare(A, B, Q, R) -> tuple[np.ndarray, np.ndarray]:
    """Structure-preserving doubling from (A, B R^-1 B', Q).

    Each step squares the closed-loop transition, so the error falls
    quadratically: about ten steps where the Riccati recursion needs
    hundreds. Returns (P, K) with P the stabilizing solution and
    K = -(R + B'PB)^-1 B'PA, so A + BK is Schur.
    """
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    Q = np.asarray(Q, float)
    R = np.asarray(R, float)
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        raise ModelConfigError("R must be positive definite") from None
    _check_stabilizable(A, B)
    _check_observable_sqrtQ(A, Q)

    n = A.shape[0]
    Ak, Gk, P = A, B @ np.linalg.solve(R, B.T), Q.copy()
    for _ in range(DARE_MAX_ITER):
        # X = (I + G P)^-1 [A, G]
        X = np.linalg.solve(np.eye(n) + Gk @ P, np.hstack([Ak, Gk]))
        P_next = P + Ak.T @ P @ X[:, :n]
        P_next = 0.5 * (P_next + P_next.T)
        Gk = Gk + Ak @ X[:, n:] @ Ak.T
        Gk = 0.5 * (Gk + Gk.T)
        Ak = Ak @ X[:, :n]
        if np.max(np.abs(P_next - P)) <= DARE_STEP_TOL * max(1.0, np.max(np.abs(P_next))):
            P = P_next
            break
        P = P_next
    else:
        raise ModelConfigError(
            f"Riccati doubling did not converge within {DARE_MAX_ITER} steps"
        )
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return P, K


def dare_residual(A, B, Q, R, P) -> float:
    APB = A.T @ P @ B
    res = A.T @ P @ A - P - APB @ np.linalg.solve(R + B.T @ P @ B, APB.T) + Q
    return float(np.max(np.abs(res)))


def controllability_index(A, B) -> int:
    """Smallest k with rank [B, AB, ..., A^(k-1)B] = n."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    n = A.shape[0]
    blocks = [B]
    for k in range(1, n + 1):
        if _rank(np.hstack(blocks)) == n:
            return k
        blocks.append(A @ blocks[-1])
    raise ModelConfigError("(A, B) is not controllable")


def extended_dynamics(dyn: DiscreteDynamics, K: np.ndarray):
    """Transition matrix of w = (x_f, v_a) under the terminal law and the
    steady-input feedthrough psi = K (I - A)^-1 B."""
    A, B = dyn.A_f, dyn.B
    n, m = B.shape
    psi = K @ np.linalg.solve(np.eye(n) - A, B)
    phi = A + B @ K
    A_w = np.block([
        [phi, B @ (np.eye(m) - psi)],
        [np.zeros((m, n)), np.eye(m)],
    ])
    return A_w, psi


def tighten_box(V: InputBox, lam: float) -> InputBox:
    """Shrink a box by factor lam about its center, so the result sits
    strictly inside V for lam < 1 whatever the box position."""
    center = 0.5 * (V.lower + V.upper)
    half = 0.5 * (V.upper - V.lower)
    return InputBox(lower=center - lam * half, upper=center + lam * half)


def build_W_lambda(K: np.ndarray, psi: np.ndarray, V: InputBox, lam: float) -> Polyhedron:
    """Constraint polyhedron on w = (x, v_a): the terminal-law input
    K x + (I - psi) v_a stays in V and v_a stays in the lam-tightened V.

    The state itself is unconstrained. Tightening v_a is what makes the
    invariant-set iteration finitely determined despite the unit
    eigenvalues of the extended dynamics.
    """
    if not 0.0 < lam < 1.0:
        raise ModelConfigError("lambda must lie strictly inside (0, 1)")
    m, n = K.shape
    F1 = np.hstack([K, np.eye(m) - psi])
    E = np.hstack([np.zeros((m, n)), np.eye(m)])
    tight = tighten_box(V, lam)
    F = np.vstack([F1, -F1, E, -E])
    g = np.concatenate([V.upper, -V.lower, tight.upper, -tight.lower])
    return Polyhedron(F, g)


def _steady_shift(A_w: np.ndarray, W: Polyhedron) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """geometry.centre of W over the fixed points w = A_w w: (w0, h, twin)
    with w0 = A_w w0. For the extended dynamics the fixed points are the
    steady pairs, and W_lambda's centre is the steady pair at the centre
    of the lambda box, found with no LP.

    Since F A_w^k w0 = F w0, every row F A_w^k w <= g shifted to w0 has
    the rhs h >= 0, so LPs over such rows start from the slack basis.
    When W holds no fixed point, (0, g, identity): no shift.
    """
    dim = A_w.shape[0]
    _, s, Vt = np.linalg.svd(A_w - np.eye(dim))
    N = Vt[s <= _RANK_TOL * max(1.0, s[0])].T
    frame = centre(W, basis=N)
    if frame is None:
        return np.zeros(dim), W.g, np.arange(W.nrows)
    return frame


def _witness(cand: np.ndarray, h: np.ndarray, F_acc: np.ndarray, h_acc: np.ndarray,
             points: list) -> tuple[int, np.ndarray] | None:
    """A candidate row j and a point of {F_acc w <= h_acc} that shows it
    irredundant (shown_irredundant: cand[j] tops h[j] + 1e-9 by the margin
    1e-7 max(1, h[j])), or None.

    Needs h_acc >= 0: the set then holds 0 and, with each point p, the
    point t p with t = min h_acc_i / (F_acc p)_i over the rows where
    (F_acc p)_i > 0, the furthest along p. With no such row, p is a ray
    of the set, and a witness for the rows with cand[j] . p > 0.
    """
    P = np.array(points).T
    t = ray_ratios(F_acc @ P, h_acc).min(axis=0)
    CP = cand @ P
    hit = shown_irredundant(CP, t, h[:, None]).nonzero()
    if not hit[0].size:
        return None
    j, q = int(hit[0][0]), int(hit[1][0])
    scale = t[q] if np.isfinite(t[q]) else 2.0 * (h[j] + 1.0) / CP[j, q]
    return j, scale * P[:, q]


def max_admissible_invariant_set(A_w: np.ndarray, W: Polyhedron,
                                 max_iter: int = INVARIANT_MAX_ITER):
    """Constraint-propagation fixpoint: accumulate the rows F A_w^i w <= g
    until every candidate row F A_w^(i+1) is redundant over the current
    set X_k, then strip redundant rows.

    The LPs run in coordinates shifted to a steady point of W (see
    _steady_shift), where each starts from the slack basis and runs to
    its optimum. A round ends at the first candidate shown irredundant,
    so with the origin in X_k (every shifted rhs h >= 0) two rules decide
    most rounds without an LP:

    - a candidate equal to the same row of the previous block is a row
      of X_k with the same rhs, so it is redundant;
    - a point of X_k, scaled from a point an earlier LP returned or
      taken along the ray an unbounded LP returned (see _witness), on
      which a candidate tops its bound by a margin far above the LP
      tolerance, bounds that candidate's LP maximum from below, so its
      LP would show it irredundant. Which candidate ends a round does
      not matter, only that one does: the round ends as its LPs would
      end it, appending the same block.

    When the shift is W's centre of symmetry (the twins that come with it
    are mirror pairs) and each block F A_w^i keeps the pairs exact, every
    shifted X_k is symmetric about the origin: the mirror -p of each LP's
    point is a point of X_k too, and a candidate whose mirror an LP of
    this round just showed redundant is redundant as well, with no LP of
    its own.

    Only the rounds neither rule decides run their LPs, in row order,
    so the rows, k* and the reduced set are those of one LP per
    candidate. Without a steady point in W the rules are off: the LPs
    then also report an empty W. The reduction takes the LP points, their
    mirrors and their images under A_w^s, s = 1..k*, as directions that
    show rows of the result irredundant without an LP.

    Returns (polyhedron, determination index k*).
    """
    F, g = W.F, W.g
    _, h, twin = _steady_shift(A_w, W)
    points = [] if np.all(h >= 0.0) else None
    mirror = None if (twin == np.arange(twin.size)).all() else twin  # pairs, if any
    F_acc, h_acc = F.copy(), h.copy()
    M = np.eye(A_w.shape[0])
    for k in range(max_iter + 1):
        M = M @ A_w
        cand = F @ M
        if mirror is not None and not np.array_equal(cand[mirror], -cand):
            mirror = None  # X_(k+1) need not be symmetric
        if points is None:
            rows = range(cand.shape[0])
        else:  # a row equal to the previous block's is held
            rows = (cand != F_acc[-len(F):]).any(axis=1).nonzero()[0]
        all_redundant = not (points and _witness(cand[rows], h[rows], F_acc, h_acc, points))
        if all_redundant:
            current = Polyhedron(F_acc, h_acc)
            redundant = set()
            for j in rows:
                if mirror is not None and mirror[j] in redundant:
                    continue
                res = lp_max(cand[j], current)
                if res.status == "infeasible":
                    raise ModelConfigError("constraint polyhedron is empty")
                if points is not None and res.argmax is not None:
                    points.append(res.argmax)
                    if mirror is not None:
                        points.append(-res.argmax)
                if res.status != "optimal" or res.value > h[j] + 1e-9:
                    all_redundant = False
                    break
                redundant.add(j)
        if all_redundant:
            directions = None
            if points:
                images = [np.array(points)]
                for _ in range(k):
                    images.append(images[-1] @ A_w.T)
                directions = np.vstack(images)
            return remove_redundant(Polyhedron(F_acc, np.tile(g, k + 1)),
                                    directions=directions), k
        F_acc = np.vstack([F_acc, cand])
        h_acc = np.concatenate([h_acc, h])
    raise ModelConfigError(
        f"invariant set not finitely determined within {max_iter} iterations; "
        "check lambda < 1"
    )


def _invariance_family(A_w: np.ndarray, X: Polyhedron):
    """invariance_excess's row LPs: (FA, w0, h, twin, tested) with FA =
    F A_w, X's rows shifted to w0 as in the build (_steady_shift), F u <=
    h, twin[j] the row that takes row j's maximum, and tested the rows
    whose LP runs, one per twin pair."""
    w0, h, twin = _steady_shift(A_w, X)
    FA = X.F @ A_w
    if not np.array_equal(FA[twin], -FA):
        twin = np.arange(X.nrows)
    return FA, w0, h, twin, (np.arange(X.nrows) <= twin).nonzero()[0]


def invariance_excess(A_w: np.ndarray, X: Polyhedron) -> float:
    """Largest max_{w in X} F_j A_w w - g_j over the rows j of X; +inf if a
    row is unbounded or X is empty. X is invariant under A_w iff this is
    <= 0 (up to the LP tolerance). The row LPs share X's rows, so they run
    as one family (lp_max_stack) on the rows shifted to a steady point of
    X as in the build (_steady_shift); when X holds none, the front end
    shifts them to X's centre itself. When the rows F A_w keep the
    pairing of twins that comes with the shift, the two rows of a pair
    have the same maximum, so one LP per pair runs (invariance_lps).
    """
    FA, w0, h, twin, tested = _invariance_family(A_w, X)
    offset = FA @ w0 - X.g
    value = np.empty(X.nrows)
    for j, res in zip(tested, lp_max_stack(FA[tested], Polyhedron(X.F, h))):
        if res.status != "optimal":
            return np.inf
        value[[j, twin[j]]] = res.value
    return float(np.max(value + offset, initial=-np.inf))


def invariance_lps(A_w: np.ndarray, X: Polyhedron) -> int:
    """The number of row LPs invariance_excess runs on (A_w, X)."""
    return _invariance_family(A_w, X)[-1].size


def compute_terminal_ingredients(dyn: DiscreteDynamics, V: InputBox, Q, R,
                                 lam: float) -> TerminalIngredients:
    """One-stop construction of (K, P, psi, A_w, X_a) for a patient model."""
    P, K = solve_dare(dyn.A_f, dyn.B, Q, R)
    A_w, psi = extended_dynamics(dyn, K)
    W = build_W_lambda(K, psi, V, lam)
    X_a, kstar = max_admissible_invariant_set(A_w, W)
    return TerminalIngredients(K=K, P=P, psi=psi, A_w=A_w, X_a=X_a, lam=lam,
                               determination_index=kstar)
