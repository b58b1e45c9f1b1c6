import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anesmpc import geometry, pkpd, terminal
from anesmpc.errors import GeometryError
from anesmpc.geometry import (
    FEAS_TOL,
    Polyhedron,
    centre,
    contains,
    lp_max,
    lp_max_stack,
    mirror_rows,
    remove_redundant,
    save_matrix,
    save_polyhedron,
)

from conftest import Q_DIAG, R_EYE, log_uniform_patient, perturbed
from oracles import chebyshev_centre, load_matrix, load_polyhedron

REFERENCE_X_A = Path(__file__).parent / "data" / "reference_X_a.poly"


def box(lo, hi):
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    n = lo.size
    return Polyhedron(np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([hi, -lo]))


def vertex_enum_max(c, poly):
    """Brute-force LP oracle: enumerate basic solutions F_S w = g_S."""
    F, g = poly.F, poly.g
    n = poly.dim
    best = -np.inf
    for rows in itertools.combinations(range(poly.nrows), n):
        Fs = F[list(rows)]
        if abs(np.linalg.det(Fs)) < 1e-10:
            continue
        w = np.linalg.solve(Fs, g[list(rows)])
        if np.all(F @ w <= g + 1e-8):
            best = max(best, float(c @ w))
    return best


def random_lps():
    """60 random LPs (c, F, g) with 2-8 variables; every status occurs."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(n, 41))
        F = rng.normal(size=(k, n))
        g = rng.normal(size=k) + rng.uniform(-1.0, 2.0)
        yield rng.normal(size=n), F, g


# (c, F, g, max) of two degenerate LPs; in the second, Bland's rule meets
# a column holding a slack before a column with a lower variable index
TIE_LPS = [
    ([-1.0, 1.0, -1.0],
     [[-2.0, -1.0, -2.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 2.0, 2.0]],
     [2.0, 2.0, 2.0, 1.0], 4.0),
    ([-2.0, 1.0, -2.0],
     [[-2.0, 1.0, 2.0], [1.0, -1.0, -2.0], [-2.0, 1.0, 1.0], [0.0, 1.0, 0.0]],
     [0.0, 0.0, 2.0, 1.0], 2.0),
]


def full_tableau_lp(c, F, g):
    """Reference simplex by Bland's rule on the full (m+1) x (2n+m+1)
    tableau with its slack identity block, for g >= 0: the pivots as
    (entering, leaving) variable indices and the final point, or None when
    unbounded."""
    m, n = F.shape
    T = np.hstack([F, -F, np.eye(m), g[:, None]])
    T = np.vstack([T, np.concatenate([-c, c, np.zeros(m + 1)])])
    basis = 2 * n + np.arange(m)
    pivots = []
    while True:
        improving = np.flatnonzero(T[-1, :-1] < -geometry.OPT_TOL)
        if improving.size == 0:
            break
        col = int(improving[0])
        colvals = T[:m, col]
        pos = colvals > geometry.FEAS_TOL
        if not np.any(pos):
            return pivots, None
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / colvals[pos]
        cand = np.flatnonzero(ratios <= np.min(ratios) + 1e-12)
        row = int(cand[np.argmin(basis[cand])])
        pivots.append((col, int(basis[row])))
        T[row] /= T[row, col]
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T -= np.outer(colvals, T[row])
        T[:, col] = 0.0
        T[row, col] = 1.0
        rhs = T[:-1, -1]
        rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0
        basis[row] = col
    x = np.zeros(2 * n + m)
    x[basis] = T[:m, -1]
    return pivots, x[:n] - x[n:2 * n]


def assert_random_lps_match_highs():
    """lp_max on random_lps() against HiGHS, on status and value."""
    from scipy.optimize import linprog

    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for c, F, g in random_lps():
        mine = lp_max(c, Polyhedron(F, g))
        ref = linprog(-c, A_ub=F, b_ub=g, bounds=[(None, None)] * c.size, method="highs")
        if ref.status == 2:
            assert mine.status == "infeasible"
        elif ref.status == 3:
            assert mine.status == "unbounded"
        else:
            assert mine.status == "optimal"
            assert mine.value == pytest.approx(-ref.fun, abs=1e-7)
            assert np.all(F @ mine.argmax <= g + 1e-9)
        statuses[mine.status] += 1
    # the battery must actually exercise all three outcomes
    assert all(v > 0 for v in statuses.values()), statuses


def sequential_remove_redundant(poly):
    """The one-row-at-a-time rule remove_redundant reproduces: exact
    duplicates of a later row dropped, then one pass in row order, each
    row an lp_max over the rows still kept, shifted to the Chebyshev
    centre, and dropped when that maximum is <= h_j + 1e-9."""
    w0, _ = chebyshev_centre(poly)
    F, g = poly.F, poly.g
    h = np.maximum(g - F @ w0, 0.0)
    seen, surviving = set(), []
    for j in reversed(range(poly.nrows)):
        key = (tuple(F[j].tolist()), float(g[j]))
        if key not in seen:
            surviving.insert(0, j)
        seen.add(key)
    for j in list(surviving):
        others = [i for i in surviving if i != j]
        if not others:
            continue
        res = lp_max(F[j], Polyhedron(F[others], h[others]))
        if res.status == "optimal" and res.value <= h[j] + FEAS_TOL:
            surviving.remove(j)
    return Polyhedron(F[surviving], g[surviving])


def box_with_cuts(rows, seed):
    """The box [-1, 1]^3 and rows - 6 random unit cuts at offsets from 0.3
    inside to 1 outside the box's support in their direction."""
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(rows - 6, 3))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    B = box(-np.ones(3), np.ones(3))
    return Polyhedron(np.vstack([B.F, D]), np.concatenate(
        [B.g, np.abs(D).sum(axis=1) + rng.uniform(-0.3, 1.0, rows - 6)]))


def mirrored_polytope(rng, n, cuts=4):
    """A box about a random centre c, with cuts in mirror pairs about c:
    each cut's offset from c is 0.7 (irredundant) or 1.3 (strictly
    redundant) times the box's support, and two rows through the vertex
    c + half (weakly redundant) and a copy 2 F_j, 2 g_j of a box row
    (weakly redundant with it) come with their mirrors. Rows shuffled."""
    c = rng.uniform(-3.0, 3.0, n)
    half = rng.uniform(0.5, 2.0, n)
    D = rng.normal(size=(cuts, n))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    through = rng.uniform(0.1, 1.0, size=(2, n))
    k = int(rng.integers(n))
    rows = np.vstack([np.eye(n), D, through, 2.0 * np.eye(n)[k]])
    offsets = np.concatenate([half, (np.abs(D) @ half) * rng.choice([0.7, 1.3], cuts),
                              through @ half, [2.0 * half[k]]])
    F = np.vstack([rows, -rows])
    g = np.concatenate([rows @ c + offsets, -rows @ c + offsets])
    order = rng.permutation(F.shape[0])
    return Polyhedron(F[order], g[order])


def family_and_lone_lps(monkeypatch):
    """LPs run by the pivot loop outside a lone lp_max call (those of a
    family) and the objectives of lone lp_max calls."""
    made = {"family": 0, "lone": []}
    real_run, real = geometry._run_simplex, geometry.lp_max
    lone = [False]  # an lp_max call under way

    def counting(*args):
        made["family"] += not lone[0]
        return real_run(*args)

    def recording(c, poly):
        made["lone"].append(np.asarray(c))
        lone[0] = True
        try:
            return real(c, poly)
        finally:
            lone[0] = False

    monkeypatch.setattr(geometry, "_run_simplex", counting)
    monkeypatch.setattr(geometry, "lp_max", recording)
    return made


@pytest.fixture
def centre_lps(monkeypatch):
    """The row count of each Chebyshev-centre LP run."""
    calls = []
    real = geometry._centre

    def counting(poly):
        calls.append(poly.nrows)
        return real(poly)

    monkeypatch.setattr(geometry, "_centre", counting)
    return calls


class TestLpMax:
    def test_unit_interval(self):
        res = lp_max([1.0], box([0.0], [1.0]))
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_triangle(self):
        P = Polyhedron([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 2.0])
        res = lp_max([1.0, 1.0], P)
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_infeasible(self):
        P = Polyhedron([[1.0], [-1.0]], [0.0, -1.0])  # w <= 0 and w >= 1
        assert lp_max([1.0], P).status == "infeasible"

    def test_unbounded(self):
        P = Polyhedron([[-1.0]], [0.0])  # w >= 0
        assert lp_max([1.0], P).status == "unbounded"

    def test_zero_objective(self):
        res = lp_max([0.0, 0.0], box([0, 0], [1, 1]))
        assert res.status == "optimal"
        assert res.value == 0.0

    def test_beale_lp_does_not_cycle(self, monkeypatch):
        # Beale's degenerate LP, on which pricing by the most negative
        # reduced cost cycles: Bland's rule reaches the optimum 1.25 at
        # (1, 0, 1, 0) in 8 pivots, alone and as a family of two
        c = np.array([0.75, -20.0, 0.5, -6.0])
        F = np.vstack([[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
                       -np.eye(4)])
        P = Polyhedron(F, [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        pivots = [0]
        real = geometry._pivot

        def counting(*args):
            pivots[0] += 1
            return real(*args)

        monkeypatch.setattr(geometry, "_pivot", counting)
        for C in ([c], [c, c]):
            pivots[0] = 0
            for res in lp_max_stack(C, P):
                assert res.status == "optimal"
                assert abs(res.value - 1.25) <= 1e-15
                np.testing.assert_allclose(res.argmax, [1.0, 0.0, 1.0, 0.0], rtol=0, atol=1e-15)
            assert pivots[0] == 8 * len(C)

    def test_pivot_cap_raises(self, monkeypatch):
        # the safety cap holds alone and in a family: a random LP that takes
        # more pivots than the cap raises instead of returning a vertex
        c, F, g = next((c, F, np.abs(g)) for c, F, g in random_lps()
                       if len(full_tableau_lp(c, F, np.abs(g))[0]) > 2)
        monkeypatch.setattr(geometry, "_MAX_PIVOTS", 2)
        for C in ([c], [-c, c]):
            with pytest.raises(GeometryError, match="pivot cap"):
                lp_max_stack(C, Polyhedron(F, g))

    def test_negative_rhs_needs_phase_one(self):
        # 1 <= w <= 3 written with a negative rhs row
        P = Polyhedron([[1.0], [-1.0]], [3.0, -1.0])
        res = lp_max([-1.0], P)
        assert res.value == pytest.approx(-1.0, abs=1e-9)
        assert res.argmax[0] == pytest.approx(1.0, abs=1e-9)

    def test_random_4d_against_vertex_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            F = np.vstack([np.eye(4), -np.eye(4), rng.normal(size=(6, 4))])
            g = np.concatenate([np.full(8, 2.0), rng.uniform(0.5, 3.0, size=6)])
            P = Polyhedron(F, g)
            c = rng.normal(size=4)
            res = lp_max(c, P)
            assert res.status == "optimal"
            assert np.all(F @ res.argmax <= g + 1e-9)
            assert res.value == pytest.approx(vertex_enum_max(c, P), abs=1e-8)

    def test_weak_duality_bound(self):
        # with c = F'y and y >= 0, any feasible w gives c.w <= y.g
        rng = np.random.default_rng(11)
        for _ in range(25):
            F = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(4, 3))])
            g = np.concatenate([np.full(6, 1.5), rng.uniform(1.0, 2.0, size=4)])
            y = rng.uniform(0.0, 1.0, size=10)
            c = F.T @ y
            res = lp_max(c, Polyhedron(F, g))
            assert res.status == "optimal"
            assert res.value <= y @ g + 1e-8

    def test_cross_check_against_scipy(self):
        assert_random_lps_match_highs()

    def test_same_pivots_and_point_as_the_full_tableau(self, monkeypatch):
        # the dictionary drops the slack identity block but must pivot and
        # round exactly as the full tableau does
        pivots = []
        real = geometry._pivot

        def recording(D, basis, nonbasic, row, col, work):
            pivots.append((int(nonbasic[col]), int(basis[row])))
            return real(D, basis, nonbasic, row, col, work)

        monkeypatch.setattr(geometry, "_pivot", recording)
        lps = [(c, F, np.abs(g)) for c, F, g in random_lps()]
        lps += [(np.array(c), np.array(F), np.array(g)) for c, F, g, _ in TIE_LPS]
        for c, F, g in lps:
            pivots.clear()
            ref_pivots, ref_point = full_tableau_lp(c, F, g)
            res = lp_max(c, Polyhedron(F, g))
            assert pivots == ref_pivots
            if ref_point is None:
                assert res.status == "unbounded"
            else:
                assert res.status == "optimal"
                assert np.array_equal(res.argmax, ref_point)

    def test_entering_variable_is_the_lowest_index(self, monkeypatch):
        # the dictionary's columns hold variables out of index order after
        # a pivot; the rule must still pick by variable index
        c, F, g, best = TIE_LPS[1]
        out_of_order = 0
        real = geometry._pivot

        def checking(D, basis, nonbasic, row, col, work):
            nonlocal out_of_order
            cols = np.flatnonzero(D[:-1, -1] < -geometry.OPT_TOL)  # the improving columns
            assert nonbasic[col] == min(nonbasic[j] for j in cols)
            out_of_order += any(j < col for j in cols)
            return real(D, basis, nonbasic, row, col, work)

        monkeypatch.setattr(geometry, "_pivot", checking)
        res = lp_max(c, Polyhedron(F, g))
        assert out_of_order > 0
        assert res.status == "optimal"
        assert res.value == pytest.approx(best, abs=1e-12)

    def test_matches_linprog_on_offset_boxes_and_cuts(self):
        # boxes away from the origin (rows with negative rhs), open
        # half-space stacks (unbounded) and boxes cut off by a contradictory
        # row (infeasible), each against HiGHS; every bounded case is also
        # solved shifted to its Chebyshev centre (nonnegative rhs), as the
        # redundancy LPs are
        from scipy.optimize import linprog

        rng = np.random.default_rng(41)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        negative_optimal = 0
        for trial in range(90):
            n = int(rng.integers(2, 7))
            lo = rng.uniform(-3.0, 3.0, n)
            B = box(lo, lo + rng.uniform(0.5, 2.0, n))
            cuts = rng.normal(size=(int(rng.integers(1, 8)), n))
            cut_g = cuts @ (lo + 0.5) + rng.uniform(-0.5, 1.0, cuts.shape[0])
            kind = trial % 3
            if kind == 0:
                F, g = np.vstack([B.F, cuts]), np.concatenate([B.g, cut_g])
            elif kind == 1:  # drop the upper bounds: open to +inf
                F, g = np.vstack([B.F[n:], cuts]), np.concatenate([B.g[n:], cut_g])
            else:  # sum of coordinates beyond the box
                F = np.vstack([B.F, cuts, -np.ones((1, n))])
                g = np.concatenate([B.g, cut_g, [-np.sum(lo) - 2.0 * n - 1.0]])
            c = rng.normal(size=n)
            if kind == 1:
                c = np.abs(c)
            mine = lp_max(c, Polyhedron(F, g))
            ref = linprog(-c, A_ub=F, b_ub=g, bounds=[(None, None)] * n, method="highs")
            if ref.status == 2:
                assert mine.status == "infeasible"
            elif ref.status == 3:
                assert mine.status == "unbounded"
            else:
                assert mine.status == "optimal"
                assert mine.value == pytest.approx(-ref.fun, abs=1e-7)
                assert np.all(F @ mine.argmax <= g + 1e-9)
                negative_optimal += bool(np.any(g < 0))
                w0, r = chebyshev_centre(Polyhedron(F, g))
                assert r > 0.0
                shifted = lp_max(c, Polyhedron(F, g - F @ w0))
                assert shifted.value + c @ w0 == pytest.approx(-ref.fun, abs=1e-7)
            statuses[mine.status] += 1
        assert all(v > 0 for v in statuses.values()), statuses
        assert negative_optimal > 0

    @pytest.mark.parametrize("c", [[np.nan, 1.0], [np.inf, 1.0]], ids=["nan", "inf"])
    def test_rejects_a_non_finite_objective(self, c):
        with pytest.raises(GeometryError, match="objective contains NaN or Inf"):
            lp_max(c, box([0.0, 0.0], [1.0, 1.0]))

    def test_degenerate_vertex(self):
        # four planes through one corner of the unit cube
        F = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0]]])
        g = np.concatenate([np.ones(3), np.zeros(3), [3.0]])
        res = lp_max([1.0, 1.0, 1.0], Polyhedron(F, g))
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0, abs=1e-9)


class TestLpMaxStack:
    @staticmethod
    def _stacks():
        """Per random LP (c, F, g), over the rows F w <= |g| and then over
        F w <= g (negative rhs entries, some sets empty): objectives c, -c,
        three rows of F and a random one."""
        rng = np.random.default_rng(29)
        for c, F, g in random_lps():
            C = np.vstack([c, -c, F[:3], rng.normal(size=c.size)])
            for rhs in (np.abs(g), g):
                yield C, Polyhedron(F, rhs)

    @staticmethod
    def _assert_same(member, alone):
        # each LP of a family pivots its copy of the family's dictionary
        # as lp_max pivots its own, so the results agree to the bit
        assert member.status == alone.status
        assert member.value == alone.value
        if alone.argmax is None:  # "infeasible"
            assert member.argmax is None
            return
        assert np.array_equal(member.argmax, alone.argmax)

    def test_matches_lp_max_on_the_random_battery(self):
        statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
        for C, P in self._stacks():
            for c, res in zip(C, lp_max_stack(C, P)):
                self._assert_same(res, lp_max(c, P))
                if res.status == "optimal":
                    assert res.value == c @ res.argmax
                    assert np.all(P.F @ res.argmax <= P.g + 1e-9)
                if res.status == "unbounded":  # a ray: no row stops it, c grows
                    d = res.argmax
                    assert np.all(P.F @ d <= 1e-9 * np.abs(P.F).max() * np.abs(d).max())
                    assert c @ d > 0.0
                statuses[res.status] += 1
        assert all(v > 0 for v in statuses.values()), statuses

    @staticmethod
    def _assert_same_maximum(res, plain, P):
        # the maximum of c . w over P that plain, lp_max's result, holds
        assert res.status == plain.status != "infeasible"
        if res.status == "optimal":
            assert np.all(P.F @ res.argmax <= P.g + 1e-9)
            assert res.value == pytest.approx(plain.value, abs=1e-7)

    def test_skipped_row_is_left_out(self):
        # LP l over every row but skip[l] is lp_max over the rows without
        # it: to the bit on a nonnegative rhs. A negative rhs shifts every
        # LP to the centre of all the rows, where lp_max shifts to the
        # centre of its own, so there the maximum agrees; when all the
        # rows hold no point, every LP is "infeasible"
        rng = np.random.default_rng(37)
        shifted = {"optimal": 0, "unbounded": 0, "infeasible": 0}
        for C, P in self._stacks():
            skip = rng.integers(0, P.nrows, C.shape[0])
            results = lp_max_stack(C, P, skip=skip)
            empty = geometry.is_empty(P)
            for c, j, res in zip(C, skip, results):
                rest = Polyhedron(np.delete(P.F, j, axis=0), np.delete(P.g, j))
                # the same LP as a family of one, to the same bits
                self._assert_same(lp_max_stack([c], P, skip=[j])[0], res)
                if np.all(P.g >= 0):
                    self._assert_same(res, lp_max(c, rest))
                    continue
                if empty:
                    assert res.status == "infeasible" and res.argmax is None
                else:
                    self._assert_same_maximum(res, lp_max(c, rest), rest)
                shifted[res.status] += 1
        assert all(v > 0 for v in shifted.values()), shifted

    def test_solves_a_negative_rhs_family(self):
        # 1 <= w <= 3 excludes the slack basis point w = 0: the family runs
        # from the centre w0 = 2; with 4 <= w <= 3 every LP is "infeasible"
        res = lp_max_stack([[1.0], [-1.0], [2.0]], Polyhedron([[1.0], [-1.0]], [3.0, -1.0]))
        assert [r.status for r in res] == ["optimal"] * 3
        assert [r.value for r in res] == pytest.approx([3.0, -1.0, 6.0], abs=1e-12)
        empty = lp_max_stack([[1.0], [-1.0]], Polyhedron([[1.0], [-1.0]], [3.0, -4.0]))
        assert [r.status for r in empty] == ["infeasible"] * 2

    @pytest.mark.parametrize("which", ["stored X_a", "shifted box", "unpaired"])
    def test_negative_rhs_family_takes_one_centre(self, centre_lps, which):
        # a family whose rows pair about a point is shifted to it with no
        # centre LP; any other takes one per family: one for the family of
        # eight, then one for each lp_max
        from scipy.optimize import linprog

        if which == "stored X_a":
            P = load_polyhedron(REFERENCE_X_A)
        elif which == "shifted box":
            P = box([100.0, -300.0, 5.0], [101.0, -297.0, 6.5])
        else:  # the shifted box with one corner cut off
            P = box([100.0, -300.0, 5.0], [101.0, -297.0, 6.5])
            P = Polyhedron(np.vstack([P.F, [[1.0, -1.0, 1.0]]]), np.append(P.g, 405.0))
        assert np.any(P.g < 0)
        C = np.random.default_rng(71).normal(size=(8, P.dim))
        results = lp_max_stack(C, P)
        assert len(centre_lps) == (which == "unpaired")
        for c, res in zip(C, results):
            ref = linprog(-c, A_ub=P.F, b_ub=P.g, bounds=[(None, None)] * P.dim,
                          method="highs")
            assert ref.status == 0 and res.status == "optimal"
            assert res.value == pytest.approx(-ref.fun, abs=1e-9)
            assert np.all(P.F @ res.argmax <= P.g + 1e-9)
            alone = lp_max(c, P)
            assert alone.value == pytest.approx(-ref.fun, abs=1e-9)
        assert len(centre_lps) == (which == "unpaired") * (1 + C.shape[0])

    def test_empty_row_set(self):
        res = lp_max_stack([[1.0, 0.0], [0.0, 0.0]], Polyhedron(np.zeros((0, 2)), []))
        assert [r.status for r in res] == ["unbounded", "optimal"]
        assert res[1].value == 0.0

    @pytest.mark.parametrize("C, skip, match", [
        ([[1.0, 0.0]], None, "entries"),
        ([[np.nan]], None, "objective contains NaN or Inf"),
        ([[1.0], [-1.0]], [-4, 0], r"skip must hold 2 integers in \[0, 2\)"),
        ([[1.0], [-1.0]], [0, 2], r"skip must hold 2 integers in \[0, 2\)"),
        ([[1.0], [-1.0]], [0.5, 1], r"skip must hold 2 integers in \[0, 2\)"),
        ([[1.0], [-1.0]], [True, False], r"skip must hold 2 integers in \[0, 2\)"),
        ([[1.0], [-1.0]], [0, 1, 1], r"skip must hold 2 integers in \[0, 2\)"),
        ([[1.0], [-1.0]], [[0, 1]], r"skip must hold 2 integers in \[0, 2\)"),
    ], ids=["objective-length", "nan-objective", "skip-negative", "skip-past-the-end",
            "skip-fraction", "skip-bool", "skip-count", "skip-shape"])
    def test_rejects_bad_input(self, C, skip, match):
        with pytest.raises(GeometryError, match=match):
            lp_max_stack(C, Polyhedron([[1.0], [-1.0]], [1.0, 1.0]), skip=skip)


class TestRemoveRedundant:
    def test_dominated_row(self):
        P = Polyhedron([[1.0], [1.0]], [1.0, 2.0])
        R = remove_redundant(P)
        assert R.nrows == 1
        assert R.g[0] == 1.0

    def test_duplicates_collapse(self):
        P = Polyhedron([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       [1.0, 1.0, 0.0, 1.0, 0.0])
        R = remove_redundant(P)
        assert R.nrows == 4

    def test_box_with_redundant_cuts(self):
        rng = np.random.default_rng(3)
        for n in (2, 3):
            B = box(-np.ones(n), np.ones(n))
            # 10 cuts strictly outside the box
            D = rng.normal(size=(10, n))
            D /= np.linalg.norm(D, axis=1, keepdims=True)
            extra_g = np.abs(D) @ np.ones(n) + rng.uniform(0.1, 1.0, size=10)
            P = Polyhedron(np.vstack([B.F, D]), np.concatenate([B.g, extra_g]))
            R = remove_redundant(P)
            assert R.nrows == 2 * n

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        F = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(5, 3))])
        g = np.concatenate([np.ones(6), rng.uniform(0.5, 4.0, size=5)])
        R1 = remove_redundant(Polyhedron(F, g))
        R2 = remove_redundant(R1)
        assert R1.nrows == R2.nrows
        np.testing.assert_allclose(R1.F, R2.F)

    def test_same_set_after_reduction(self):
        rng = np.random.default_rng(9)
        F = np.vstack([np.eye(2), -np.eye(2), rng.normal(size=(8, 2))])
        g = np.concatenate([np.ones(4), rng.uniform(0.2, 2.0, size=8)])
        P = Polyhedron(F, g)
        R = remove_redundant(P)
        pts = rng.uniform(-1.5, 1.5, size=(500, 2))
        for w in pts:
            assert contains(P, w) == contains(R, w)

    def test_empty_raises(self):
        P = Polyhedron([[1.0], [-1.0]], [0.0, -1.0])
        with pytest.raises(GeometryError):
            remove_redundant(P)

    @staticmethod
    def _reference(P):
        """One pass in row order, each row an LP (HiGHS) over the rows still
        kept, on the unshifted data."""
        from scipy.optimize import linprog

        keep = list(range(P.nrows))
        for j in range(P.nrows):
            others = [i for i in keep if i != j]
            if not others:
                continue
            ref = linprog(-P.F[j], A_ub=P.F[others], b_ub=P.g[others],
                          bounds=[(None, None)] * P.dim, method="highs")
            if ref.status == 0 and -ref.fun <= P.g[j] + FEAS_TOL:
                keep.remove(j)
        return Polyhedron(P.F[keep], P.g[keep])

    def _assert_matches_reference(self, P):
        R, ref = remove_redundant(P), self._reference(P)
        assert np.array_equal(R.F, ref.F)
        assert np.array_equal(R.g, ref.g)
        return R

    def test_random_against_per_row_reference(self):
        # boxes away from the origin (negative rhs) with random cuts and
        # exact copies of some rows
        rng = np.random.default_rng(19)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            lo = rng.uniform(0.5, 3.0, n)
            B = box(lo, lo + rng.uniform(0.5, 2.0, n))
            cuts = rng.normal(size=(8, n))
            cut_g = cuts @ (lo + 0.25) + rng.uniform(0.0, 2.0, 8)
            F, g = np.vstack([B.F, cuts]), np.concatenate([B.g, cut_g])
            copies = rng.choice(F.shape[0], 3, replace=False)
            order = rng.permutation(F.shape[0] + 3)
            F = np.vstack([F, F[copies]])[order]
            g = np.concatenate([g, g[copies]])[order]
            assert np.any(g < 0)
            R = self._assert_matches_reference(Polyhedron(F, g))
            assert R.nrows <= F.shape[0] - 3

    def test_exact_duplicates_keep_the_last_copy(self):
        # the first row carries -0.0 where its copy has 0.0
        F = np.array([[1.0, -0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0],
                      [0.0, 1.0]])
        g = np.array([1.0, 2.0, 1.0, 0.5, 0.5, 2.0])
        R = self._assert_matches_reference(Polyhedron(F, g))
        assert R.nrows == 4
        np.testing.assert_array_equal(R.F, F[2:])

    def test_unbounded_set(self):
        # x1 <= 1 twice over, x2 <= 3, a loose cut; open towards -inf
        F = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        g = np.array([1.0, 2.0, 3.0, 10.0, 4.0])
        R = self._assert_matches_reference(Polyhedron(F, g))
        assert R.nrows == 3

    def test_flat_set(self):
        # the segment x1 = 1, 0 <= x2 <= 1 in the plane, with loose cuts
        F = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                      [1.0, 1.0], [0.0, 1.0]])
        g = np.array([1.0, -1.0, 1.0, 0.0, 5.0, 3.0])
        assert chebyshev_centre(Polyhedron(F, g))[1] == pytest.approx(0.0, abs=1e-12)
        R = self._assert_matches_reference(Polyhedron(F, g))
        assert R.nrows == 4

    def test_weakly_redundant_rows_against_reference(self, monkeypatch):
        # scaled copies (2 F_j, 2 g_j) and extra rows through one vertex of
        # the box tie with the rows they copy or touch: neither strictly
        # redundant nor irredundant, so the in-order fallback decides them.
        # Its lone LPs maximize a row of the set; the centre LP's objective
        # has one entry more
        made = family_and_lone_lps(monkeypatch)
        fallback = 0
        rng = np.random.default_rng(47)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            lo = rng.uniform(-2.0, 2.0, n)
            hi = lo + rng.uniform(0.5, 2.0, n)
            B = box(lo, hi)
            cuts = rng.normal(size=(6, n))
            cut_g = cuts @ (lo + 0.25) + rng.uniform(0.0, 2.0, 6)
            F, g = np.vstack([B.F, cuts]), np.concatenate([B.g, cut_g])
            copies = rng.choice(F.shape[0], 3, replace=False)
            through = rng.uniform(0.1, 1.0, size=(3, n))  # normal cone of hi
            F = np.vstack([F, 2.0 * F[copies], through])
            g = np.concatenate([g, 2.0 * g[copies], through @ hi])
            order = rng.permutation(F.shape[0])
            P = Polyhedron(F[order], g[order])
            made["lone"] = []
            self._assert_matches_reference(P)
            fallback += sum(c.size == n and (P.F == c).all(axis=1).any() for c in made["lone"])
        assert fallback > 0

    def test_mirrored_polytopes_stack_one_lp_per_pair(self, monkeypatch):
        # twins take one verdict: one LP of the family per mirror pair and
        # no centre LP; weakly redundant twins are both tested again alone,
        # in row order
        rng = np.random.default_rng(61)
        polys = [mirrored_polytope(rng, int(rng.integers(2, 5))) for _ in range(12)]
        refs = [sequential_remove_redundant(P) for P in polys]
        made = family_and_lone_lps(monkeypatch)
        retested = 0
        for P, ref in zip(polys, refs):
            made["family"], made["lone"] = 0, []
            R = remove_redundant(P)
            assert np.array_equal(R.F, ref.F) and np.array_equal(R.g, ref.g)
            assert made["family"] == P.nrows // 2
            rows = [int(np.flatnonzero((P.F == c).all(axis=1))[0]) for c in made["lone"]]
            assert rows == sorted(rows)
            assert sorted(mirror_rows(P.F)[rows]) == rows
            retested += len(rows)
        assert retested > 0

    def test_empty_symmetric_polyhedron_raises(self):
        # x <= -1 and x >= 1; a box with lower > upper in one coordinate
        for P in (Polyhedron([[1.0], [-1.0]], [-1.0, -1.0]), box([0.0, 2.0], [1.0, 1.0])):
            assert mirror_rows(P.F) is not None
            with pytest.raises(GeometryError, match="empty"):
                remove_redundant(P)

    def test_directions_spare_row_lps(self, monkeypatch):
        # a ray from the centre along e_i meets row e_i first and no other
        # row after it: every row of a box is shown irredundant, with no LP
        P = box([1.0, -2.0, 0.5], [3.0, 1.0, 0.75])
        made = family_and_lone_lps(monkeypatch)
        R = remove_redundant(P, directions=np.eye(3))
        assert np.array_equal(R.F, P.F) and np.array_equal(R.g, P.g)
        assert made == {"family": 0, "lone": []}

    def test_tied_directions_certify_nothing(self, monkeypatch):
        # rays from the centre to vertices meet several rows at once
        rng = np.random.default_rng(67)
        P = mirrored_polytope(rng, 3)
        w0, _, _ = centre(P)
        D = np.array([lp_max(c, P).argmax - w0 for c in rng.normal(size=(8, 3))])
        ref = sequential_remove_redundant(P)
        made = family_and_lone_lps(monkeypatch)
        R = remove_redundant(P, directions=D)
        assert np.array_equal(R.F, ref.F) and np.array_equal(R.g, ref.g)
        assert made["family"] == P.nrows // 2

    @pytest.mark.parametrize("D", [np.ones((2, 3)), [[np.nan, 1.0]]], ids=["width", "nan"])
    def test_rejects_bad_directions(self, D):
        with pytest.raises(GeometryError, match="directions"):
            remove_redundant(box([0.0, 0.0], [1.0, 1.0]), directions=D)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), mirrored=st.booleans())
    def test_directions_change_no_outcome(self, seed, mirrored):
        # random polytopes, mirrored about a centre or boxes with random cuts
        # off the origin, and random directions, row normals, and rays from
        # the centre to vertices, along which the nearest rows tie
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        if mirrored:
            P = mirrored_polytope(rng, n)
            w0, _, _ = centre(P)
        else:
            lo = rng.uniform(-3.0, 3.0, n)
            B = box(lo, lo + rng.uniform(0.5, 2.0, n))
            cuts = rng.normal(size=(6, n))
            P = Polyhedron(np.vstack([B.F, cuts]), np.concatenate(
                [B.g, cuts @ (lo + 0.25) + rng.uniform(0.0, 2.0, 6)]))
            w0, _ = chebyshev_centre(P)
        vertices = [lp_max(c, P).argmax - w0 for c in rng.normal(size=(4, n))]
        D = np.vstack([rng.normal(size=(8, n)), P.F, vertices])
        R = remove_redundant(P, directions=D)
        plain, ref = remove_redundant(P), sequential_remove_redundant(P)
        for other in (plain, ref):
            assert np.array_equal(R.F, other.F) and np.array_equal(R.g, other.g)

    @pytest.mark.parametrize("which", ["shipped", "perturbed", "log-uniform"])
    def test_construction_sets_match_the_sequential_rule(self, patient, v_box, monkeypatch,
                                                         which):
        # X_a's rows before reduction, on the shipped patient, the five
        # perturbed patients of the integration tests and 12 pinned PK
        # patients scaled log-uniformly in [0.6, 1.4]
        if which == "shipped":
            patients = [patient]
        elif which == "perturbed":
            patients = [perturbed(patient, np.random.default_rng(s)) for s in range(1, 6)]
        else:
            rng = np.random.default_rng(53)
            patients = [log_uniform_patient(patient, rng) for _ in range(12)]
        inputs = []
        real = terminal.remove_redundant

        def spy(poly, **kwargs):
            inputs.append(poly)
            return real(poly, **kwargs)

        monkeypatch.setattr(terminal, "remove_redundant", spy)
        for pat in patients:
            cont = pkpd.build_continuous(pat.pk_propofol, pat.pk_remifentanil)
            disc = pkpd.discretize_euler(cont, 5.0)
            ing = terminal.compute_terminal_ingredients(disc, v_box, Q_DIAG, R_EYE, lam=0.99)
            ref = sequential_remove_redundant(inputs[-1])
            assert np.array_equal(ing.X_a.F, ref.F)
            assert np.array_equal(ing.X_a.g, ref.g)
        assert len(inputs) == len(patients)

    def test_thousands_of_rows_hold_one_dictionary(self, monkeypatch):
        # a 2000-row polyhedron's row tests run as one family of 2000 LPs,
        # which holds one dictionary at a time: above what it returns, its
        # peak memory is the family's dictionary, the LP's copy and their
        # scratch twin (2n + 1 columns each), plus a few vectors as long as
        # a column (16 measured, numpy's buffer for the pivot's outer
        # product among them). A stack of 64 dictionaries took 64 times one
        import tracemalloc

        families = []
        real = geometry.lp_max_stack

        def spy(C, poly, skip=None):
            tracemalloc.reset_peak()
            results = real(C, poly, skip=skip)
            held, peak = tracemalloc.get_traced_memory()
            families.append((len(results), poly.nrows, peak - held))
            return results

        monkeypatch.setattr(geometry, "lp_max_stack", spy)
        P = box_with_cuts(2000, seed=31)
        tracemalloc.start()
        try:
            R = remove_redundant(P)
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        ref = sequential_remove_redundant(P)
        assert np.array_equal(R.F, ref.F) and np.array_equal(R.g, ref.g)
        assert 6 < R.nrows < 200
        (lps, rows, working), = [f for f in families if f[0] > 1]
        assert lps == rows == P.nrows
        column_bytes = (P.nrows + 1) * 8
        assert working < 3 * (2 * P.dim + 1) * column_bytes + 20 * column_bytes


class TestCentreOfSymmetry:
    """geometry.centre: a set's centre of symmetry, or its Chebyshev centre
    where the rows do not pair about one point."""

    def test_mirror_rows(self):
        F = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, -0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(mirror_rows(F), [2, 3, 0, 1])
        assert mirror_rows(F[:3]) is None  # a row without its mirror
        assert mirror_rows(np.vstack([F, F[:1]])) is None  # a repeated row
        assert mirror_rows(np.vstack([F, [[0.0, 0.0]]])) is None  # a zero row
        inexact = np.array([[1.0, 0.1], [-1.0, -0.1 * (1 + 2**-52)]])
        assert mirror_rows(inexact) is None
        assert mirror_rows(np.empty((0, 2))) is None

    def test_box_far_from_the_origin(self, monkeypatch):
        lps = []
        monkeypatch.setattr(geometry, "lp_max", lambda *a, **k: lps.append(a))
        w0, h, mirror = centre(box([100.0, -300.0], [101.0, -297.0]))
        np.testing.assert_allclose(w0, [100.5, -298.5], atol=1e-12)
        np.testing.assert_array_equal(h, [0.5, 1.5, 0.5, 1.5])
        np.testing.assert_array_equal(mirror, [2, 3, 0, 1])
        assert lps == []

    def test_flat_segment(self):
        # x1 = 5, 2 <= x2 <= 3: the pair on x1 has rhs 0 about the centre
        P = Polyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       [5.0, -5.0, 3.0, -2.0])
        w0, h, _ = centre(P)
        np.testing.assert_allclose(w0, [5.0, 2.5], atol=1e-12)
        np.testing.assert_array_equal(h, [0.0, 0.0, 0.5, 0.5])

    def test_pairs_without_a_common_centre(self, centre_lps):
        # the unit square and 0 <= x + y <= 1.5: midpoints (0.5, 0.5) and
        # x + y = 0.75 disagree, so the centre is the Chebyshev centre, by
        # one LP, and every row is its own twin
        P = Polyhedron(np.vstack([box([0.0, 0.0], [1.0, 1.0]).F, [[1.0, 1.0], [-1.0, -1.0]]]),
                       [1.0, 1.0, 0.0, 0.0, 1.5, 0.0])
        assert mirror_rows(P.F) is not None
        w0, h, twin = centre(P)
        assert centre_lps == [6]
        assert np.array_equal(w0, chebyshev_centre(P)[0])
        assert np.array_equal(h, np.maximum(P.g - P.F @ w0, 0.0))
        np.testing.assert_array_equal(twin, np.arange(6))
        R, ref = remove_redundant(P), sequential_remove_redundant(P)
        assert np.array_equal(R.F, ref.F) and np.array_equal(R.g, ref.g)
        assert R.nrows == 5

    def test_unpaired_rows(self, centre_lps):
        # the triangle x, y >= 1, x + y <= 4 off the origin
        P = Polyhedron([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [-1.0, -1.0, 4.0])
        w0, h, twin = centre(P)
        assert centre_lps == [3]
        assert np.array_equal(w0, chebyshev_centre(P)[0])
        assert contains(P, w0) and np.all(h >= 0.0)
        assert np.array_equal(h, np.maximum(P.g - P.F @ w0, 0.0))
        np.testing.assert_array_equal(twin, np.arange(3))

    def test_centre_within_a_basis(self, centre_lps):
        # [1, 3]^2 is symmetric about (2, 2), on the diagonal, off the x
        # axis, which it misses; [1, 3] x [-1, 3] meets the x axis in
        # [1, 3] x {0}, whose Chebyshev centre is (2, 0)
        P = box([1.0, 1.0], [3.0, 3.0])
        assert centre(P, basis=np.array([[1.0], [0.0]])) is None
        w0, _, twin = centre(P, basis=np.array([[1.0], [1.0]]) / np.sqrt(2.0))
        np.testing.assert_allclose(w0, [2.0, 2.0], atol=1e-12)
        np.testing.assert_array_equal(twin, [2, 3, 0, 1])
        assert centre_lps == [4]  # the x axis only
        w0, h, twin = centre(box([1.0, -1.0], [3.0, 3.0]), basis=np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(w0, [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(h, [1.0, 3.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_array_equal(twin, np.arange(4))

    def test_empty(self, centre_lps):
        # mirrored rows with a negative rhs about their centre need no LP
        assert centre(Polyhedron([[1.0], [-1.0]], [-1.0, -1.0])) is None
        assert centre_lps == []
        assert centre(Polyhedron([[1.0], [-2.0]], [-1.0, -1.0])) is None
        assert centre_lps == [2]


class TestChebyshevCentre:
    def test_box(self):
        w0, r = chebyshev_centre(box([1.0, 2.0], [1.6, 3.0]))
        assert r == pytest.approx(0.3, abs=1e-12)
        assert w0[0] == pytest.approx(1.3, abs=1e-12)
        assert 2.3 - 1e-12 <= w0[1] <= 2.7 + 1e-12

    def test_radius_capped_at_one(self):
        w0, r = chebyshev_centre(box([-5.0, -5.0], [5.0, 5.0]))
        assert r == 1.0
        assert np.all(np.abs(w0) <= 4.0 + 1e-12)

    def test_empty_raises(self):
        with pytest.raises(GeometryError, match="empty"):
            chebyshev_centre(Polyhedron([[1.0], [-1.0]], [0.0, -1.0]))

    def test_box_far_from_the_origin(self):
        # every lower bound is a row with a negative rhs
        P = box([100.0, -300.0], [101.0, -297.0])
        w0, r = chebyshev_centre(P)
        assert r == pytest.approx(0.5, abs=1e-9)
        assert w0[0] == pytest.approx(100.5, abs=1e-9)
        assert contains(P, w0)
        res = lp_max([1.0, -1.0], P)
        assert res.status == "optimal"
        assert res.value == pytest.approx(401.0, abs=1e-9)
        np.testing.assert_allclose(res.argmax, [101.0, -300.0], atol=1e-9)

    def test_flat_segment_off_the_origin(self):
        # x1 = 5, 2 <= x2 <= 3
        P = Polyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       [5.0, -5.0, 3.0, -2.0])
        w0, r = chebyshev_centre(P)
        assert 0.0 <= r <= 1e-12
        assert contains(P, w0)
        res = lp_max([0.0, 1.0], P)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.argmax, [5.0, 3.0], atol=1e-9)

    @pytest.mark.parametrize("F, g", [
        ([[1.0], [-1.0]], [0.0, -1e-6]),  # w <= 0 and w >= 1e-6
        ([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [10.0, -5.0, -5.0 - 1e-6]),
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]], [1.0, 1.0, -1.0]),  # 0 w <= -1
    ], ids=["empty-by-1e-6", "empty-by-1e-6-off-origin", "zero-row"])
    def test_empty_sets(self, F, g):
        P = Polyhedron(F, g)
        with pytest.raises(GeometryError, match="empty"):
            chebyshev_centre(P)
        assert lp_max(np.ones(P.dim), P).status == "infeasible"
        assert lp_max(np.zeros(P.dim), P).status == "infeasible"

    def test_nonempty_by_1e_6(self):
        P = Polyhedron([[1.0], [-1.0]], [1e-6, 0.0])  # 0 <= w <= 1e-6
        _, r = chebyshev_centre(P)
        assert r == pytest.approx(5e-7, abs=1e-12)
        res = lp_max([-1.0], P)
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-12)


class TestSlackBasisOnly:
    """Every tableau the simplex receives starts from the slack basis: its
    rhs is nonnegative, in the construction chain and on random LPs."""

    @pytest.fixture
    def rhs_minima(self, monkeypatch):
        """Smallest rhs entry of each dictionary handed to the simplex,
        after checking that its basis is the slack variables (the last
        ones) and its columns the 2n split variables in order."""
        seen = []
        real = geometry._run_simplex

        def recording(D, basis, nonbasic, *args):
            assert basis == list(range(len(nonbasic), len(nonbasic) + len(basis)))
            assert nonbasic == list(range(D.shape[0] - 1))
            seen.append(float(np.min(D[-1, :-1], initial=np.inf)))
            return real(D, basis, nonbasic, *args)

        monkeypatch.setattr(geometry, "_run_simplex", recording)
        return seen

    @pytest.fixture
    def pivots(self, monkeypatch):
        """Pivots made by each LP, in the order the LPs run."""
        made = []
        real_run, real = geometry._run_simplex, geometry._pivot

        def running(*args):
            made.append(0)
            return real_run(*args)

        def counting(*args):
            made[-1] += 1
            return real(*args)

        monkeypatch.setattr(geometry, "_run_simplex", running)
        monkeypatch.setattr(geometry, "_pivot", counting)
        return made

    def test_terminal_ingredients(self, disc, v_box, rhs_minima, pivots):
        ing = terminal.compute_terminal_ingredients(disc, v_box, Q_DIAG, R_EYE, lam=0.99)
        assert ing.X_a.nrows == 44
        # the 5 propagation LPs run alone, then the reduction's 13 row tests
        # (one per mirror pair not shown irredundant by a direction) as one
        # family. No centre LP runs: both centres are centres of symmetry.
        # An LP that escaped the pivot loop would lower these exact counts
        assert len(rhs_minima) == len(pivots) == 18
        assert (sum(pivots[:5]), sum(pivots[5:])) == (43, 93)
        assert min(rhs_minima) >= 0.0

    def test_invariance_excess(self, ingredients, rhs_minima):
        assert terminal.invariance_excess(ingredients.A_w, ingredients.X_a) <= 1e-9
        # one LP of the family per mirror pair, from the centre of symmetry
        assert len(rhs_minima) == ingredients.X_a.nrows // 2 == 22
        assert min(rhs_minima) >= 0.0

    def test_random_battery(self, rhs_minima):
        negative = 0
        for c, F, g in random_lps():
            negative += bool(np.any(g < 0))
            lp_max(c, Polyhedron(F, g))
        assert negative > 0
        assert min(rhs_minima) >= 0.0


class TestContains:
    def test_examples(self):
        B = box(np.zeros(3) - 1, np.ones(3))
        assert contains(B, np.zeros(3))
        assert not contains(B, [2.0, 0.0, 0.0])
        assert contains(B, [1.0 + 1e-10, 0.0, 0.0], tol=1e-9)

    def test_agrees_with_row_arithmetic(self):
        rng = np.random.default_rng(2)
        F = rng.normal(size=(6, 3))
        g = rng.normal(size=6)
        P = Polyhedron(F, g)
        for _ in range(50):
            w = rng.normal(size=3)
            assert contains(P, w, tol=0.0) == bool(np.all(F @ w <= g))


class TestSerialization:
    def test_polyhedron_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        P = Polyhedron(rng.normal(size=(7, 4)) * 1e3, rng.normal(size=7) / 1e5)
        path = tmp_path / "set.poly"
        save_polyhedron(path, P)
        Q = load_polyhedron(path)
        assert np.array_equal(P.F, Q.F)
        assert np.array_equal(P.g, Q.g)

    def test_matrix_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        M = rng.normal(size=(3, 5)) * np.pi
        path = tmp_path / "mat.txt"
        save_matrix(path, M)
        assert np.array_equal(M, load_matrix(path))

    def test_nan_rejected(self):
        with pytest.raises(GeometryError):
            Polyhedron([[np.nan]], [1.0])
