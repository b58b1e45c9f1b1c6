import copy
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anesmpc import mpc, pipeline, qp, sim
from anesmpc.qp import QpFactor, QpProblem, enumerate_active_sets, qp_solve

from conftest import (U_BOUNDS, bench_module, controller_path, count_linalg, path_digest,
                      patient_path)
from oracles import hot_start, kkt_residuals, working_set


def random_qp(rng, n, q):
    M = rng.normal(size=(n, n))
    H = M @ M.T + (0.5 + rng.uniform()) * np.eye(n)
    f = rng.normal(size=n)
    A_in = rng.normal(size=(q, n)) if q else None
    # keep the feasible set nonempty: make a random point feasible
    z0 = rng.normal(size=n)
    b_in = A_in @ z0 + rng.uniform(0.1, 1.0, size=q) if q else None
    return QpProblem(H, f, A_in, b_in)


def bad_hot_starts(seed=31, trials=10):
    """Yield (cold solution, {name: (problem, warm start)}) for random
    MPC-sized QPs and warm starts whose tight rows make a bad working set:
    loose rows forced tight (negative multipliers) and duplicates and
    pairwise sums of the active rows (dependent rows)."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        p = random_qp(rng, n=30, q=60)
        cold = qp_solve(p)
        assert cold.status == "optimal"
        active = list(cold.active_set)
        slack = p.b_in - p.A_in @ cold.z
        loose = [i for i in range(60) if slack[i] > 1e-6][:12]
        assert len(loose) == 12
        # forcing the loose rows to equality gives a negative multiplier
        C = p.A_in[loose]
        KKT = np.block([[p.H, C.T], [C, np.zeros((12, 12))]])
        lam = np.linalg.solve(KKT, np.concatenate([-p.f, p.b_in[loose]]))[30:]
        assert np.min(lam) < 0.0
        # a point where the loose rows are tight
        dz = np.linalg.lstsq(p.A_in[loose], slack[loose], rcond=None)[0]
        # duplicates and pairwise sums of the active rows, tight at the
        # optimum and dependent on the rows they repeat
        pairs = np.array(active[:-1]), np.array(active[1:])
        A_dep = np.vstack([p.A_in, p.A_in[active], p.A_in[pairs[0]] + p.A_in[pairs[1]]])
        b_dep = np.concatenate([p.b_in, p.b_in[active], p.b_in[pairs[0]] + p.b_in[pairs[1]]])
        p_dep = QpProblem(p.H, p.f, A_dep, b_dep)
        yield cold, {
            "loose rows tight": (p, cold.z + dz),
            "dependent rows": (p_dep, cold.z),
            "dependent and loose rows": (p_dep, cold.z + dz),
        }


class TestBasics:
    def test_scalar_bound(self):
        # min z^2 s.t. z >= 1
        p = QpProblem([[2.0]], [0.0], A_in=[[-1.0]], b_in=[-1.0])
        sol = qp_solve(p)
        assert sol.status == "optimal"
        assert sol.z[0] == pytest.approx(1.0, abs=1e-9)

    def test_projection_onto_line(self):
        # min ||z - (1,1)||^2 s.t. z1 + z2 = 1, as the opposed rows
        # z1 + z2 <= 1 and -z1 - z2 <= -1; a hot start from a point on the
        # line finds both tight, admits one and skips the other as dependent
        p = QpProblem(2 * np.eye(2), [-2.0, -2.0], A_in=[[1.0, 1.0], [-1.0, -1.0]],
                      b_in=[1.0, -1.0])
        for ws in (None, hot_start(p, [1.0, 0.0])):
            sol = qp_solve(p, ws)
            assert sol.status == "optimal"
            assert len(sol.active_set) == 1
            np.testing.assert_allclose(sol.z, [0.5, 0.5], atol=1e-9)

    def test_unconstrained(self):
        H = np.diag([2.0, 4.0])
        f = np.array([-2.0, -8.0])
        sol = qp_solve(QpProblem(H, f))
        np.testing.assert_allclose(sol.z, [1.0, 2.0], atol=1e-10)

    def test_infeasible_reported(self):
        p = QpProblem(np.eye(1), [0.0], A_in=[[1.0], [-1.0]], b_in=[0.0, -1.0])
        sol = qp_solve(p)
        assert sol.status == "infeasible"
        assert sol.z is None
        assert sol.infeasibility_report

    def test_infeasibility_names_violated_and_blocking_rows(self):
        # z <= 0 and z >= 1: once row 1 is met, row 0 stays violated by 1
        # and depends on row 1 alone
        p = QpProblem(np.eye(1), [0.0], A_in=[[1.0], [-1.0]], b_in=[0.0, -1.0])
        report = qp_solve(p).infeasibility_report
        assert report[0][0] == "A_in[0]"
        assert report[0][1] == pytest.approx(1.0)
        assert [row for row, _ in report[1:]] == ["A_in[1]"]

    def test_iteration_limit_is_not_infeasible(self):
        # MPC-sized: the cold solve needs many working-set changes
        p = random_qp(np.random.default_rng(3), n=30, q=60)
        sol = qp_solve(p, max_iter=1)
        assert sol.status == "max_iter"
        assert sol.iterations == 1
        assert sol.z is not None and sol.kkt_residuals is not None
        assert sol.kkt_residuals.residuals.primal_in > 1e-8
        assert qp_solve(p).status == "optimal"

    def test_plain_family_solves_any_f_and_b_on_one_factor(self):
        # a QpProblem is the plain family's QP at theta = (f, b): one factor
        # serves every f and b for its H and A_in
        rng = np.random.default_rng(4)
        p = random_qp(rng, n=5, q=4)
        factor = QpFactor(p.H, p.A_in)
        for shift in (0.0, 1.0):
            shifted = QpProblem(p.H, p.f + shift, p.A_in, p.b_in + 0.2 * shift)
            theta = np.concatenate([shifted.f, shifted.b_in])
            assert isinstance(shifted, qp.ParametricQp) and shifted.nvars == 5
            assert np.array_equal(shifted.theta, theta) and shifted.factor.source[0] is shifted.H
            family = qp.ParametricQp(factor, theta, factor.theta_map @ theta)
            assert np.array_equal(family.f, shifted.f)
            assert np.array_equal(family.b_in, shifted.b_in)
            assert qp.objective(family, qp_solve(family).z) == pytest.approx(
                qp.objective(shifted, qp_solve(shifted).z), abs=1e-12)

    @pytest.mark.parametrize("name", ["H", "f", "A_in", "b_in"])
    def test_non_finite_entry_is_named(self, name):
        # a NaN crashed the solve, and an infinite f or b_in came back
        # "optimal" at a non-finite z; now each is named before any factor
        for bad in (np.nan, np.inf, -np.inf):
            data = {"H": 2 * np.eye(2), "f": np.zeros(2), "A_in": np.eye(2), "b_in": np.ones(2)}
            data[name] = data[name].copy()
            data[name].flat[-1] = bad
            with pytest.raises(ValueError, match=f"^{name} contains NaN or Inf$"):
                QpProblem(**data)

    def test_reported_violation_is_positive(self):
        # a_k z >= b_k + delta against a row a_k z <= b_k active at the
        # optimum: hot-started there, the solver picks the opposed row,
        # finds it dependent on the working set and takes partial steps
        # along it before it stops
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = random_qp(rng, n=30, q=60)
            opt = qp_solve(p)
            k = opt.active_set[0]
            opposed = QpProblem(p.H, p.f, np.vstack([p.A_in, -p.A_in[k]]),
                                np.append(p.b_in, -p.b_in[k] - rng.uniform(0.1, 1.0)))
            sol = qp_solve(opposed, hot_start(opposed, opt.z))
            assert sol.status == "infeasible"
            row, amount = sol.infeasibility_report[0]
            assert amount > 0.0, row


class TestOracle:
    def test_100_random_qps_match_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(2, 7))
            q = int(rng.integers(0, 4))
            p = random_qp(rng, n, q)
            sol = qp_solve(p)
            assert sol.status == "optimal", f"trial {trial}"
            ref_obj, ref_z = enumerate_active_sets(p)
            assert qp.objective(p, sol.z) == pytest.approx(ref_obj, abs=1e-6)
            np.testing.assert_allclose(sol.z, ref_z, atol=1e-6)
            assert sol.kkt_residuals.max() <= 1e-8


class TestProperties:
    def test_warm_start_same_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_qp(rng, n=5, q=3)
            cold = qp_solve(p)
            warm = qp_solve(p, hot_start(p, cold.z + rng.normal(scale=0.1, size=5)))
            assert warm.status == "optimal"
            assert qp.objective(p, warm.z) == pytest.approx(qp.objective(p, cold.z), abs=1e-8)

    def test_scaling_invariance_of_argmin(self):
        rng = np.random.default_rng(8)
        for alpha in (0.01, 1.0, 250.0):
            p = random_qp(rng, n=4, q=2)
            ps = QpProblem(alpha * p.H, alpha * p.f, p.A_in, p.b_in)
            z1 = qp_solve(p).z
            z2 = qp_solve(ps).z
            np.testing.assert_allclose(z1, z2, atol=1e-8)

    def test_psd_hessian_regularized(self):
        # H singular along one direction; minimizer still well defined on
        # the feasible segment
        H = np.array([[2.0, 0.0], [0.0, 0.0]])
        f = np.array([0.0, 1.0])
        p = QpProblem(H, f, A_in=np.vstack([np.eye(2), -np.eye(2)]),
                      b_in=[1.0, 1.0, 1.0, 1.0])
        sol = qp_solve(p)
        assert sol.status == "optimal"
        assert sol.z[1] == pytest.approx(-1.0, abs=1e-6)

    def test_kkt_residual_fields(self):
        rng = np.random.default_rng(23)
        p = random_qp(rng, n=3, q=2)
        sol = qp_solve(p)
        r = sol.kkt_residuals
        assert type(r) is qp.KktRecord
        assert type(r.residuals) is qp.KktResiduals
        assert r.residuals._fields == ("stationarity", "primal_in", "complementarity")
        assert r.max() == max(r.residuals) <= 1e-8
        # the record is read through residuals and max() alone
        for name in ("stationarity", "primal_in", "complementarity"):
            assert not hasattr(r, name)
        assert r.residuals is r.residuals and r != r.residuals
        for record, name in ((r, "residuals"), (r, "extra"), (r.residuals, "stationarity")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)

    def test_midsize_warm_start_consistency(self):
        # MPC-sized problems: any warm start, however bad, must land on
        # the same optimum (KKT certifies global optimality for convex QP)
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_qp(rng, n=30, q=60)
            cold = qp_solve(p)
            assert cold.status == "optimal"
            assert cold.kkt_residuals.max() <= 1e-8
            for scale in (1.0, 100.0):
                warm = qp_solve(p, hot_start(p, rng.normal(scale=scale, size=30)))
                assert warm.status == "optimal"
                assert qp.objective(p, warm.z) == pytest.approx(qp.objective(p, cold.z),
                                                                abs=1e-7)

    def test_hot_start_from_bad_working_sets(self):
        # warm starts whose tight rows make a bad working set: dependent
        # rows, rows not tight at the optimum, rows whose multipliers come
        # out negative; the hot start must repair it and land on the cold
        # optimum
        for cold, starts in bad_hot_starts():
            for name, (prob, z0) in starts.items():
                hot = qp_solve(prob, hot_start(prob, z0))
                assert hot.status == "optimal", name
                assert hot.kkt_residuals.max() <= 1e-8, name
                np.testing.assert_allclose(hot.z, cold.z, atol=1e-7, err_msg=name)
                assert qp.objective(prob, hot.z) == pytest.approx(
                    qp.objective(prob, cold.z), abs=1e-7)


class TestStartRule:
    def test_feasible_z_u_ignores_rows_tight_at_the_warm_start(self):
        # z_u meets every row and the warm start has ten rows tight at it:
        # the solve returns what the cold solve does, z_u, to the bit, with
        # no iteration and no working row
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_qp(rng, n=30, q=60)
            z_u = np.linalg.solve(p.H, -p.f)
            w = z_u + rng.normal(size=30)
            A = p.A_in * np.sign(p.A_in @ (w - z_u))[:, None]  # A w > A z_u
            b = A @ w + np.where(np.arange(60) < 10, 0.0, rng.uniform(0.1, 1.0, 60))
            p = QpProblem(p.H, p.f, A, b)
            ws = hot_start(p, w)
            cold, warm = qp_solve(p), qp_solve(p, ws)
            assert (A @ w - b >= -1e-9).sum() == 10
            assert ws.k == 0  # the carried rows are dropped with z_u
            assert np.array_equal(warm.z, cold.z)
            assert np.abs(warm.z - z_u).max() <= 1e-10 * np.abs(z_u).max()
            assert warm.iterations == cold.iterations == 0
            assert warm.active_set == cold.active_set == ()
            assert qp.objective(p, warm.z) == qp.objective(p, cold.z)
            assert warm.kkt_residuals.residuals == cold.kkt_residuals.residuals

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), q=st.integers(0, 60),
           scale=st.sampled_from([0.0, 0.01, 1.0, 100.0]))
    def test_warm_and_cold_solves_agree(self, seed, n, q, scale):
        # random strictly convex QPs, warm-started at, near and far from
        # the cold optimum: the same status and objective, KKT met by both
        rng = np.random.default_rng(seed)
        p = random_qp(rng, n, q)
        cold = qp_solve(p)
        warm = qp_solve(p, hot_start(p, cold.z + scale * rng.normal(size=n)))
        assert warm.status == cold.status == "optimal"
        assert qp.objective(p, warm.z) == pytest.approx(qp.objective(p, cold.z),
                                                        rel=1e-9, abs=0.0)
        assert max(cold.kkt_residuals.max(), warm.kkt_residuals.max()) <= 1e-8


def random_family(rng, n=30, q=60, nx=5):
    """A random parametric family in theta = (x, 1, w): the point
    z0 = P x + zbar meets every row with slack s0 > 0 (b = A z0 + s0), and
    f = -H z0 + w g, so z_u = z0 - w H^-1 g meets every row at w = 0 and
    violates more rows as |w| grows."""
    M = rng.normal(size=(n, n))
    H = M @ M.T + (0.5 + rng.uniform()) * np.eye(n)
    A = rng.normal(size=(q, n))
    P, zbar, g = rng.normal(size=(n, nx)), rng.normal(size=n), rng.normal(size=n)
    s0 = rng.uniform(0.5, 1.5, q)
    F = np.column_stack([-H @ P, -H @ zbar, g])
    B = np.column_stack([A @ P, A @ zbar + s0, np.zeros(q)])
    return QpFactor(H, A, F=F, B=B)


def family_qp(factor, theta):
    return qp.ParametricQp(factor, theta, factor.theta_map @ theta)


class TestCarriedSets:
    """A sequence of one family's QPs solved with one carried working set
    against fresh solves of each QP."""

    def test_sequences_match_fresh_solves(self):
        rng = np.random.default_rng(41)
        seen = {"emptied": 0, "max_iter": 0, "carried": 0}
        for _ in range(6):
            factor = random_family(rng)
            ws = qp.WorkingSet(factor)
            x, w, before, jumps = rng.normal(size=5), 3.0, (), {10, 25}
            for step in range(40):
                if step in (10, 25):
                    x, w = x + rng.normal(scale=2.0, size=5), -w  # a jump
                elif step == 18:
                    w = 0.0  # z_u is the optimum: the set empties
                else:
                    x, w = x + rng.normal(scale=0.05, size=5), (w or 3.0) * rng.uniform(0.95, 1.05)
                p = family_qp(factor, np.concatenate([x, [1.0, w]]))
                fresh = qp_solve(p)
                assert fresh.status == "optimal"
                if step == 25:
                    # a solve stopped mid-chain leaves a valid start behind
                    assert qp_solve(p, ws, max_iter=1).status == "max_iter"
                    seen["max_iter"] += 1
                seen["carried"] += ws.k > 0
                sol = qp_solve(p, ws)
                assert sol.status == "optimal", step
                assert qp.objective(p, sol.z) == pytest.approx(qp.objective(p, fresh.z),
                                                               rel=1e-9, abs=1e-9), step
                assert sol.kkt_residuals.max() <= 1e-8, step
                assert ws.k == len(sol.active_set) and sorted(ws.rows) == list(sol.active_set)
                if w == 0.0:
                    assert sol.z is p.z_u and ws.k == 0
                    seen["emptied"] += 1
                if set(before) - set(sol.active_set) and set(sol.active_set) - set(before):
                    jumps.discard(step)
                before = sol.active_set
            assert not jumps  # each jump dropped rows and added others
        assert seen["emptied"] == seen["max_iter"] == 6 and seen["carried"] >= 150, seen

    def test_carried_start_makes_no_factorisation(self, monkeypatch):
        # a fresh start makes one QR factor and one inverse; a start from
        # carried rows calls no numpy.linalg routine
        factor = random_family(np.random.default_rng(43))
        ws = qp.WorkingSet(factor)
        theta = np.concatenate([np.zeros(5), [1.0, 3.0]])
        calls = count_linalg(monkeypatch)
        qp_solve(family_qp(factor, theta), ws)
        assert calls == {"qr": 1, "inv": 1} and ws.k
        calls.clear()
        theta[-1] = 3.1
        sol = qp_solve(family_qp(factor, theta), ws)
        assert calls == {} and sol.status == "optimal" and ws.k

    def test_working_set_of_another_family_is_refused(self):
        rng = np.random.default_rng(47)
        factor, other = random_family(rng), random_family(rng)
        theta = np.concatenate([np.zeros(5), [1.0, 3.0]])
        ws = qp.WorkingSet(other)
        with pytest.raises(ValueError, match="another QP family"):
            qp_solve(family_qp(factor, theta), ws)
        # a same-sized plain QP has a family of its own
        p = random_qp(rng, n=30, q=60)
        with pytest.raises(ValueError, match="another QP family"):
            qp_solve(p, qp.WorkingSet(QpFactor(p.H, p.A_in)))

    def test_nan_row_residuals_are_named(self):
        # a theta that holds NaN gives NaN row residuals, which neither meet
        # nor violate a row: the solve names them, from a fresh start or
        # from carried rows
        factor = random_family(np.random.default_rng(53))
        ws = qp.WorkingSet(factor)
        assert qp_solve(family_qp(factor, np.concatenate([np.zeros(5), [1.0, 3.0]])), ws).status \
            == "optimal" and ws.k
        theta = np.concatenate([np.zeros(5), [1.0, np.nan]])
        for start in (None, ws):
            with pytest.raises(ValueError, match="row residuals A_in z_u - b hold NaN"):
                qp_solve(family_qp(factor, theta), start)


def test_drop_test_matches_the_min_max_rule():
    # the start's drop test, from one argmin, against the rule as written
    # with min and max: the first most negative multiplier goes while it
    # lies below -_LAM_TOL max(1, -min, max), and a NaN drops nothing
    rng = np.random.default_rng(7)
    cases = [np.zeros(0), np.array([np.nan, -1.0]), np.array([-1.0, np.nan]),
             np.array([-1e-12, 0.5]), np.array([-2e-12, 1e3]), np.array([-3.0, -3.0, 1.0])]
    for _ in range(500):
        lam = rng.normal(size=int(rng.integers(1, 30))) * 10.0 ** rng.uniform(-14, 4)
        cases.append(lam + rng.uniform(0.0, 2.0) * np.abs(lam).max())
    for lam in cases:
        low = lam.min(initial=np.inf)
        want = int(lam.argmin()) if low < -qp._LAM_TOL * max(1.0, -low, lam.max(initial=0.0)) else -1
        assert qp._most_negative(lam) == want, lam
    assert sum(qp._most_negative(lam) >= 0 for lam in cases) > 50


class TestHotStart:
    @staticmethod
    def row_by_row(monkeypatch):
        """Make every hot start admit its rows one at a time."""
        monkeypatch.setattr(qp.WorkingSet, "admit_all",
                            lambda ws, rows: [ws.admit(j) for j in rows])

    @staticmethod
    def count_admits(monkeypatch):
        """Record each row admitted one at a time."""
        calls = []
        admit = qp.WorkingSet.admit

        def counting(ws, j):
            calls.append(j)
            admit(ws, j)

        monkeypatch.setattr(qp.WorkingSet, "admit", counting)
        return calls

    def test_independent_tight_rows_match_row_by_row_and_cold(self, monkeypatch):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_qp(rng, n=30, q=60)
            cold = qp_solve(p)
            assert cold.active_set
            # the cold optimum (tight rows = its active set) and a nearby point
            for z0 in (cold.z, cold.z + rng.normal(scale=0.05, size=30)):
                with monkeypatch.context() as mp:
                    admits = self.count_admits(mp)
                    hot = qp_solve(p, hot_start(p, z0))
                assert admits == []  # one Cholesky took every tight row
                with monkeypatch.context() as mp:
                    self.row_by_row(mp)
                    ref = qp_solve(p, hot_start(p, z0))
                assert hot.active_set == ref.active_set == cold.active_set
                assert hot.iterations == ref.iterations
                np.testing.assert_allclose(hot.z, ref.z, rtol=0, atol=1e-10)
                np.testing.assert_allclose(hot.z, cold.z, rtol=0, atol=1e-10)

    def test_dependent_tight_rows_fall_back_to_row_by_row(self, monkeypatch):
        # duplicated active rows make the block of G singular: the active
        # rows before them go in at once, only the duplicates one at a time
        rng = np.random.default_rng(31)
        p = random_qp(rng, n=30, q=60)
        cold = qp_solve(p)
        active = list(cold.active_set)
        p_dep = QpProblem(p.H, p.f, np.vstack([p.A_in, p.A_in[active]]),
                          np.concatenate([p.b_in, p.b_in[active]]))
        admits = self.count_admits(monkeypatch)
        hot = qp_solve(p_dep, hot_start(p_dep, cold.z))
        assert admits == list(range(60, 60 + len(active)))
        assert hot.active_set == cold.active_set
        assert hot.status == "optimal"
        np.testing.assert_allclose(hot.z, cold.z, atol=1e-8)

    def test_stacked_residuals_match_per_block_formula(self, monkeypatch):
        # every trial's reported residuals against a loop over the rows at
        # its solution and multipliers (zero when the working set ends
        # empty and the record holds max c, not lam); each record that
        # holds lam is also formed at a perturbed pair, where no residual
        # is zero
        rng = np.random.default_rng(0)
        stacked, solve = qp.KktRecord._form, qp.qp_solve
        calls, trials = [], []

        def per_row(p, z, lam):
            grad = p.H @ z + p.f
            primal, comp = 0.0, 0.0
            for a, b, l in zip(p.A_in, p.b_in, lam):
                grad = grad + l * a
                primal = max(primal, a @ z - b)
                comp = max(comp, abs(l * (a @ z - b)))
            return np.max(np.abs(grad), initial=0.0), primal, comp

        def checked(record):
            lam = record._lam
            if isinstance(lam, np.ndarray):
                z, dz, dlam = record._z, rng.normal(size=record._z.size), rng.uniform(size=lam.size)
                got = stacked(qp.KktRecord(record._factor, record._theta, z + dz, lam + dlam))
                calls.append((lam, got, z + dz, lam + dlam))
            return stacked(record)

        def recorded(p, *args, **kwargs):
            calls.clear()
            sol = solve(p, *args, **kwargs)
            sol.kkt_residuals.max()  # formed on first read
            trials.append((p, sol, list(calls)))
            return sol

        monkeypatch.setattr(qp.KktRecord, "_form", checked)
        monkeypatch.setattr(qp, "qp_solve", recorded)
        assert all(sol.status == "optimal" for _, sol, _ in qp.oracle_trials(seed=5))
        assert len(trials) == 100
        for p, sol, formed in trials:
            lam = formed[0][0] if formed else np.zeros(p.b_in.size)
            np.testing.assert_allclose(sol.kkt_residuals.residuals, per_row(p, sol.z, lam),
                                       rtol=0, atol=1e-13)
            for _, got, z, lam_perturbed in formed:
                np.testing.assert_allclose(got, per_row(p, z, lam_perturbed), rtol=0, atol=1e-13)
            assert len(formed) == (len(sol.active_set) > 0)
        # both kinds of solve are compared
        assert 0 < sum(len(formed) for *_, formed in trials) < 100

    def test_empty_working_set_reuses_its_residuals(self):
        # a solve that ends with an empty working set reports the
        # residuals the stacked formula gives at (z, 0), whether it started
        # cold or from a working set of rows tight at a point, which it
        # drops again
        rng = np.random.default_rng(3)
        empty = dropped = 0
        for _ in range(40):
            p = random_qp(rng, n=8, q=12)
            # most rows loose at the unconstrained minimiser, a few not
            z_u = -np.linalg.solve(p.H, p.f)
            p = QpProblem(p.H, p.f, p.A_in, p.A_in @ z_u + rng.uniform(-0.05, 1.0, 12))
            for warm in (None, z_u + rng.normal(scale=0.5, size=8), qp_solve(p).z):
                sol = qp_solve(p, None if warm is None else hot_start(p, warm))
                if sol.active_set:
                    continue
                empty += 1
                dropped += warm is not None and (p.A_in @ warm - p.b_in >= -1e-9).any()
                assert sol.kkt_residuals.residuals == kkt_residuals(p, sol.z, np.zeros(12))
        assert empty >= 40 and dropped >= 10


class _Counted(np.ndarray):
    """An array that counts the matrix products taken with it or its
    transpose."""

    products = 0

    def __matmul__(self, other):
        _Counted.products += 1
        return np.asarray(self) @ other


class TestKktRecord:
    """A solution's KKT residuals are formed on their first read, once, to
    the bit of the eager forms, from arrays that share no memory with the
    step map's values."""

    @pytest.fixture(scope="class")
    def thetas(self):
        """The shipped controller and theta = (x_f, c, 1) at steps 0 (a
        working-set solve from rest) and 100 (a steady one) of its 600 s
        reference run."""
        bundle = pipeline.build_bundle(patient_path(), controller_path())
        ctrl = bundle.controller
        log = pipeline.closed_loop(bundle, 600.0)
        return ctrl, {k: np.concatenate([log.x_f[k], [ctrl.zs.c, 1.0]]) for k in (0, 100)}

    @pytest.mark.parametrize("step", [0, 100])
    def test_formed_once_on_first_read(self, thetas, step):
        ctrl, theta = thetas[0], thetas[1][step]
        values = ctrl.step_map @ theta
        factor = copy.copy(ctrl.qp_factor)
        factor.source = tuple(a.view(_Counted) for a in factor.source)
        p = qp.ParametricQp(factor, theta, values)
        _Counted.products = 0
        sol = qp_solve(p)
        assert (len(sol.active_set) > 0) == (step == 0)
        kkt = sol.kkt_residuals
        assert _Counted.products == 0
        # the record holds the family, theta, z and lam or max c, and
        # shares no memory with the step map's values
        assert kkt._factor is factor and kkt._theta is theta and kkt._z is sol.z
        held = [a for a in gc.get_referents(kkt) if isinstance(a, np.ndarray)]
        assert not any(np.shares_memory(a, values) for a in held)
        lam = kkt._lam if step == 0 else np.zeros(p.b_in.size)

        got = kkt.residuals
        assert _Counted.products == (3 if step == 0 else 1)
        assert kkt._factor is kkt._theta is kkt._z is kkt._lam is None
        H = np.asarray(ctrl.H)
        if step == 0:
            want = kkt_residuals(p, sol.z, lam)
        else:
            want = qp.KktResiduals(float(np.abs(H @ sol.z + p.f).max()), float(p.c.max(initial=0.0)), 0.0)
        assert got == want and kkt.max() == max(want) <= 1e-8
        # a second read forms nothing
        products = _Counted.products
        assert kkt.residuals is got
        assert _Counted.products == products


def leading_run(G, rows):
    """The longest leading run of rows whose block of G factors with
    squared pivots that pass the dependence test, found by trying every
    length from the longest down, and its Cholesky factor."""
    for n in range(len(rows), 0, -1):
        S = rows[:n]
        try:
            L = np.linalg.cholesky(G[np.ix_(S, S)])
        except np.linalg.LinAlgError:
            continue
        if np.all(np.diag(L) ** 2 > qp._DEP_TOL * G[S, S]):
            return n, L
    return 0, None


class RefactorWorkingSet:
    """The working set before its buffers, as the reference for
    qp.WorkingSet: a start admits the longest leading run of rows that
    factors by trying every length, every add stacks a new Li, every drop
    factors the block of G over S from scratch, and the add loop copies
    G[:, S]."""

    def __init__(self, factor):
        self.factor, self.G, self.rows, self.Li = factor, factor.G, [], np.zeros((0, 0))

    def clear(self):
        self.rows, self.Li = [], np.zeros((0, 0))

    @property
    def k(self):
        return len(self.rows)

    @property
    def idx(self):
        return np.array(self.rows, dtype=np.intp)

    @property
    def cols(self):
        return self.G[:, self.rows]

    def solve(self, v):
        return self.Li.T @ (self.Li @ v)

    def pivot(self, j):
        g = self.G[self.rows, j]
        r = self.solve(g)
        d2 = float(self.G[j, j] - g @ r)
        return r, d2, d2 <= qp._DEP_TOL * self.G[j, j]

    def admit(self, j):
        r, d2, dependent = self.pivot(j)
        if not dependent:
            self.append(j, r, d2)

    def admit_all(self, rows):
        rows = [int(j) for j in rows]
        n, L = leading_run(self.G, rows)
        if n:
            self.rows, self.Li = rows[:n], np.linalg.solve(L, np.eye(n))
        for j in rows[n:]:
            self.admit(j)

    def append(self, j, r, d2):
        row = np.append(-r, 1.0) / np.sqrt(d2)
        self.Li = np.vstack([np.hstack([self.Li, np.zeros((len(r), 1))]), row])
        self.rows.append(j)

    def remove(self, pos):
        del self.rows[pos]
        L = np.linalg.cholesky(self.G[np.ix_(self.rows, self.rows)])
        self.Li = np.linalg.solve(L, np.eye(len(self.rows)))


class TestWorkingSetBuffers:
    @staticmethod
    def count_drops(monkeypatch):
        drops = []
        remove = qp.WorkingSet.remove

        def counting(ws, pos):
            drops.append(pos)
            remove(ws, pos)

        monkeypatch.setattr(qp.WorkingSet, "remove", counting)
        return drops

    @staticmethod
    def assert_same_as_reference(monkeypatch, p, rows=None, sol=None):
        """qp_solve with the buffered working set and with the reference,
        each started from rows (a fresh start when None), take the same
        path: iterations, active set and status, z to 1e-12."""
        if sol is None:
            sol = qp_solve(p, None if rows is None else working_set(p, rows))
        with monkeypatch.context() as mp:
            mp.setattr(qp, "WorkingSet", RefactorWorkingSet)
            ref = qp_solve(p, None if rows is None else working_set(p, rows))
        assert (sol.iterations, sol.active_set, sol.status) == (
            ref.iterations, ref.active_set, ref.status)
        if ref.z is None:
            assert sol.z is None
        else:
            np.testing.assert_allclose(sol.z, ref.z, rtol=0, atol=1e-12)

    def test_random_qps_cold_and_hot_match_reference(self, monkeypatch):
        rng = np.random.default_rng(61)
        with monkeypatch.context() as mp:
            drops = self.count_drops(mp)
            for _ in range(20):
                p = random_qp(rng, n=30, q=60)
                cold = qp_solve(p)
                self.assert_same_as_reference(mp, p, sol=cold)
                for scale in (0.05, 0.5):
                    z0 = cold.z + rng.normal(scale=scale, size=30)
                    self.assert_same_as_reference(
                        mp, p, rows=(p.A_in @ z0 - p.b_in >= -1e-9).nonzero()[0])
        assert len(drops) > 20

    def test_bad_hot_starts_match_reference(self, monkeypatch):
        with monkeypatch.context() as mp:
            drops = self.count_drops(mp)
            for _, starts in bad_hot_starts():
                for prob, z0 in starts.values():
                    self.assert_same_as_reference(
                        mp, prob, rows=(prob.A_in @ z0 - prob.b_in >= -1e-9).nonzero()[0])
        assert drops

    def test_reference_run_matches_reference(self, disc, patient, gain, v_box, ingredients,
                                             monkeypatch):
        solves = []
        solve = qp.qp_solve

        def capturing(p, ws=None, **kwargs):
            rows = ws.rows if ws is not None and ws.k else None  # carried, in order
            sol = solve(p, ws, **kwargs)
            solves.append((p, rows, sol))
            return sol

        monkeypatch.setattr(qp, "qp_solve", capturing)
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        sim.simulate_closed_loop(disc, patient.pd, ctrl, 600.0)
        monkeypatch.setattr(qp, "qp_solve", solve)
        assert len(solves) == 120
        assert solves[0][2].iterations == 8 and len(solves[0][2].active_set) == 25
        # steps 1-15 carry rows; step 15 returns z_u and drops them
        assert [k for k, (_, rows, _) in enumerate(solves) if rows is not None] == list(range(1, 16))
        for p, rows, sol in solves:
            self.assert_same_as_reference(monkeypatch, p, rows=rows, sol=sol)

    def test_factor_and_columns_after_every_change(self):
        # random admits, drops at the front, the end and in between, and
        # hot starts that fall back to row by row: after each change
        # Li G_SS Li' = I and the buffered columns are G[:, S] to the bit
        rng = np.random.default_rng(7)
        p = random_qp(rng, n=30, q=60)
        A = np.vstack([p.A_in, p.A_in[:10], p.A_in[:5] + p.A_in[5:10]])  # 20 dependent rows
        factor = QpFactor(p.H, A)
        G = factor.G
        q = A.shape[0]
        seen = {"front": 0, "end": 0, "middle": 0, "fallback": 0, "full": 0}

        def check(ws):
            S = ws.rows
            assert len(set(S)) == len(S) <= ws.cap
            np.testing.assert_allclose(ws.Li @ G[np.ix_(S, S)] @ ws.Li.T, np.eye(len(S)),
                                       rtol=0, atol=1e-10)
            assert np.array_equal(ws.cols, G[:, S])

        for trial in range(30):
            ws = qp.WorkingSet(factor)
            assert ws.cap == min(q, 30)
            start = list(rng.choice(q, size=int(rng.integers(1, 12)), replace=False))
            ws.admit_all(start)
            if len(ws.rows) < len(start):
                seen["fallback"] += 1
            check(ws)
            for _ in range(60):
                if ws.rows and rng.uniform() < 0.4:
                    pos = int(rng.choice([0, len(ws.rows) - 1, rng.integers(len(ws.rows))]))
                    kind = "front" if pos == 0 else "end" if pos == len(ws.rows) - 1 else "middle"
                    seen[kind] += 1
                    ws.remove(pos)
                else:
                    ws.admit(int(rng.choice([i for i in range(q) if i not in ws.rows])))
                check(ws)
        # a full working set (nvars independent rows) spans every row
        for j in rng.permutation(q).tolist():
            if j not in ws.rows:
                full, before = len(ws.rows) == ws.cap, list(ws.rows)
                ws.admit(j)
                if full:
                    seen["full"] += 1
                    assert ws.rows == before
                check(ws)
        assert all(seen.values()), seen

    def test_empty_working_set_allocates_nothing(self, monkeypatch):
        # a solve builds a working set, and with it its buffers, only when
        # z_u violates a row
        built = []
        init = qp.WorkingSet.__init__
        monkeypatch.setattr(qp.WorkingSet, "__init__",
                            lambda ws, factor: init(ws, factor) or built.append(ws.cap))
        p = random_qp(np.random.default_rng(3), n=30, q=60)
        loose = QpProblem(p.H, p.f, p.A_in, p.b_in + 1e6)
        sol = qp_solve(loose)
        assert sol.iterations == 0 and not sol.active_set
        assert built == []
        qp_solve(p)
        assert built == [30]


def violated_at_z_u(seed, trials=150):
    """Yield (problem, the same problem with duplicated rows) for small QPs
    whose feasible point lies away from z_u, so that z_u violates several
    rows; the duplicates (some scaled by 2) are shuffled in among them."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n, q = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        M = rng.normal(size=(n, n))
        H = M @ M.T + (0.5 + rng.uniform()) * np.eye(n)
        f = rng.normal(size=n)
        A = rng.normal(size=(q, n))
        z0 = -np.linalg.solve(H, f) + rng.normal(scale=3.0, size=n)
        b = A @ z0 + rng.uniform(0.1, 1.0, q)
        dup = rng.choice(q, size=int(rng.integers(1, 4)))
        scale = rng.choice([1.0, 2.0], size=dup.size)
        order = rng.permutation(q + dup.size)
        A_dup = np.vstack([A, scale[:, None] * A[dup]])[order]
        b_dup = np.concatenate([b, scale * b[dup]])[order]
        yield QpProblem(H, f, A, b), QpProblem(H, f, A_dup, b_dup)


class TestColdStart:
    def test_bulk_start_matches_empty_start_and_enumeration(self, monkeypatch):
        # the start's QR factor ends its run at a failing pivot or takes
        # every row; each gives the optimum of a solve from an empty
        # working set and of the enumeration of active sets
        firsts = []

        def first_factor(ws, rows, admit_all=qp.WorkingSet.admit_all):
            run = rows[:ws.cap]
            R = np.linalg.qr(ws.M[run].T, mode="r")
            passed = np.all(np.diag(R) ** 2 > qp._DEP_TOL * ws.G[run, run])
            firsts.append("every row" if passed else "failed pivot")
            admit_all(ws, rows)

        paths = {"failed pivot": 0, "every row": 0}
        for base, p in violated_at_z_u(seed=17):
            ref_obj = enumerate_active_sets(base)[0]
            with monkeypatch.context() as mp:
                mp.setattr(qp.WorkingSet, "admit_all", first_factor)
                firsts.clear()
                sol = qp_solve(p)
            with monkeypatch.context() as mp:
                mp.setattr(qp.WorkingSet, "admit_all", lambda ws, rows: None)
                empty = qp_solve(p)
            for s in (sol, empty):
                assert s.status == "optimal"
                assert s.kkt_residuals.max() <= 1e-8
                assert qp.objective(p, s.z) == pytest.approx(ref_obj, rel=1e-9, abs=1e-9)
            for kind in firsts:
                paths[kind] += 1
        assert min(paths.values()) >= 10, paths

    def test_infeasible_cold_qp_reports_its_blockers(self):
        # z <= 0 and z >= 1 are both violated at z_u = 0.5: the start
        # admits one and skips the other as dependent
        p = QpProblem(np.eye(1), [-0.5], A_in=[[1.0], [-1.0]], b_in=[0.0, -1.0])
        sol = qp_solve(p)
        assert sol.status == "infeasible"
        assert [row for row, _ in sol.infeasibility_report] == ["A_in[1]", "A_in[0]"]
        assert sol.infeasibility_report[0][1] == pytest.approx(1.0)
        # rows violated at z_u with an opposed row right after each
        rng = np.random.default_rng(19)
        for _ in range(10):
            p = random_qp(rng, n=30, q=60)
            c = p.A_in @ np.linalg.solve(p.H, -p.f) - p.b_in
            A, b = list(p.A_in), list(p.b_in)
            for k in sorted((c > 0).nonzero()[0][:3], reverse=True):
                A.insert(k + 1, -p.A_in[k])
                b.insert(k + 1, -p.b_in[k] - rng.uniform(0.1, 1.0))
            sol = qp_solve(QpProblem(p.H, p.f, np.array(A), np.array(b)))
            assert sol.status == "infeasible"
            assert sol.infeasibility_report[0][1] > 0.0
            assert len(sol.infeasibility_report) >= 2

    def test_forty_drops_keep_the_factor_and_columns(self):
        rng = np.random.default_rng(23)
        p = random_qp(rng, n=50, q=60)
        factor = QpFactor(p.H, p.A_in)
        G = factor.G
        ws = qp.WorkingSet(factor)
        ws.admit_all(rng.permutation(60)[:45].tolist())
        assert len(ws.rows) == 45
        for _ in range(40):
            ws.remove(int(rng.integers(len(ws.rows))))
            S = ws.rows
            np.testing.assert_allclose(ws.Li @ G[np.ix_(S, S)] @ ws.Li.T, np.eye(len(S)),
                                       rtol=0, atol=1e-10)
            assert np.array_equal(ws.cols, G[:, S])
        assert len(ws.rows) == 5

    def test_linalg_calls_and_the_leading_run(self, monkeypatch):
        # whether its run takes every row or ends at a failed pivot, a start
        # admits the longest leading run that factors at once and only the
        # rows after it one at a time, from one QR factorisation of its
        # rows and one inverse; drops call no numpy.linalg routine
        rng = np.random.default_rng(29)
        p = random_qp(rng, n=30, q=40)
        A = np.vstack([p.A_in, p.A_in[:10], 2.0 * p.A_in[10:20],
                       p.A_in[20:30] + p.A_in[30:40]])  # 30 dependent rows
        factor = QpFactor(p.H, A)
        G = factor.G
        admits = TestHotStart.count_admits(monkeypatch)
        calls = count_linalg(monkeypatch)
        seen = {"every row": 0, "failed pivot": 0}
        for _ in range(130):
            ws = qp.WorkingSet(factor)
            rows = rng.permutation(70)[:int(rng.integers(2, 40))].tolist()
            n, _ = leading_run(G, rows[:30])
            calls.clear()
            admits.clear()
            ws.admit_all(rows)
            assert ws.rows[:n] == rows[:n]
            assert admits == rows[n:]
            assert calls == ({"qr": 1, "inv": 1} if n else {"qr": 1})
            seen["every row" if n == min(len(rows), 30) else "failed pivot"] += 1
            while ws.rows:
                calls.clear()
                ws.remove(int(rng.integers(len(ws.rows))))
                assert calls == {}
        assert min(seen.values()) >= 5, seen


class TwoSolveFactor(QpFactor):
    """QpFactor with the square-root rows M = A L^-T, -H^-1 and H^-1 A'
    from one pair of triangular solves over [I, A'], the form before the
    single inverse, as its reference."""

    def __init__(self, H, A_in, F=None, B=None):
        super().__init__(H, A_in, F, B)
        n = len(H)
        L = np.linalg.cholesky(self.H)
        Y = np.linalg.solve(L, np.hstack([np.eye(n), A_in.T]))
        X = np.linalg.solve(L.T, Y)
        self.M = Y[:, n:].T
        self.neg_H_inv, self.HinvAt = -X[:, :n], X[:, n:]
        self.G = A_in @ self.HinvAt
        self.G = 0.5 * (self.G + self.G.T)
        # the family's map from the same inverse
        Z = self.unconstrained(self.F)
        self.theta_map = np.vstack([Z, A_in @ Z - self.B])


class TestQpFactor:
    @staticmethod
    def solve_paths(monkeypatch, factor, run):
        """(iterations, active set, status) of every QP that run solves on
        the shipped bundle, built with factor as qp.QpFactor, and the
        applied inputs."""
        paths = []
        solve = qp.qp_solve

        def capturing(p, *args, **kwargs):
            sol = solve(p, *args, **kwargs)
            paths.append((sol.iterations, sol.active_set, sol.status))
            return sol

        with monkeypatch.context() as mp:
            mp.setattr(qp, "QpFactor", factor)
            mp.setattr(qp, "qp_solve", capturing)
            log = run(pipeline.build_bundle(patient_path(), controller_path()))
        return paths, log.u

    def test_matches_two_solves(self):
        rng = np.random.default_rng(37)
        ctrl = pipeline.build_bundle(patient_path(), controller_path()).controller
        problems = [(ctrl.H, ctrl.A_in)]
        for _ in range(5):
            p = random_qp(rng, n=30, q=60)
            problems.append((p.H, p.A_in))
        M = rng.normal(size=(8, 5))  # rank 5: H is regularised
        problems.append((M @ M.T, rng.normal(size=(12, 8))))
        for H, A in problems:
            new, ref = QpFactor(H, A), TwoSolveFactor(H, A)
            for name in ("M", "neg_H_inv", "HinvAt", "G"):
                got, want = getattr(new, name), getattr(ref, name)
                assert got.flags.c_contiguous, name
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    @pytest.mark.parametrize("run", ["reference", "setpoint"])
    def test_every_solve_keeps_its_path(self, monkeypatch, run):
        # the 3600 s reference run and the benchmark's setpoint schedule
        # take the same iterations and active sets under either factor,
        # and the path each step took when it was pinned: its iterations
        # and active set, as a digest of the run
        workloads = bench_module("workloads")
        runs = {"reference": (720, lambda b: pipeline.closed_loop(b, 3600.0)),
                "setpoint": (1440, lambda b: workloads.setpoint_episode(
                    b, workloads.SETPOINT_SCHEDULE, workloads.SETPOINT_S))}
        steps, body = runs[run]
        paths, u = self.solve_paths(monkeypatch, QpFactor, body)
        ref_paths, ref_u = self.solve_paths(monkeypatch, TwoSolveFactor, body)
        assert len(paths) == steps
        assert paths == ref_paths
        assert any(iters for iters, _, _ in paths)
        pins = {"reference": (36, "8717842a2d0f3ae2"), "setpoint": (144, "ef76af3fb6681bb0")}
        assert sum(iters for iters, _, _ in paths) == pins[run][0]
        assert path_digest((iters, rows) for iters, rows, _ in paths) == pins[run][1]
        np.testing.assert_allclose(u, ref_u, rtol=0, atol=1e-12)
