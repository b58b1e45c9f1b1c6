import hashlib

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from anesmpc import geometry, pkpd, terminal
from anesmpc.errors import ModelConfigError
from anesmpc.geometry import Polyhedron, contains, lp_max

from conftest import Q_DIAG, R_EYE, log_uniform_patient, perturbed, random_pk
from oracles import chebyshev_centre, sample_invariant_set

TABLE1_K_ABS = np.array([[0.671, 1.58, 0.0, 0.0], [0.0, 0.0, 0.677, 1.267]])
TABLE1_P22 = 218.025
TABLE1_P44 = 58.574


@pytest.fixture
def negative_rhs(monkeypatch):
    """Per lp_max call, and per LP of each other lp_max_stack call, whether
    its rows have a negative rhs (which the front end first shifts to
    geometry.centre, by an extra LP unless they pair). lp_max runs as a
    family of one, which counts as the lp_max call only."""
    calls = {"lone": [], "family": []}
    real, real_family = geometry.lp_max, geometry.lp_max_stack
    depth = [0]  # lp_max calls under way

    def recording(c, poly):
        calls["lone"].append(bool(np.any(poly.g < 0)))
        depth[0] += 1
        try:
            return real(c, poly)
        finally:
            depth[0] -= 1

    def recording_family(C, poly, *args, **kwargs):
        results = real_family(C, poly, *args, **kwargs)
        if not depth[0]:
            calls["family"] += [bool(np.any(poly.g < 0))] * len(results)
        return results

    for module in (geometry, terminal):
        monkeypatch.setattr(module, "lp_max", recording)
        monkeypatch.setattr(module, "lp_max_stack", recording_family)
    return calls


def reference_invariant_set(A_w, W, max_iter=terminal.INVARIANT_MAX_ITER):
    """Constraint propagation with an LP for every candidate row, in row
    order, until the first irredundant one: the loop before witness
    points and held rows, as the reference for
    terminal.max_admissible_invariant_set."""
    F, g = W.F, W.g
    _, h, _ = terminal._steady_shift(A_w, W)
    F_acc, h_acc = F.copy(), h.copy()
    M = np.eye(A_w.shape[0])
    for k in range(max_iter + 1):
        M = M @ A_w
        cand = F @ M
        current = Polyhedron(F_acc, h_acc)
        for j in range(cand.shape[0]):
            res = lp_max(cand[j], current)
            if res.status == "infeasible":
                raise ModelConfigError("constraint polyhedron is empty")
            if res.status != "optimal" or res.value > h[j] + 1e-9:
                break
        else:
            return geometry.remove_redundant(Polyhedron(F_acc, np.tile(g, k + 1))), k
        F_acc = np.vstack([F_acc, cand])
        h_acc = np.concatenate([h_acc, h])
    raise ModelConfigError("invariant set not finitely determined")


def propagation_inputs(disc, v_box, lam):
    """(A_w, W_lambda) of a patient model under the shipped tuning."""
    _, K = terminal.solve_dare(disc.A_f, disc.B, Q_DIAG, R_EYE)
    A_w, psi = terminal.extended_dynamics(disc, K)
    return A_w, terminal.build_W_lambda(K, psi, v_box, lam)


@pytest.fixture
def witnesses(monkeypatch):
    """Every point terminal._witness returns, checked to lie in the set it
    was asked about and to top its candidate's level by the margin."""
    used = []
    real = terminal._witness

    def checking(cand, h, F_acc, h_acc, points):
        found = real(cand, h, F_acc, h_acc, points)
        if found is not None:
            j, w = found
            assert np.all(F_acc @ w <= h_acc + 1e-12 * np.maximum(1.0, np.abs(h_acc)))
            assert cand[j] @ w > h[j] + 1e-9 + 1e-7 * max(1.0, h[j])
            used.append(w)
        return found

    monkeypatch.setattr(terminal, "_witness", checking)
    return used


class TestSolveDare:
    def test_scalar_closed_form(self):
        # a=0.5, b=1, q=r=1: p solves p^2 - 0.25 p - 1 = 0
        P, K = terminal.solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        expected = (0.25 + np.sqrt(4.0625)) / 2
        assert P[0, 0] == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(1.132782, abs=1e-6)

    def test_zero_dynamics(self):
        Q = np.diag([1.0, 2.0])
        P, K = terminal.solve_dare(np.zeros((2, 2)), np.eye(2), Q, np.eye(2))
        np.testing.assert_allclose(P, Q, atol=1e-12)
        np.testing.assert_allclose(K, 0.0, atol=1e-12)

    def test_patient_against_scipy_oracle(self, disc):
        P, K = terminal.solve_dare(disc.A_f, disc.B, Q_DIAG, R_EYE)
        P_ref = solve_discrete_are(disc.A_f, disc.B, Q_DIAG, R_EYE)
        np.testing.assert_allclose(P, P_ref, rtol=1e-9, atol=1e-9)
        assert terminal.dare_residual(disc.A_f, disc.B, Q_DIAG, R_EYE, P) <= 1e-8

    def test_gain_is_schur_stabilizing(self, disc):
        P, K = terminal.solve_dare(disc.A_f, disc.B, Q_DIAG, R_EYE)
        rho = np.max(np.abs(np.linalg.eigvals(disc.A_f + disc.B @ K)))
        assert rho < 1.0

    def test_p_positive_definite(self, disc):
        P, _ = terminal.solve_dare(disc.A_f, disc.B, Q_DIAG, R_EYE)
        np.linalg.cholesky(P)  # raises if not PD

    def test_block_diagonal_preserved(self, disc):
        P, K = terminal.solve_dare(disc.A_f, disc.B, Q_DIAG, R_EYE)
        assert np.max(np.abs(P[:2, 2:])) <= 1e-10
        assert np.max(np.abs(P[2:, :2])) <= 1e-10
        assert np.max(np.abs(K[0, 2:])) <= 1e-10
        assert np.max(np.abs(K[1, :2])) <= 1e-10

    def test_reproduces_published_magnitudes(self, disc):
        # soft check against the reference tuning table; the sample
        # patient file was derived to make these land on the dot
        P, K = terminal.solve_dare(disc.A_f, disc.B, Q_DIAG, R_EYE)
        mask = TABLE1_K_ABS > 0
        assert np.all(np.abs(np.abs(K[mask]) - TABLE1_K_ABS[mask]) / TABLE1_K_ABS[mask] < 0.10)
        assert abs(P[1, 1] - TABLE1_P22) / TABLE1_P22 < 0.10
        assert abs(P[3, 3] - TABLE1_P44) / TABLE1_P44 < 0.10

    def test_r_must_be_pd(self, disc):
        with pytest.raises(ModelConfigError, match="positive definite"):
            terminal.solve_dare(disc.A_f, disc.B, Q_DIAG, np.zeros((2, 2)))

    def test_open_loop_unstable_against_scipy(self):
        # eigenvalues 1.2 and 0.5 with one input: stabilizable, not stable
        A = np.array([[1.2, 0.3, 0.0], [0.0, 0.5, 0.1], [0.0, 0.0, 0.9]])
        B = np.array([[0.0], [1.0], [0.5]])
        Q, R = np.diag([1.0, 0.0, 2.0]), np.array([[0.3]])
        P, K = terminal.solve_dare(A, B, Q, R)
        P_ref = solve_discrete_are(A, B, Q, R)
        np.testing.assert_allclose(P, P_ref, rtol=1e-10, atol=1e-10)
        assert np.max(np.abs(np.linalg.eigvals(A + B @ K))) < 1.0

    def test_near_unit_eigenvalue_against_scipy(self):
        A = np.array([[0.999, 0.05], [0.0, 0.7]])
        B = np.array([[0.01], [0.2]])
        Q, R = np.eye(2), np.array([[5.0]])
        P, K = terminal.solve_dare(A, B, Q, R)
        P_ref = solve_discrete_are(A, B, Q, R)
        np.testing.assert_allclose(P, P_ref, rtol=1e-9)
        assert terminal.dare_residual(A, B, Q, R, P) <= 1e-8 * np.max(np.abs(P))

    def test_non_convergence_reported(self, disc, monkeypatch):
        monkeypatch.setattr(terminal, "DARE_MAX_ITER", 1)
        with pytest.raises(ModelConfigError, match="did not converge"):
            terminal.solve_dare(disc.A_f, disc.B, Q_DIAG, R_EYE)

    def test_observability_checked(self):
        # q weighs nothing: (Q^1/2, A) unobservable
        A = np.array([[0.5, 0.1], [0.0, 0.5]])
        B = np.eye(2)
        with pytest.raises(ModelConfigError, match="observable"):
            terminal.solve_dare(A, B, np.zeros((2, 2)), np.eye(2))


class TestControllabilityIndex:
    def test_patient_is_two(self, disc):
        assert terminal.controllability_index(disc.A_f, disc.B) == 2

    def test_full_rank_input_is_one(self):
        assert terminal.controllability_index(np.zeros((3, 3)), np.eye(3)) == 1

    def test_uncontrollable_raises(self):
        A = np.diag([0.5, 0.6])
        B = np.array([[1.0], [0.0]])
        with pytest.raises(ModelConfigError, match="not controllable"):
            terminal.controllability_index(A, B)

    def test_horizon_of_paper_satisfies_bound(self, disc):
        assert 24 >= terminal.controllability_index(disc.A_f, disc.B)


class TestExtendedDynamics:
    def test_zero_gain(self, disc):
        A_w, psi = terminal.extended_dynamics(disc, np.zeros((2, 4)))
        np.testing.assert_allclose(psi, 0.0)
        np.testing.assert_allclose(A_w[:4, :4], disc.A_f)
        np.testing.assert_allclose(A_w[:4, 4:], disc.B)

    def test_unit_eigenvalues_and_phi_spectrum(self, disc):
        P, K = terminal.solve_dare(disc.A_f, disc.B, Q_DIAG, R_EYE)
        A_w, psi = terminal.extended_dynamics(disc, K)
        assert np.all(A_w[4:, :4] == 0.0)
        np.testing.assert_allclose(A_w[4:, 4:], np.eye(2))
        eig_w = np.sort_complex(np.linalg.eigvals(A_w))
        eig_phi = np.linalg.eigvals(disc.A_f + disc.B @ K)
        expected = np.sort_complex(np.concatenate([eig_phi, [1.0, 1.0]]))
        np.testing.assert_allclose(eig_w, expected, atol=1e-9)

    def test_fixed_points_are_steady_pairs(self, disc):
        P, K = terminal.solve_dare(disc.A_f, disc.B, Q_DIAG, R_EYE)
        A_w, _ = terminal.extended_dynamics(disc, K)
        T = np.linalg.solve(np.eye(4) - disc.A_f, disc.B)
        rng = np.random.default_rng(0)
        for _ in range(10):
            v_a = rng.uniform(0.1, 2.0, size=2)
            w = np.concatenate([T @ v_a, v_a])
            np.testing.assert_allclose(A_w @ w, w, atol=1e-9)


class TestWLambda:
    def test_row_count_and_zero_gain_reduction(self, v_box):
        W = terminal.build_W_lambda(np.zeros((2, 4)), np.zeros((2, 2)), v_box, 0.99)
        assert W.nrows == 8
        # with K = 0, psi = 0 the set is exactly the tightened box
        tight = terminal.tighten_box(v_box, 0.99)
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.uniform(v_box.lower - 0.1, v_box.upper + 0.1)
            w = np.concatenate([rng.normal(size=4), v])
            inside = np.all(v >= tight.lower - 1e-12) and np.all(v <= tight.upper + 1e-12)
            assert contains(W, w, tol=1e-12) == inside

    def test_lambda_validated(self, v_box):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ModelConfigError, match="lambda"):
                terminal.build_W_lambda(np.zeros((2, 4)), np.zeros((2, 2)), v_box, bad)

    def test_tightened_box_strictly_inside(self, v_box):
        tight = terminal.tighten_box(v_box, 0.99)
        assert np.all(tight.lower > v_box.lower)
        assert np.all(tight.upper < v_box.upper)


class TestMaxAdmissibleInvariantSet:
    def test_zero_map_returns_w(self):
        W = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        O, k = terminal.max_admissible_invariant_set(np.zeros((2, 2)), W)
        assert k == 0
        assert O.nrows == 4

    def test_contracting_scalar_adds_nothing(self):
        W = Polyhedron([[1.0], [-1.0]], [1.0, 1.0])
        O, k = terminal.max_admissible_invariant_set(np.array([[0.5]]), W)
        assert k == 0
        # brute-force propagation confirms the set is invariant as-is
        for w0 in np.linspace(-1.0, 1.0, 21):
            w = w0
            for _ in range(50):
                w = 0.5 * w
                assert abs(w) <= 1.0 + 1e-12

    def test_patient_set_invariance_by_sampling(self, ingredients):
        samples = sample_invariant_set(ingredients, 200, seed=7)
        X_a, A_w = ingredients.X_a, ingredients.A_w
        W = samples.T
        for _ in range(200):
            assert np.all(X_a.F @ W <= X_a.g[:, None] + 1e-8)
            W = A_w @ W

    def test_k_star_invariant_to_row_scaling(self, disc, v_box, ingredients):
        W = terminal.build_W_lambda(ingredients.K, ingredients.psi, v_box,
                                    ingredients.lam)
        scale = np.array([3.0, 0.5, 7.0, 1.0, 0.2, 5.0, 1.0, 0.1])
        W_scaled = Polyhedron(W.F * scale[:, None], W.g * scale)
        _, k1 = terminal.max_admissible_invariant_set(ingredients.A_w, W)
        _, k2 = terminal.max_admissible_invariant_set(ingredients.A_w, W_scaled)
        assert k1 == k2 == ingredients.determination_index

    def test_centre_of_W_lambda_is_the_steady_pair_at_the_box_centre(self, disc, v_box,
                                                                        ingredients):
        # both boxes of W_lambda are centred at c_V, so W_lambda is symmetric
        # about the steady pair (T c_V, c_V), T = (I - A)^-1 B; about it each
        # pair's rhs is the half-width of its box, V's or the lambda box's
        W = terminal.build_W_lambda(ingredients.K, ingredients.psi, v_box, ingredients.lam)
        w0, h, twin = terminal._steady_shift(ingredients.A_w, W)
        c_V = 0.5 * (v_box.lower + v_box.upper)
        T = np.linalg.solve(np.eye(4) - disc.A_f, disc.B)
        np.testing.assert_allclose(w0, np.concatenate([T @ c_V, c_V]), rtol=1e-12)
        mirror = geometry.mirror_rows(W.F)
        np.testing.assert_array_equal(mirror, [2, 3, 0, 1, 6, 7, 4, 5])
        np.testing.assert_array_equal(twin, mirror)
        about = W.g - W.F @ w0
        np.testing.assert_allclose(about[mirror], about, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(h, about, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(h[mirror], h)
        half = 0.5 * (v_box.upper - v_box.lower)
        np.testing.assert_allclose(h[:2], half, rtol=1e-15)
        np.testing.assert_allclose(h[4:6], ingredients.lam * half, rtol=1e-15)

    def test_unpaired_rows_take_the_chebyshev_path(self, ingredients, v_box, negative_rhs):
        # the row-scaled W has no exact mirror pairs: the shift is the
        # Chebyshev centre of its steady pairs, by one LP, and the build
        # matches the reference
        W = terminal.build_W_lambda(ingredients.K, ingredients.psi, v_box, ingredients.lam)
        scale = np.array([3.0, 0.5, 7.0, 1.0, 0.2, 5.0, 1.0, 0.1])
        W_scaled = Polyhedron(W.F * scale[:, None], W.g * scale)
        assert geometry.mirror_rows(W_scaled.F) is None
        A_w = ingredients.A_w
        _, s, Vt = np.linalg.svd(A_w - np.eye(6))
        N = Vt[s <= terminal._RANK_TOL * max(1.0, s[0])].T
        t, _ = chebyshev_centre(Polyhedron(W_scaled.F @ N, W_scaled.g))
        w0, h, twin = terminal._steady_shift(A_w, W_scaled)
        assert len(negative_rhs["lone"]) == 2  # the centre LP above, and _steady_shift's
        np.testing.assert_array_equal(twin, np.arange(W_scaled.nrows))
        assert np.array_equal(w0, N @ t)
        assert np.array_equal(h, np.maximum(W_scaled.g - W_scaled.F @ w0, 0.0))
        X, k = terminal.max_admissible_invariant_set(A_w, W_scaled)
        X_ref, k_ref = reference_invariant_set(A_w, W_scaled)
        assert k == k_ref == 11
        assert np.array_equal(X.F, X_ref.F) and np.array_equal(X.g, X_ref.g)

    def test_patient_build_starts_from_a_steady_pair(self, disc, v_box, negative_rhs):
        # no LP sees rows with a negative rhs: the 5 propagation LPs run on
        # rows shifted to the steady pair at W's centre of symmetry, and the
        # reduction's 13 row tests run as one family on the rows shifted to
        # X_a's; neither centre takes an LP
        ing = terminal.compute_terminal_ingredients(disc, v_box, Q_DIAG, R_EYE, lam=0.99)
        assert negative_rhs["lone"] == [False] * 5
        assert negative_rhs["family"] == [False] * 13
        assert ing.X_a.nrows == 44
        assert ing.determination_index == 11

    def test_propagation_lps_and_pivots(self, disc, v_box, monkeypatch):
        # held rows and witness points (the first LP's ray among them)
        # decide 8 of the 12 rounds, and the mirrors of candidates shown
        # redundant need no LP: 5 LPs and 43 pivots where an LP per
        # candidate takes 19 LPs
        made = {"lps": 0, "pivots": 0}
        inside = [False]  # pivots count only inside a propagation LP
        real, pivot = terminal.lp_max, geometry._pivot

        def counting_lp(c, poly):
            made["lps"] += 1
            inside[0] = True
            try:
                return real(c, poly)
            finally:
                inside[0] = False

        def counting_pivot(*args):
            made["pivots"] += inside[0]
            return pivot(*args)

        monkeypatch.setattr(terminal, "lp_max", counting_lp)
        monkeypatch.setattr(geometry, "_pivot", counting_pivot)
        _, k = terminal.max_admissible_invariant_set(*propagation_inputs(disc, v_box, 0.99))
        assert k == 11
        assert made == {"lps": 5, "pivots": 43}

    def test_every_lp_of_the_build_runs_to_its_maximum(self, disc, v_box, monkeypatch):
        # the propagation LPs (terminal.lp_max), the reduction's family and
        # invariance_excess's family: each LP ends "optimal" or "unbounded",
        # and an optimal value is C[l] . argmax at a point of the LP's rows
        statuses = []
        real = geometry.lp_max_stack

        def checking(C, poly, skip=None):
            results = real(C, poly, skip=skip)
            C = np.array(C, dtype=float, ndmin=2)
            for l, res in enumerate(results):
                statuses.append(res.status)
                assert res.status in ("optimal", "unbounded")
                if res.status == "optimal":
                    rows = np.ones(poly.nrows, dtype=bool)
                    if skip is not None:
                        rows[skip[l]] = False
                    assert res.value == C[l] @ res.argmax
                    assert np.all(poly.F[rows] @ res.argmax <= poly.g[rows] + 1e-9)
            return results

        for module in (geometry, terminal):
            monkeypatch.setattr(module, "lp_max_stack", checking)
        ing = terminal.compute_terminal_ingredients(disc, v_box, Q_DIAG, R_EYE, lam=0.99)
        assert ing.determination_index == 11
        assert len(statuses) == 5 + 13
        assert terminal.invariance_excess(ing.A_w, ing.X_a) <= 1e-9
        assert len(statuses) == 5 + 13 + 22
        assert statuses[0] == "unbounded"  # the first propagation LP

    def test_matches_the_reference_on_the_shipped_pair(self, ingredients, v_box,
                                                       witnesses):
        W = terminal.build_W_lambda(ingredients.K, ingredients.psi, v_box, ingredients.lam)
        X, k = terminal.max_admissible_invariant_set(ingredients.A_w, W)
        X_ref, k_ref = reference_invariant_set(ingredients.A_w, W)
        assert np.array_equal(X.F, X_ref.F) and np.array_equal(X.g, X_ref.g)
        assert k == k_ref == 11
        assert len(witnesses) == 8

    @pytest.mark.parametrize("lam", [0.9, 0.95, 0.99])
    def test_matches_the_reference_on_patients(self, patient, v_box, lam, witnesses):
        # the shipped patient and 24 log-uniform draws, seeds 0-23
        pats = [patient] + [log_uniform_patient(patient, np.random.default_rng(seed))
                            for seed in range(24)]
        for pat in pats:
            disc = pkpd.discretize_euler(
                pkpd.build_continuous(pat.pk_propofol, pat.pk_remifentanil), 5.0)
            A_w, W = propagation_inputs(disc, v_box, lam)
            X, k = terminal.max_admissible_invariant_set(A_w, W)
            X_ref, k_ref = reference_invariant_set(A_w, W)
            assert k == k_ref
            assert np.array_equal(X.F, X_ref.F) and np.array_equal(X.g, X_ref.g)
        assert len(witnesses) >= len(pats)

    def test_sets_match_their_recorded_digest(self, patient, v_box):
        # the reference comparisons run the same LP code on both sides, so
        # only a recorded pin shows a changed pivot: sha256 over X_a's F and
        # g, k* and invariance_excess as little-endian float64, for the
        # shipped patient and 24 log-uniform draws (seeds 0-23), each at
        # lambda 0.9, 0.95 and 0.99 in turn
        pats = [patient] + [log_uniform_patient(patient, np.random.default_rng(seed))
                            for seed in range(24)]
        digest = hashlib.sha256()
        for pat in pats:
            disc = pkpd.discretize_euler(
                pkpd.build_continuous(pat.pk_propofol, pat.pk_remifentanil), 5.0)
            for lam in (0.9, 0.95, 0.99):
                ing = terminal.compute_terminal_ingredients(disc, v_box, Q_DIAG, R_EYE, lam=lam)
                excess = terminal.invariance_excess(ing.A_w, ing.X_a)
                for part in (ing.X_a.F, ing.X_a.g, [ing.determination_index], [excess]):
                    digest.update(np.asarray(part, dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "67868c5a9ca7bafa26a9e55a1dff2c4e4f28f9e0b0f785685928f8279e84e58e")

    def test_witness_along_a_ray(self):
        # {w_0 <= 1}: the point (-1, 1) has F p < 0, so it is a ray of the
        # set, a witness for w_1 <= 1 and none for -w_1 <= 1; the point 0
        # is a witness for nothing. No inf * 0 is formed
        F_acc, h_acc = np.array([[1.0, 0.0]]), np.array([1.0])
        points = [np.zeros(2), np.array([-1.0, 1.0])]
        with np.errstate(all="raise"):
            j, w = terminal._witness(np.array([[0.0, -1.0], [0.0, 1.0]]), np.ones(2),
                                     F_acc, h_acc, points)
            assert terminal._witness(np.array([[0.0, -1.0]]), np.ones(1),
                                     F_acc, h_acc, points) is None
        assert j == 1
        assert np.all(F_acc @ w <= h_acc) and w[1] > 1.0 + 1e-7

    def test_no_steady_point_falls_back_to_phase_one(self):
        # w >= 1 under w -> 2w: no fixed point in W, so the rows stay
        # unshifted (negative rhs) and W is returned as is
        W = Polyhedron([[-1.0]], [-1.0])
        O, k = terminal.max_admissible_invariant_set(np.array([[2.0]]), W)
        assert k == 0
        np.testing.assert_array_equal(O.F, W.F)
        np.testing.assert_array_equal(O.g, W.g)
        # 1 <= w <= 2 under w -> w/2: every point leaves, the set is empty
        W = Polyhedron([[1.0], [-1.0]], [2.0, -1.0])
        with pytest.raises(ModelConfigError, match="empty"):
            terminal.max_admissible_invariant_set(np.array([[0.5]]), W)

    def test_termination_failure_reported(self):
        # an irrational rotation of a box is never finitely determined:
        # the true invariant set is the inscribed disk
        W = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        th = 1.0
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        with pytest.raises(ModelConfigError, match="finitely determined"):
            terminal.max_admissible_invariant_set(rot, W, max_iter=20)


class TestInvarianceExcess:
    def test_patient_set_proven_invariant(self, ingredients):
        assert terminal.invariance_excess(ingredients.A_w, ingredients.X_a) <= 1e-9

    def test_not_invariant_detected(self):
        # a box is not invariant under a rotation by 1 rad
        W = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        rot = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
        excess = terminal.invariance_excess(rot, W)
        assert excess == pytest.approx(np.cos(1.0) + np.sin(1.0) - 1.0, abs=1e-9)

    def test_unbounded_row_reported(self):
        # under w -> -2w the half-line w <= 1 maps onto w >= -2
        W = Polyhedron([[1.0]], [1.0])
        assert terminal.invariance_excess(np.array([[-2.0]]), W) == np.inf

    @staticmethod
    def _per_row_excess(A_w, X):
        """One lp_max per row, as before the row LPs ran as one family."""
        w0, h, _ = terminal._steady_shift(A_w, X)
        FA = X.F @ A_w
        worst = -np.inf
        for j in range(X.nrows):
            res = lp_max(FA[j], Polyhedron(X.F, h))
            if res.status != "optimal":
                return np.inf
            worst = max(worst, res.value + FA[j] @ w0 - X.g[j])
        return float(worst)

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
    def test_matches_the_per_row_loop_on_patients(self, patient, v_box, seed):
        # the shipped patient and the integration tests' perturbed ones;
        # X_a is not invariant under 1.05 A_w, whose only fixed point 0
        # lies outside X_a
        pat = patient if seed is None else perturbed(patient, np.random.default_rng(seed))
        cont = pkpd.build_continuous(pat.pk_propofol, pat.pk_remifentanil)
        disc = pkpd.discretize_euler(cont, 5.0)
        ing = terminal.compute_terminal_ingredients(disc, v_box, Q_DIAG, R_EYE, lam=0.99)
        for A_w in (ing.A_w, 1.05 * ing.A_w):
            excess = terminal.invariance_excess(A_w, ing.X_a)
            assert excess == pytest.approx(self._per_row_excess(A_w, ing.X_a), abs=1e-12)
        assert excess > 1e-3

    @pytest.mark.parametrize("g, expected", [
        ([2.0, -1.0], 2.0),  # 1 <= w <= 2 under w -> 2w: w = 2 maps to 4
        ([-1.0, 0.5], np.inf),  # w <= -1 and w >= -0.5: empty
    ], ids=["no-steady-point", "empty"])
    def test_without_a_steady_point(self, g, expected):
        # the only fixed point, 0, lies outside X: the LPs run from X's
        # Chebyshev centre instead
        X = Polyhedron([[1.0], [-1.0]], g)
        A_w = np.array([[2.0]])
        assert terminal.invariance_excess(A_w, X) == pytest.approx(expected, abs=1e-12)
        assert self._per_row_excess(A_w, X) == pytest.approx(expected, abs=1e-12)

    def test_lps_start_from_a_steady_pair(self, ingredients, negative_rhs):
        # X_a's centre of symmetry is a steady pair, found without an LP;
        # the two rows of a mirror pair share one LP
        terminal.invariance_excess(ingredients.A_w, ingredients.X_a)
        assert negative_rhs["lone"] == []
        assert negative_rhs["family"] == [False] * (ingredients.X_a.nrows // 2)


class TestSteadyInputBox:
    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_X_a_bounds_v_a_to_the_lambda_box(self, disc, v_box, ingredients, seed):
        # the controller's only rows on v_a are X_a's, and the steady inputs
        # it admits are the lambda box: each bound is attained, by the
        # steady pair at the box corner, and none is exceeded
        if seed is not None:
            rng = np.random.default_rng(seed)
            disc = pkpd.discretize_euler(
                pkpd.build_continuous(random_pk(rng), random_pk(rng)), 5.0)
            ingredients = terminal.compute_terminal_ingredients(disc, v_box, Q_DIAG,
                                                                R_EYE, 0.99)
        X_a = ingredients.X_a
        tight = terminal.tighten_box(v_box, ingredients.lam)
        for i in range(2):
            e = np.zeros(X_a.dim)
            e[4 + i] = 1.0
            hi, lo = lp_max(e, X_a), lp_max(-e, X_a)
            assert hi.status == lo.status == "optimal"
            assert hi.value == pytest.approx(tight.upper[i], rel=1e-9)
            assert -lo.value == pytest.approx(tight.lower[i], rel=1e-9)

    def test_sampling_with_two_fast_states(self):
        # fast dimension 2 (K is 1 x 2), one steady input in [0.2, 0.8]
        A_w = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
        g = np.array([1.0, 1.0, 0.8, 1.0, 1.0, -0.2])
        X_a = Polyhedron(np.vstack([np.eye(3), -np.eye(3)]), g)
        ing = terminal.TerminalIngredients(
            K=np.zeros((1, 2)), P=np.eye(2), psi=np.zeros((1, 1)), A_w=A_w,
            X_a=X_a, lam=0.99)
        samples = sample_invariant_set(ing, 50, seed=3)
        assert samples.shape == (50, 3)
        assert np.all(X_a.F @ samples.T <= g[:, None] + 1e-12)


class TestBundle:
    def test_compute_terminal_ingredients(self, ingredients):
        assert ingredients.determination_index <= 500
        assert 0.0 < ingredients.lam < 1.0
        assert ingredients.X_a.dim == 6
        # the steady pair of the admissible box center is strictly inside
        res = lp_max(np.zeros(6), ingredients.X_a)
        assert res.status == "optimal"
