import gc
from dataclasses import replace

import numpy as np
import pytest

from anesmpc import compensation, mpc, pipeline, pkpd, qp, sim
from anesmpc.errors import ModelConfigError, SolverInfeasibleError

from conftest import U_BOUNDS, bench_module, controller_path, count_linalg, patient_path
from oracles import kkt_residuals, offset_cost


@pytest.fixture(scope="module")
def zs(disc, patient, v_box):
    return mpc.build_steady_input_set(disc, patient.pd, 50.0, v_box, 0.99)


@pytest.fixture(scope="module")
def controller(disc, patient, gain, v_box, zs, ingredients):
    return mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                ingredients, mpc.MpcConfig())


def offset_minimizer(zs):
    """v_a on the steady line with v_a1 = v_a2 / 2 (the default offset
    cost's unconstrained minimizer restricted to the line)."""
    g1, g2 = zs.g_eff
    v2 = zs.c / (g1 / 2 + g2)
    return np.array([v2 / 2, v2])


class TestSteadySegment:
    def test_endpoints_against_clipping_oracle(self, zs):
        a, b = mpc.steady_segment(zs)
        for pt in (a, b):
            assert zs.g_eff @ pt == pytest.approx(zs.c, abs=1e-12)
            assert np.all(pt >= zs.lower - 1e-9)
            assert np.all(pt <= zs.upper + 1e-9)
        # oracle: a dense sweep of the line over the zs box finds no
        # admissible point outside [a, b] in either coordinate, to within
        # one grid step
        v1 = np.linspace(zs.lower[0], zs.upper[0], 200001)
        v2 = (zs.c - zs.g_eff[0] * v1) / zs.g_eff[1]
        ok = (v2 >= zs.lower[1]) & (v2 <= zs.upper[1])
        step = v1[1] - v1[0]
        tols = (step, step * abs(zs.g_eff[0] / zs.g_eff[1]))
        for i, (swept, tol) in enumerate(zip((v1[ok], v2[ok]), tols)):
            assert swept.min() == pytest.approx(min(a[i], b[i]), abs=tol)
            assert swept.max() == pytest.approx(max(a[i], b[i]), abs=tol)

    def test_unit_box_diagonal(self):
        zs = mpc.SteadyInputSet(g_eff=np.array([1.0, 1.0]), c=1.0,
                                lower=np.zeros(2), upper=np.ones(2))
        a, b = mpc.steady_segment(zs)
        np.testing.assert_allclose(a, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(b, [1.0, 0.0], atol=1e-12)

    def test_empty_intersection_raises(self):
        zs = mpc.SteadyInputSet(g_eff=np.array([1.0, 1.0]), c=0.0,
                                lower=np.array([0.5, 0.5]), upper=np.ones(2))
        with pytest.raises(ModelConfigError, match="steady input"):
            mpc.steady_segment(zs)

    def test_build_checks_nonempty(self, disc, patient, v_box):
        # an unreachably deep target empties the segment
        with pytest.raises(ModelConfigError):
            mpc.build_steady_input_set(disc, patient.pd, 0.5, v_box, 0.99)


class TestBuildController:
    def test_qp_dimensions(self, controller, ingredients, zs):
        # y = (v_0 .. v_{N-1}, t): the steady line is a parametrization,
        # not an equality row
        N = controller.N
        assert controller.ny == 2 * N + 1 == 49
        assert controller.H.shape == (49, 49)
        assert not hasattr(controller, "A_eq")
        # no rows of its own on v_a: X_a bounds it to the lambda box
        expected_rows = 4 * N + ingredients.X_a.nrows
        assert controller.A_in.shape == (expected_rows, 49) == (140, 49)
        # theta -> (z_u, c) then the read-out; no row of A_in is read out,
        # f = F theta is formed only if read, and no shifted plan is formed
        assert controller.readout_y.shape == (255, 49)
        assert controller.step_map.shape == (49 + 140 + 255, 6) == (444, 6)
        assert controller.qp_factor.F.shape == (49, 6)
        assert zs.g_eff @ controller.d == pytest.approx(0.0, abs=1e-15)
        assert zs.g_eff @ controller.p0 == pytest.approx(1.0, abs=1e-15)

    def test_horizon_below_controllability_index(self, disc, patient, gain,
                                                 v_box, zs, ingredients):
        with pytest.raises(ModelConfigError, match="controllability"):
            mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                 ingredients, mpc.MpcConfig(N=1))

    def test_target_set_as_retarget_sets_it(self, disc, patient, gain, v_box,
                                            ingredients, controller):
        # construction and retarget derive zs and theta's tail (c, 1) on the
        # same path; the QP family and the step map do not depend on the
        # target
        built = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                     ingredients, mpc.MpcConfig(y_ref=45.0))
        moved = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                     ingredients, mpc.MpcConfig())
        moved.retarget(45.0)
        assert built.zs.c == moved.zs.c != controller.zs.c
        assert np.array_equal(built._theta_tail, [built.zs.c, 1.0])
        assert np.array_equal(built._theta_tail, moved._theta_tail)
        assert not np.array_equal(built._theta_tail, controller._theta_tail)
        for ctrl in (moved, controller):
            for name in ("step_map", "H", "A_in", "readout_y"):
                assert np.array_equal(getattr(built, name), getattr(ctrl, name)), name
            assert np.array_equal(built.qp_factor.B, ctrl.qp_factor.B)

    def test_retarget_moves_only_the_target_entry_of_theta(self, disc, patient, gain, v_box,
                                                           ingredients):
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        factor, tail = ctrl.qp_factor, ctrl._theta_tail
        kept = [(ctrl, name) for name in ("step_map", "H", "A_in", "readout_y")]
        kept += [(factor, name) for name in ("theta_map", "F", "B", "M", "neg_H_inv", "HinvAt", "G")]
        before = [(getattr(owner, name), getattr(owner, name).copy()) for owner, name in kept]
        c50 = ctrl.zs.c
        ctrl.retarget(45.0)
        assert ctrl.qp_factor is factor and ctrl._theta_tail is tail
        for (owner, name), (obj, bits) in zip(kept, before):
            assert getattr(owner, name) is obj and np.array_equal(obj, bits), name
        assert tail[1] == 1.0 and tail[0] == ctrl.zs.c != c50

    def test_cost_at_zero_plan_is_the_stage_cost_sum(self, disc, patient, gain, v_box,
                                                     ingredients):
        # the cost's residual rows, read off at the zero plan y = 0 (v_k = 0
        # and v_a = p0 c) as a step reads them at its solution: their sum of
        # squares against the stage costs summed directly, for random
        # states and targets; an offset b != 0 puts a term on theta's
        # constant entry
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS, ingredients,
                                    mpc.MpcConfig(vd=mpc.VdSpec(offset=0.5)))
        cfg, zero = ctrl.cfg, np.zeros(ctrl.ny)
        rng = np.random.default_rng(5)
        for _ in range(20):
            ctrl.retarget(rng.uniform(40.0, 55.0))
            x = rng.uniform(0.0, 10.0, size=4) * rng.uniform(size=4).round()
            theta = np.concatenate([x, ctrl._theta_tail])
            r = ctrl.read_out(zero, qp.ParametricQp(ctrl.qp_factor, theta,
                                                    ctrl.step_map @ theta))[ctrl._cost_rows]
            v_a = ctrl.p0 * ctrl.zs.c
            x_a = ctrl.T @ v_a
            cost = offset_cost(cfg.vd, v_a)
            for _ in range(cfg.N):
                cost += (x - x_a) @ cfg.Q @ (x - x_a) + v_a @ cfg.R @ v_a
                x = disc.A_f @ x
            cost += (x - x_a) @ ingredients.P @ (x - x_a)
            assert r @ r == pytest.approx(cost, rel=1e-12, abs=0.0)

    def test_prediction_maps_match_the_blockwise_products(self, disc, patient, gain, v_box,
                                                          ingredients, controller, monkeypatch):
        # S from slices of one stack of the N products A^i B against S
        # filled block by block, each block its own product A^(k-1-j) B:
        # the QP data and the maps a step applies, built on either, are
        # equal to the bit
        def blockwise(A, B, N):
            n, m = B.shape
            powers = [np.eye(n)]
            for _ in range(N):
                powers.append(A @ powers[-1])
            S = np.zeros(((N + 1) * n, m * N))
            for k in range(1, N + 1):
                for j in range(k):
                    S[k * n:(k + 1) * n, j * m:(j + 1) * m] = powers[k - 1 - j] @ B
            return np.vstack(powers), S

        monkeypatch.setattr(mpc, "prediction_maps", blockwise)
        ref = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                   ingredients, mpc.MpcConfig())
        for name in ("H", "A_in", "readout_y", "step_map"):
            assert np.array_equal(getattr(controller, name), getattr(ref, name)), name
        assert np.array_equal(controller.qp_factor.B, ref.qp_factor.B)

    def test_negative_offset_weight_rejected(self):
        with pytest.raises(ModelConfigError, match="'vd_weight'"):
            mpc.VdSpec(weight=-10.0)

    def test_lambda_validated_in_config(self):
        with pytest.raises(ModelConfigError, match="finitely determined"):
            mpc.MpcConfig(lam=1.0)

    def test_offset_cost_default_is_rank_one(self):
        vd = mpc.VdSpec()
        assert offset_cost(vd, np.array([1.0, 2.0])) == pytest.approx(0.0)
        assert offset_cost(vd, np.array([1.0, 0.0])) == pytest.approx(10.0)


class TestControlStep:
    def test_equilibrium_is_fixed_point(self, controller, gain, disc, zs):
        # start exactly at the steady pair of the offset-cost minimizer
        # with matching slow states: the optimizer returns it unchanged
        v_a = offset_minimizer(zs)
        x_a = controller.T @ v_a
        # slow steady state: x_s = (I - A_ss)^-1 A_sf x_a (discrete blocks)
        x_s = np.linalg.solve(np.eye(4) - disc.A_ss, disc.A_sf @ x_a)
        controller.reset()
        out = controller.control_step(x_a, x_s)
        np.testing.assert_allclose(out.v0, v_a, atol=1e-6)
        np.testing.assert_allclose(out.v_a, v_a, atol=1e-6)
        assert out.cost == pytest.approx(offset_cost(controller.cfg.vd, v_a), abs=1e-6)
        np.testing.assert_allclose(out.u, v_a + gain.D @ x_s, atol=1e-12)

    def test_one_prediction_per_step(self, controller, monkeypatch):
        # the predicted states come with everything else read off the
        # solution: one application of the read-out map per step
        calls = []
        real = mpc.Controller.read_out

        def counting(self, *args):
            calls.append(1)
            return real(self, *args)

        monkeypatch.setattr(mpc.Controller, "read_out", counting)
        controller.reset()
        first = controller.control_step(np.zeros(4), np.zeros(4))
        controller.control_step(first.predicted_xf[1], np.zeros(4))
        assert len(calls) == 2

    def test_each_step_solves_once_and_keeps_what_it_returned(self, disc, patient, gain,
                                                               v_box, ingredients, monkeypatch):
        # every step solves one QP through qp.qp_solve and gets its KKT
        # residuals back (the benchmark's KKT check needs one per step); the
        # problem a step solved and the output it returned stay as they were
        # after the next step and after retarget; u is v0 + D x_s, clipped
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        M, B = pkpd.full_step_matrices(disc)
        solves, solve = [], qp.qp_solve

        def recording(p, *args, **kwargs):
            solves.append((p, solve(p, *args, **kwargs)))
            return solves[-1][1]

        def arrays(p, out):
            return (p.H, p.f, p.A_in, p.b_in, out.u, out.v0, out.v_a, out.x_a,
                    out.predicted_xf, np.array([out.cost, out.qp_iterations]))

        def unchanged(step):
            return all(np.array_equal(a, b) for a, b in zip(arrays(*step[:2]), step[2]))

        monkeypatch.setattr(qp, "qp_solve", recording)
        x, steps = np.zeros(8), []
        for k in range(120):
            if k == 60:
                ctrl.retarget(55.0)
                assert all(unchanged(step) for step in steps), "retarget"
            out = ctrl.control_step(x[:4], x[4:])
            assert len(solves) == k + 1
            p, sol = solves[-1]
            assert sol.kkt_residuals is not None
            assert np.array_equal(out.u, (out.v0 + ctrl.D @ x[4:]).clip(
                ctrl.U.lower, ctrl.U.upper)), k
            if steps:
                assert unchanged(steps[-1]), k - 1
            steps.append((p, out, [a.copy() for a in arrays(p, out)]))
            x = M @ x + B @ out.u
        assert any(out.qp_iterations for _, out, _ in steps[60:])  # retarget's work

    def test_applied_input_clipped_into_box(self, disc, patient, gain, v_box,
                                            ingredients, caplog):
        # the shipped box: the first input sits on the propofol bound to
        # rounding, is clipped onto it and raises no warning
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        with caplog.at_level("WARNING", logger="anesmpc.mpc"):
            first = ctrl.control_step(np.zeros(4), np.zeros(4))
        u = first.u
        assert np.all(u >= U_BOUNDS.lower) and np.all(u <= U_BOUNDS.upper)
        assert not caplog.records and first.clamped is False
        # a box that ends 1e-7 (relative) below the remifentanil rate:
        # u is clipped onto it and the clip is reported
        tight = compensation.InputBox(lower=U_BOUNDS.lower,
                                      upper=[U_BOUNDS.upper[0], u[1] * (1 - 1e-7)])
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, tight,
                                    ingredients, mpc.MpcConfig())
        with caplog.at_level("WARNING", logger="anesmpc.mpc"):
            out = ctrl.control_step(np.zeros(4), np.zeros(4))
        assert out.u[1] < u[1]
        assert np.all(out.u >= tight.lower) and np.all(out.u <= tight.upper)
        assert "clamped" in caplog.text and out.clamped is True

    def test_setpoint_clamps_are_reported_per_step(self, caplog):
        # the benchmark's set-point schedule clips u into U on four steps,
        # by about 0.03 each: every one sets the output's flag, the
        # warning fires once, and every other step applies v_0 + D x_s
        workloads = bench_module("workloads")
        bundle = pipeline.build_bundle(patient_path(), controller_path())
        step, outputs = mpc.Controller.control_step, []

        def recording(ctrl, x_f, x_s):
            out = step(ctrl, x_f, x_s)
            outputs.append((out, out.v0 + ctrl.D @ x_s))
            return out

        with pytest.MonkeyPatch.context() as mp, \
                caplog.at_level("WARNING", logger="anesmpc.mpc"):
            mp.setattr(mpc.Controller, "control_step", recording)
            workloads.setpoint_episode(bundle, workloads.SETPOINT_SCHEDULE,
                                       workloads.SETPOINT_S)
        assert len(outputs) == 1440
        assert [k for k, (out, _) in enumerate(outputs) if out.clamped] == [720, 721, 722, 723]
        for k, (out, free) in enumerate(outputs):
            moved = np.abs(out.u - free).max()
            if out.clamped:
                assert 0.028 < moved < 0.031, k
            else:
                assert np.array_equal(out.u, free), k
        assert caplog.text.count("clamped") == 1

    def test_active_steps_keep_v0_inside_the_box(self, disc, patient, gain, v_box,
                                                  ingredients):
        # working rows hold v_0 on a bound of V, which rounding in the solve
        # must not leave: from rest the first step puts the propofol rate on
        # the upper bound of V (and of U), to the bit, and no step of a
        # 600 s run leaves V
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        first = ctrl.control_step(np.zeros(4), np.zeros(4))
        assert first.qp_iterations > 0
        assert first.v0[0] == first.u[0] == v_box.upper[0] == U_BOUNDS.upper[0]
        log = sim.simulate_closed_loop(disc, patient.pd, ctrl, 600.0)
        assert np.all((log.v >= v_box.lower) & (log.v <= v_box.upper))

    def test_awake_patient_feasible(self, controller, v_box):
        controller.reset()
        out = controller.control_step(np.zeros(4), np.zeros(4))
        assert out.solver_status == "optimal"
        assert np.all(out.v0 >= v_box.lower - 1e-9)
        assert np.all(out.v0 <= v_box.upper + 1e-9)

    def test_output_invariants(self, controller, zs, ingredients):
        controller.reset()
        out = controller.control_step(np.zeros(4), np.zeros(4))
        assert abs(zs.g_eff @ out.v_a - zs.c) <= 1e-8
        np.testing.assert_allclose(out.x_a, controller.T @ out.v_a, atol=1e-10)
        w = np.concatenate([out.predicted_xf[-1], out.v_a])
        assert np.all(ingredients.X_a.F @ w <= ingredients.X_a.g + 1e-8)
        assert out.predicted_xf.shape == (controller.N + 1, 4)

    def test_quadratic_cost_growth_near_equilibrium(self, controller, disc, zs):
        v_a = offset_minimizer(zs)
        x_a = controller.T @ v_a
        x_s = np.linalg.solve(np.eye(4) - disc.A_ss, disc.A_sf @ x_a)
        controller.reset()
        base = controller.control_step(x_a, x_s).cost
        deltas, gains = (1e-3, 2e-3, 4e-3), []
        for d in deltas:
            controller.reset()
            cost = controller.control_step(x_a + d, x_s).cost
            gains.append(cost - base)
        # doubling the perturbation roughly quadruples the extra cost
        assert gains[1] / gains[0] == pytest.approx(4.0, rel=0.15)
        assert gains[2] / gains[1] == pytest.approx(4.0, rel=0.15)

    def test_negative_state_rejected(self, controller):
        with pytest.raises(ModelConfigError):
            controller.control_step(np.array([-1.0, 0, 0, 0]), np.zeros(4))

    @pytest.mark.parametrize("x_f, x_s, cause", [
        ([0.0, np.nan, 0.0, 0.0], np.zeros(4), "fast state contains NaN or Inf"),
        (np.zeros(4), [0.0, 0.0, np.inf, 0.0], "slow state contains NaN or Inf"),
        (np.zeros(3), np.zeros(4), "fast state must have 4 entries"),
        (np.zeros(4), np.zeros(5), "slow state must have 4 entries"),
        (np.zeros(4), [0.0, 0.0, 0.0, -1e-3], "negative concentrations"),
        (np.zeros(4), [0.0, 0.0, 0.0, -np.inf], "slow state contains NaN or Inf"),
        # each cause in each state; a NaN between other entries, which a
        # min or max over Python floats would skip
        ([np.inf, 0.0, 0.0, 0.0], np.zeros(4), "fast state contains NaN or Inf"),
        ([0.0, 0.0, -np.inf, 0.0], np.zeros(4), "fast state contains NaN or Inf"),
        ([0.0, 0.0, 0.0, -1e-3], np.zeros(4), "negative concentrations"),
        ([1.0, np.nan, 0.5, 2.0], np.zeros(4), "fast state contains NaN or Inf"),
        (np.zeros(4), [0.1, np.nan, 0.2, 0.3], "slow state contains NaN or Inf"),
        (np.zeros(5), np.zeros(4), "fast state must have 4 entries"),
        (np.zeros(4), np.zeros(3), "slow state must have 4 entries"),
        (np.zeros(3), np.zeros(5), "fast state must have 4 entries"),  # 8 entries in all
    ])
    def test_state_check_names_the_cause(self, controller, x_f, x_s, cause):
        controller.reset()
        with pytest.raises(ModelConfigError, match=cause):
            controller.control_step(x_f, x_s)

    def test_state_check_bounds(self, controller):
        # -0.0 is a zero concentration, and entries near the largest float
        # pass the check (a finiteness test through a sum would overflow)
        tail = np.array([0.5, 1.0])
        theta, x_s = mpc._as_states(np.full(4, 1e308), np.full(4, 1e308), tail)
        assert np.all(theta == [1e308] * 4 + [0.5, 1.0]) and np.all(x_s == 1e308)
        controller.reset()
        rest = controller.control_step(np.zeros(4), np.zeros(4))
        controller.reset()
        signed = controller.control_step(np.full(4, -0.0), np.full(4, -0.0))
        np.testing.assert_array_equal(signed.u, rest.u)

    def test_warm_start_matches_cold_start(self, controller):
        controller.reset()
        first = controller.control_step(np.zeros(4), np.zeros(4))
        warm = controller.control_step(first.predicted_xf[1], np.zeros(4))
        controller.reset()
        cold = controller.control_step(first.predicted_xf[1], np.zeros(4))
        assert warm.cost == pytest.approx(cold.cost, abs=1e-7)
        np.testing.assert_allclose(warm.v0, cold.v0, atol=1e-6)

    def test_infeasible_state_raises_with_report(self, disc, patient, gain,
                                                 v_box, zs, ingredients):
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        # a state far above anything X_a admits within 24 steps
        huge = np.full(4, 1e4)
        with pytest.raises(SolverInfeasibleError):
            ctrl.control_step(huge, np.zeros(4))

    def test_infeasible_error_names_the_rows(self, controller):
        controller.reset()
        with pytest.raises(SolverInfeasibleError) as info:
            controller.control_step(np.full(4, 1e4), np.zeros(4))
        exc = info.value
        assert exc.status == "infeasible"
        assert exc.step == 0  # the shared controller has stepped before; reset() zeroes the count
        row, amount = exc.report[0]
        assert row.startswith("A_in[") and amount > 0.0
        assert f"{row} violated by" in str(exc)
        assert "blocked by" in str(exc)


class TestStepRecords:
    """The records of a step are immutable tuples that keep every field,
    in order and with its default, that the benchmark's tracing and
    workloads read."""

    def test_fields_and_immutability(self, controller, monkeypatch):
        solutions, solve = [], qp.qp_solve

        def kept(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(qp, "qp_solve", kept)
        controller.reset()
        out = controller.control_step(np.zeros(4), np.zeros(4))
        sol, = solutions
        kkt = sol.kkt_residuals
        assert type(kkt) is qp.KktRecord
        assert kkt.residuals._fields == ("stationarity", "primal_in", "complementarity")
        assert kkt.max() == max(kkt.residuals) <= 1e-8
        assert sol._fields == ("z", "status", "kkt_residuals", "iterations", "active_set",
                               "infeasibility_report")
        assert sol._field_defaults == {"iterations": 0, "active_set": (),
                                       "infeasibility_report": ()}
        assert (sol.status, sol.iterations, sol.infeasibility_report) == ("optimal", 8, ())
        assert len(sol.active_set) == 25 and sol.z.shape == (controller.ny,)
        assert out._fields == ("u", "v0", "v_a", "x_a", "predicted_xf", "cost",
                               "solver_status", "qp_iterations", "clamped", "active_rows")
        assert out._field_defaults == {"qp_iterations": 0, "clamped": False, "active_rows": 0}
        assert (out.solver_status, out.qp_iterations, out.clamped, out.active_rows) == (
            "optimal", 8, False, 25)
        assert out.u.shape == out.v0.shape == out.v_a.shape == (2,)
        assert out.x_a.shape == (4,) and out.predicted_xf.shape == (controller.N + 1, 4)
        assert type(out.cost) is float
        for record, name in ((out, "u"), (out, "cost"), (out, "clamped"), (sol, "z"),
                             (sol, "status"), (kkt, "residuals"), (kkt.residuals, "primal_in"),
                             (out, "extra")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_steady_records_hold_the_family_theta_and_z(self, monkeypatch):
        # on the benchmark's set-point schedule, the record of each solve
        # that returns z_u refers to the QP family, its step's theta and z
        # and to no other array or container: it keeps no copy of f
        workloads = bench_module("workloads")
        bundle = pipeline.build_bundle(patient_path(), controller_path())
        kept, solve = [], qp.qp_solve

        def keeping(p, *args, **kwargs):
            kept.append((p.theta, solve(p, *args, **kwargs)))
            return kept[-1][1]

        monkeypatch.setattr(qp, "qp_solve", keeping)
        workloads.setpoint_episode(bundle, workloads.SETPOINT_SCHEDULE, workloads.SETPOINT_S)
        steady = [(theta, sol) for theta, sol in kept if not sol.active_set]
        assert len(kept) == 1440 and len(steady) == 1385
        for theta, sol in steady:
            refs = gc.get_referents(sol.kkt_residuals)
            assert sum(r is bundle.controller.qp_factor for r in refs) == 1
            assert sorted(map(id, (r for r in refs if isinstance(r, np.ndarray)))) == sorted(
                map(id, (theta, sol.z)))
            assert not any(isinstance(r, (tuple, list, dict)) for r in refs)


class TestValidateOutput:
    """Each check on the QP optimum raises on a doctored solution, with the
    step at which it failed."""

    @pytest.fixture
    def ctrl(self, disc, patient, gain, v_box, ingredients):
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        ctrl.control_step(np.zeros(4), np.zeros(4))
        return ctrl

    @staticmethod
    def doctor(monkeypatch, edit):
        solve = qp.qp_solve

        def doctored(*args, **kwargs):
            sol = solve(*args, **kwargs)
            z = sol.z.copy()
            edit(z)
            return sol._replace(z=z)

        monkeypatch.setattr(qp, "qp_solve", doctored)

    def step_fails(self, ctrl, match):
        with pytest.raises(SolverInfeasibleError, match=match) as info:
            ctrl.control_step(np.zeros(4), np.zeros(4))
        assert info.value.step == 1

    def test_input_outside_tightened_box(self, ctrl, v_box, monkeypatch):
        def edit(z):
            z[:2] = v_box.upper + 1e-6

        self.doctor(monkeypatch, edit)
        self.step_fails(ctrl, "left the tightened box")

    def test_later_input_outside_tightened_box(self, ctrl, v_box, monkeypatch):
        # every v_k is checked, not only the applied v_0
        def edit(z):
            assert np.all(z[:2] <= v_box.upper + mpc.EQ_TOL)
            z[10:12] = v_box.upper + 1e-6

        self.doctor(monkeypatch, edit)
        self.step_fails(ctrl, r"tracking input v_5 = .* left the tightened box")

    def test_terminal_pair_outside_invariant_set(self, ctrl, monkeypatch):
        # t moves v_a along the steady line, far past the box X_a allows
        def edit(z):
            z[-1] += 100.0

        self.doctor(monkeypatch, edit)
        self.step_fails(ctrl, "terminal pair violates invariant-set row")

    def test_steady_output_equality(self, ctrl, monkeypatch):
        monkeypatch.setattr(ctrl, "zs", replace(ctrl.zs, c=ctrl.zs.c + 1e-6))
        self.step_fails(ctrl, "steady-output equality violated")

    def test_steady_path_checks_the_rows_not_the_solver_report(self, ctrl, monkeypatch):
        # a solve that returns z_u itself and reports no residual, on the
        # cold step from rest, where z_u leaves the box: the check reduces
        # the step's own row residuals, whatever the solver reports
        def solve(p, ws=None, max_iter=500):
            return qp.QpSolution(p.z_u, "optimal", qp.KktResiduals(0.0, 0.0, 0.0))

        monkeypatch.setattr(qp, "qp_solve", solve)
        ctrl.reset()
        with pytest.raises(SolverInfeasibleError,
                           match=r"tracking input v_0 = .* left the tightened box") as info:
            ctrl.control_step(np.zeros(4), np.zeros(4))
        assert info.value.step == 0

    def test_rejected_plan_is_not_the_next_warm_start(self, ctrl, disc, patient, gain, v_box,
                                                      ingredients, monkeypatch):
        # the step from rest ended with 25 working rows; a step whose plan
        # is rejected carries none, so the next step starts as after reset()
        assert ctrl._ws.k == 25

        def edit(z):
            z[-1] += 100.0

        with monkeypatch.context() as mp:
            self.doctor(mp, edit)
            self.step_fails(ctrl, "terminal pair violates invariant-set row")
        assert ctrl._ws.k == 0
        fresh = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                     ingredients, mpc.MpcConfig())
        # from rest again: the 25 rows would be the optimum at once, and a
        # fresh start takes 8 iterations to them
        got = ctrl.control_step(np.zeros(4), np.zeros(4))
        want = fresh.control_step(np.zeros(4), np.zeros(4))
        assert np.array_equal(got.u, want.u) and got.qp_iterations == want.qp_iterations == 8

    def test_iteration_limit_carries_no_rows(self, ctrl, monkeypatch):
        # a solve stopped by max_iter leaves rows in the working set; the
        # step raises and carries none of them
        solve = qp.qp_solve
        left = []

        def limited(p, ws):
            sol = solve(p, ws, max_iter=1)
            left.append(ws.k)
            return sol

        monkeypatch.setattr(qp, "qp_solve", limited)
        ctrl.reset()
        with pytest.raises(SolverInfeasibleError, match="stopped after 1 iterations") as info:
            ctrl.control_step(np.zeros(4), np.zeros(4))
        assert info.value.status == "max_iter" and left[0] > 0
        assert ctrl._ws.k == 0


class TestRetarget:
    def test_modest_setpoint_change_resettles(self, disc, patient, gain, v_box,
                                              zs, ingredients):
        from anesmpc import sim

        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        first = sim.simulate_closed_loop(disc, patient.pd, ctrl, 420.0)
        assert abs(first.bis[-1] - 50.0) <= 2.0
        ctrl.retarget(53.0)
        x0 = np.concatenate([first.x_f[-1], first.x_s[-1]])
        second = sim.simulate_closed_loop(disc, patient.pd, ctrl, 480.0, x0=x0)
        assert all(s == "optimal" for s in second.status)
        assert abs(second.bis[-1] - 53.0) <= 2.0
        assert abs(ctrl.zs.g_eff @ second.v_a[-1] - ctrl.zs.c) <= 1e-8

    def test_dependent_row_drops_no_working_row(self, disc, patient, gain, v_box,
                                                ingredients, monkeypatch):
        # from rest with c forced to 0.69 the QP is infeasible: the violated
        # row ends up dependent on the working set, and the entries of r at
        # rounding level must not count as a direction that drops rows
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        build = mpc.build_steady_input_set
        with monkeypatch.context() as mp:
            mp.setattr(mpc, "build_steady_input_set", lambda *a: replace(build(*a), c=0.69))
            ctrl.retarget(50.0)
        # events of the start's admissions are not logged: the add loop's
        # are counted from its first pivot of a dependent row
        events, starting = [], []
        pivot, remove = qp.WorkingSet.pivot, qp.WorkingSet.remove
        admit_all = qp.WorkingSet.admit_all

        def unlogged_admit_all(ws, rows):
            starting.append(True)
            admit_all(ws, rows)
            starting.pop()

        def logged_pivot(ws, j):
            r, d2, dependent = pivot(ws, j)
            if not starting:
                events.append(("pivot", j, dependent))
            return r, d2, dependent

        def logged_remove(ws, pos):
            events.append(("remove", ws.rows[pos], False))
            remove(ws, pos)

        monkeypatch.setattr(qp.WorkingSet, "pivot", logged_pivot)
        monkeypatch.setattr(qp.WorkingSet, "remove", logged_remove)
        monkeypatch.setattr(qp.WorkingSet, "admit_all", unlogged_admit_all)
        with pytest.raises(SolverInfeasibleError) as info:
            ctrl.control_step(np.zeros(4), np.zeros(4))
        first = next(k for k, e in enumerate(events) if e[2])
        assert events[first:] == [events[first]]  # reported at once, nothing dropped
        row, amount = info.value.report[0]
        assert row == f"A_in[{events[first][1]}]" and amount > 0.0
        assert "blocked by" in str(info.value)

    def test_large_lightening_step_infeasible_with_diagnostics(
            self, disc, patient, gain, v_box, zs, ingredients):
        # the steady-input line is a hard constraint: from a settled deep
        # state the terminal pair cannot reach a much lighter line within
        # the horizon, and the failure must surface loudly
        from anesmpc import sim

        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        first = sim.simulate_closed_loop(disc, patient.pd, ctrl, 420.0)
        ctrl.retarget(60.0)  # nonempty steady segment, unreachable in N steps
        with pytest.raises(SolverInfeasibleError) as info:
            ctrl.control_step(first.x_f[-1], first.x_s[-1])
        assert info.value.step == len(first) == 84  # counted since the run's reset

    def test_unreachable_target_rejected(self, disc, patient, gain, v_box, zs,
                                         ingredients):
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        with pytest.raises(ModelConfigError):
            ctrl.retarget(0.5)

    def test_nan_target_rejected_as_unreachable(self, disc, patient, gain, v_box,
                                                ingredients):
        # NaN lies in no range: the message names the reachable range, not
        # the input box, and the controller keeps its target
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        zs, cfg, tail = ctrl.zs, ctrl.cfg, ctrl._theta_tail.copy()
        with pytest.raises(ModelConfigError, match="outside the reachable range"):
            ctrl.retarget(float("nan"))
        assert ctrl.zs is zs and ctrl.cfg is cfg
        assert np.array_equal(ctrl._theta_tail, tail)

    def test_next_steps_match_a_controller_built_at_the_target(self, disc, patient, gain,
                                                               v_box, ingredients):
        # retarget to 45 after 400 s at 50: the next steps, from the same
        # state and no carried row, are those of a controller built at 45
        M, B = pkpd.full_step_matrices(disc)
        moved = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                     ingredients, mpc.MpcConfig())
        x = np.zeros(8)
        for _ in range(80):
            x = M @ x + B @ moved.control_step(x[:4], x[4:]).u
        moved.retarget(45.0)
        built = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                     ingredients, mpc.MpcConfig(y_ref=45.0))
        assert moved._ws.k == 0  # both start fresh: the run rests at step 80
        for k in range(30):
            a, b = moved.control_step(x[:4], x[4:]), built.control_step(x[:4], x[4:])
            for name in ("u", "v_a"):
                want = getattr(b, name)
                assert np.abs(getattr(a, name) - want).max() <= 1e-12 * np.abs(want).max(), k
            assert a.cost == pytest.approx(b.cost, rel=1e-12, abs=0.0), k
            x = M @ x + B @ a.u


class TestLyapunovDescent:
    def test_cost_non_increasing_nominal(self, controller, disc, patient):
        from anesmpc import sim

        log = sim.simulate_closed_loop(disc, patient.pd, controller, 600.0)
        diffs = np.diff(log.cost[1:])
        assert np.all(diffs <= 1e-8)

    def test_steady_consistency_along_run(self, controller, disc, patient, zs):
        from anesmpc import sim

        log = sim.simulate_closed_loop(disc, patient.pd, controller, 300.0)
        for k in range(len(log)):
            assert abs(zs.g_eff @ log.v_a[k] - zs.c) <= 1e-8
            np.testing.assert_allclose(
                log.x_a[k], controller.T @ log.v_a[k], atol=1e-10)

    def test_steady_line_holds_to_rounding(self, reference_run, zs):
        # v_a = p0 c + d t lies on the line by construction, not to a
        # solver tolerance
        log, _, _ = reference_run
        err = np.max(np.abs(log.v_a @ zs.g_eff - zs.c))
        assert err <= 4 * np.finfo(float).eps * max(1.0, abs(zs.c))


@pytest.fixture(scope="module")
def reference_run(disc, patient, gain, v_box, zs, ingredients):
    """600 s nominal run of a fresh controller, counting QP factorisations
    and keeping every QP solution."""
    factors, solutions = [], []
    init, solve = qp.QpFactor.__init__, qp.qp_solve

    def counting_init(self, *args, **kwargs):
        factors.append(self)
        init(self, *args, **kwargs)

    def capturing_solve(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp.QpFactor, "__init__", counting_init)
        mp.setattr(qp, "qp_solve", capturing_solve)
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        log = sim.simulate_closed_loop(disc, patient.pd, ctrl, 600.0)
    return log, factors, solutions


class TestQpReuse:
    def test_hessian_factored_once(self, reference_run):
        log, factors, solutions = reference_run
        assert len(solutions) == len(log) == 120
        assert len(factors) == 1

    def test_steady_phase_has_empty_active_set(self, reference_run):
        log, _, solutions = reference_run
        assert all(s.status == "optimal" for s in solutions)
        assert [k for k, s in enumerate(solutions) if k >= 30 and s.active_set] == []

    def test_reported_cost_matches_direct_recomputation(self, recorded_runs):
        # on the reference run and the setpoint schedule, the sum of squares
        # of the read-out's residual rows against the tracking cost summed
        # stage by stage in long double from each step's state, solution
        # y = (v, t) and target c
        ld = np.longdouble
        for run, (ctrl, log, reads, _, _) in recorded_runs.items():
            cfg, P, N = ctrl.cfg, ctrl.ing.P.astype(ld), ctrl.N
            A, B = ctrl.disc.A_f.astype(ld), ctrl.disc.B.astype(ld)
            g = ctrl.zs.g_eff.astype(ld)
            p0, d = g / (g @ g), np.array([-g[1], g[0]]) / np.sqrt(g @ g)
            I_A = np.eye(4, dtype=ld) - A
            a, b, q = np.asarray(cfg.vd.coeffs, ld), ld(cfg.vd.offset), ld(cfg.vd.weight)
            assert len(reads) == len(log)
            for k, (x0, y, _, c) in enumerate(reads):
                y = y.astype(ld)
                v_a = p0 * ld(c) + d * y[2 * N]
                # x_a = (I - A)^-1 B v_a, with one refinement step in long double
                x_a = np.linalg.solve(I_A.astype(float), (B @ v_a).astype(float)).astype(ld)
                x_a += np.linalg.solve(I_A.astype(float), (B @ v_a - I_A @ x_a).astype(float))
                x, cost = x0.astype(ld), q * (a @ v_a - b) ** 2
                for v_k in y[:2 * N].reshape(N, 2):
                    cost += (x - x_a) @ cfg.Q @ (x - x_a) + (v_k - v_a) @ cfg.R @ (v_k - v_a)
                    x = A @ x + B @ v_k
                cost += (x - x_a) @ P @ (x - x_a)
                assert log.cost[k] == pytest.approx(float(cost), rel=1e-12, abs=0.0), (run, k)

    def test_steady_steps_factor_nothing(self, disc, patient, gain, v_box, ingredients,
                                         monkeypatch):
        # steps >= 30 of the reference run have no tight row and take 0
        # iterations: their solves factor nothing and touch no working row.
        # The controller builds its one working set with itself, and no
        # solve builds another
        calls, per_solve = [], []
        qr, ws_solve, solve = np.linalg.qr, qp.WorkingSet.solve, qp.qp_solve
        init = qp.WorkingSet.__init__

        def counted_solve(*args, **kwargs):
            calls.clear()
            sol = solve(*args, **kwargs)
            per_solve.append((sol, list(calls)))
            return sol

        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append("qr") or qr(*a, **kw))
        monkeypatch.setattr(qp.WorkingSet, "solve",
                            lambda ws, v: calls.append("solve") or ws_solve(ws, v))
        monkeypatch.setattr(qp.WorkingSet, "__init__",
                            lambda ws, *a: calls.append("build") or init(ws, *a))
        monkeypatch.setattr(qp, "qp_solve", counted_solve)
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        assert calls == ["build"]
        sim.simulate_closed_loop(disc, patient.pd, ctrl, 600.0)
        assert len(per_solve) == 120
        # the counters see the cold first solve
        assert per_solve[0][1].count("qr") == 1 and "solve" in per_solve[0][1]
        assert not any("build" in seen for _, seen in per_solve)
        steady = per_solve[30:]
        assert all(sol.iterations == 0 and not sol.active_set for sol, _ in steady)
        assert [k for k, (_, seen) in enumerate(per_solve) if k >= 30 and seen] == []

    def test_cold_first_solve_factors_once(self, disc, patient, gain, v_box, ingredients,
                                           monkeypatch):
        # the reference run's cold first solve, from rest, admits its 25-row
        # leading run from one QR factor of the run's square-root rows
        # and one inverse, forms no Cholesky factor and takes 8 iterations
        ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                    ingredients, mpc.MpcConfig())
        calls, singles = count_linalg(monkeypatch), []
        admit = qp.WorkingSet.admit
        monkeypatch.setattr(qp.WorkingSet, "admit",
                            lambda ws, j: singles.append(len(ws.rows)) or admit(ws, j))
        out = ctrl.control_step(np.zeros(4), np.zeros(4))
        assert calls == {"qr": 1, "inv": 1}
        assert singles[0] == 25  # the rows after the run go in one at a time
        assert out.qp_iterations == 8

    def test_hot_starts_factor_once(self, monkeypatch):
        # on the 3600 s reference run, the fresh start from rest calls
        # numpy.linalg.qr and inv once each; steps 1-14 continue from the
        # working set the step before ended with and call no numpy.linalg
        # routine, nor does any step whose z_u meets every row (step 15 on)
        bundle = pipeline.build_bundle(patient_path(), controller_path())
        calls, per_step, solve = count_linalg(monkeypatch), [], qp.qp_solve

        def counted(p, ws):
            calls.clear()
            carried = ws.k
            sol = solve(p, ws)
            per_step.append((carried, sol.z is not p.z_u, dict(calls)))
            return sol

        monkeypatch.setattr(qp, "qp_solve", counted)
        sim.simulate_closed_loop(bundle.disc, bundle.patient.pd, bundle.controller, 3600.0)
        assert len(per_step) == 720
        assert [k for k, (_, active, _) in enumerate(per_step) if active] == list(range(15))
        assert [k for k, (carried, _, _) in enumerate(per_step) if carried] == list(range(1, 16))
        assert per_step[0] == (0, True, {"qr": 1, "inv": 1})
        for k, (_, _, seen) in enumerate(per_step[1:], start=1):
            assert seen == {}, (k, seen)


@pytest.fixture(scope="module")
def recorded_runs():
    """The 600 s reference run and the benchmark's set-point schedule on
    the shipped files, keeping every read-out (x0, y, result, c at the
    step, from theta's tail), every QP (problem, solution) and every row
    residual vector the output check reads."""
    workloads = bench_module("workloads")
    read_out, solve = mpc.Controller.read_out, qp.qp_solve
    validate = mpc.Controller._validate_output
    runs = {}

    def recording_read_out(ctrl, y, p):
        out = read_out(ctrl, y, p)
        assert np.array_equal(p.theta[ctrl.n:], [ctrl.zs.c, 1.0])
        reads.append((p.theta[:ctrl.n].copy(), y.copy(), out.copy(), p.theta[ctrl.n]))
        return out

    def recording_solve(p, *args, **kwargs):
        solves.append((p, solve(p, *args, **kwargs)))
        return solves[-1][1]

    def recording_validate(ctrl, y, v_a, residuals):
        checks.append(residuals.copy())
        validate(ctrl, y, v_a, residuals)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpc.Controller, "read_out", recording_read_out)
        mp.setattr(qp, "qp_solve", recording_solve)
        mp.setattr(mpc.Controller, "_validate_output", recording_validate)
        for name, episode in (
                ("reference", lambda b: pipeline.closed_loop(b, 600.0)),
                ("setpoint", lambda b: workloads.setpoint_episode(
                    b, workloads.SETPOINT_SCHEDULE, workloads.SETPOINT_S))):
            reads, solves, checks = [], [], []
            bundle = pipeline.build_bundle(patient_path(), controller_path())
            log = episode(bundle)
            runs[name] = bundle.controller, log, reads, solves, checks
    return runs


class TestReadOut:
    @pytest.mark.parametrize("run", ["reference", "setpoint"])
    def test_read_out_matches_direct_formulas(self, recorded_runs, run):
        # each block of the one precomputed product against its formula, and
        # the row residuals the output check reads against A_in y - b_in
        ctrl, log, reads, solves, checks = recorded_runs[run]
        assert len(reads) == len(solves) == len(checks) == len(log)
        assert len(log) == {"reference": 120, "setpoint": 1440}[run]
        mN, T = ctrl.m * ctrl.N, ctrl.T
        Gx, S = mpc.prediction_maps(ctrl.disc.A_f, ctrl.disc.B, ctrl.N)

        def close(got, want):
            return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        for k, ((x0, y, out, c), (p, _), residuals) in enumerate(zip(reads, solves, checks)):
            v_a = ctrl.p0 * c + ctrl.d * y[mN]
            xs = Gx @ x0 + S @ y[:mN]
            assert close(out[ctrl._va_rows], v_a), k
            assert close(out[ctrl._x_rows], xs), k
            assert close(out[ctrl._xa_rows], T @ v_a), k
            assert np.array_equal(log.v_a[k], out[ctrl._va_rows]), k
            assert close(residuals, ctrl.A_in @ y - p.b_in), k

    @pytest.mark.parametrize("run", ["reference", "setpoint"])
    def test_empty_working_set_reports_its_own_residuals(self, recorded_runs, run):
        # a solve that ends with no working row reports, from c and H z,
        # the residuals the full recomputation gives at (z, 0)
        _, _, _, solves, _ = recorded_runs[run]
        empty = [(p, sol) for p, sol in solves if not sol.active_set]
        assert len(empty) >= {"reference": 90, "setpoint": 1380}[run]
        for p, sol in empty:
            assert sol.kkt_residuals.residuals == kkt_residuals(p, sol.z, np.zeros(p.b_in.size))


class TestStepMap:
    """The step map's z_u and row residuals against the QP each step solved,
    recomputed directly from that step's f and b_in."""

    @pytest.mark.parametrize("run", ["reference", "setpoint"])
    def test_z_u_and_residuals_match_a_direct_solve(self, recorded_runs, run):
        _, log, _, solves, _ = recorded_runs[run]
        assert len(solves) == len(log)
        for k, (p, sol) in enumerate(solves):
            z_u = np.linalg.solve(p.H, -p.f)
            c = p.A_in @ z_u - p.b_in
            assert np.abs(p.z_u - z_u).max() <= 1e-12 * np.abs(z_u).max(), k
            assert np.abs(p.c - c).max() <= 1e-12 * np.abs(p.b_in).max(), k
            # the same empty / non-empty decision on either
            steady = p.c.max() <= qp._FEAS_TOL
            assert steady == (c.max() <= qp._FEAS_TOL), k
            assert steady == (sol.iterations == 0 and not sol.active_set), k
            assert steady == (sol.z is p.z_u), k
            assert sol.z.base is None, k  # a kept solution keeps no row of the step map
            assert sol.kkt_residuals.residuals.stationarity <= 1e-10, k


@pytest.fixture(scope="module")
def carried_runs():
    """The 3600 s reference run and the benchmark's set-point schedule on
    the shipped files, keeping each QP, its solution and, when the step
    starts from carried rows, those rows and their factor Li."""
    workloads = bench_module("workloads")
    solve = qp.qp_solve
    runs = {}

    def recording(p, ws):
        start = (ws.rows, ws.Li.copy()) if ws.k else None
        solves.append((p, solve(p, ws), start))
        return solves[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "qp_solve", recording)
        for name, episode in (
                ("reference", lambda b: pipeline.closed_loop(b, 3600.0)),
                ("setpoint", lambda b: workloads.setpoint_episode(
                    b, workloads.SETPOINT_SCHEDULE, workloads.SETPOINT_S))):
            solves = []
            bundle = pipeline.build_bundle(patient_path(), controller_path())
            episode(bundle)
            runs[name] = bundle.controller, solves
    return runs


class TestCarriedWorkingSet:
    """Each step continues from the working set the previous accepted
    step ended with; reset(), a step that returns z_u and a step that
    raises leave no row to carry."""

    @pytest.mark.parametrize("run", ["reference", "setpoint"])
    def test_carried_solves_match_fresh_starts(self, carried_runs, run):
        # every solve against a fresh cold-rule solve of the same QP, and
        # the factor of every carried start against its block of G, so
        # that no drift builds up along a chain
        ctrl, solves = carried_runs[run]
        G = ctrl.qp_factor.G
        assert len(solves) == {"reference": 720, "setpoint": 1440}[run]
        carried = 0
        for k, (p, sol, start) in enumerate(solves):
            fresh = qp.qp_solve(p)
            assert sol.status == fresh.status == "optimal", k
            assert np.abs(sol.z - fresh.z).max() <= 1e-12, k
            if start is not None:
                carried += 1
                rows, Li = start
                np.testing.assert_allclose(Li.T @ Li @ G[np.ix_(rows, rows)], np.eye(len(rows)),
                                           rtol=0, atol=1e-10, err_msg=str(k))
        assert carried == {"reference": 15, "setpoint": 55}[run]

    def test_reset_carries_no_rows(self, disc, patient, gain, v_box, ingredients):
        # an episode cut off mid-chain, then a full one: the full episode
        # is that of a fresh controller, bit for bit, as the benchmark's
        # repeated episodes require
        workloads = bench_module("workloads")
        M, B = pkpd.full_step_matrices(disc)

        def build():
            return mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                        ingredients, mpc.MpcConfig())

        ctrl, x = build(), np.zeros(8)
        for _ in range(6):
            x = M @ x + B @ ctrl.control_step(x[:4], x[4:]).u
        assert ctrl._ws.k == 24
        ctrl.reset()
        assert ctrl._ws.k == 0
        for episode in range(2):
            assert workloads.same_log(sim.simulate_closed_loop(disc, patient.pd, ctrl, 600.0),
                                      sim.simulate_closed_loop(disc, patient.pd, build(), 600.0))

    def test_retarget_mid_chain_matches_a_fresh_start(self, disc, patient, gain, v_box,
                                                      ingredients):
        # BIS 50 -> 45 at induction step 5, whose QP starts from the 24
        # rows step 4 ended with: the same step as from no carried row
        M, B = pkpd.full_step_matrices(disc)
        moved, fresh = (mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                             ingredients, mpc.MpcConfig()) for _ in range(2))
        x = np.zeros(8)
        for _ in range(5):
            x = M @ x + B @ moved.control_step(x[:4], x[4:]).u
        moved.retarget(45.0)
        fresh.retarget(45.0)
        assert moved._ws.k == 24 and fresh._ws.k == 0
        a, b = moved.control_step(x[:4], x[4:]), fresh.control_step(x[:4], x[4:])
        assert a.solver_status == b.solver_status == "optimal"
        for name in ("u", "v0", "v_a"):
            want = getattr(b, name)
            assert np.abs(getattr(a, name) - want).max() <= 1e-12 * np.abs(want).max(), name
        assert a.cost == pytest.approx(b.cost, rel=1e-12, abs=0.0)
        assert a.active_rows == b.active_rows > 0
