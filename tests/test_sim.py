import math
from pathlib import Path

import numpy as np
import pytest

from anesmpc import compensation, mpc, pipeline, pkpd, qp, sim
from anesmpc.errors import ModelConfigError

from conftest import U_BOUNDS, controller_path, path_digest, patient_path
from oracles import simulate_nominal_fast

# 600 s run of the shipped patient and tuning, at full precision: the
# numeric columns of run.csv without solve_ms, every status "optimal"
REFERENCE_RUN = Path(__file__).parent / "data" / "reference_run.csv"


@pytest.fixture(scope="module")
def controller(disc, patient, gain, v_box, ingredients):
    return mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                ingredients, mpc.MpcConfig())


@pytest.fixture(scope="module")
def closed_loop_log(disc, patient, controller):
    return sim.simulate_closed_loop(disc, patient.pd, controller, 600.0)


def open_loop(disc, u, steps, x0=None):
    M, B = pkpd.full_step_matrices(disc)
    x = np.zeros(8) if x0 is None else np.asarray(x0, float)
    traj = [x]
    for _ in range(steps):
        x = M @ x + B @ u
        traj.append(x)
    return np.array(traj)


class TestOpenLoopPhysics:
    def test_zero_input_stays_at_zero(self, disc, patient):
        traj = open_loop(disc, np.zeros(2), 100)
        assert np.all(traj == 0.0)
        assert pkpd.bis_output(traj[-1][:4], patient.pd) == pytest.approx(patient.pd.E0)

    def test_max_input_reaches_global_equilibrium(self, disc, patient):
        # closed form: every compartment converges to u_max/Cl1 per drug
        u = np.array(U_BOUNDS.upper)
        traj = open_loop(disc, u, 400000)
        pk_p, pk_r = patient.pk_propofol, patient.pk_remifentanil
        x1p = u[0] / pk_p.Cl1
        x1r = u[1] / pk_r.Cl1
        expected = np.array([x1p, x1p, x1r, x1r, x1p, x1p, x1r, x1r])
        np.testing.assert_allclose(traj[-1], expected, rtol=1e-6)

    def test_nonnegativity_under_random_inputs(self, disc):
        rng = np.random.default_rng(0)
        x = np.zeros(8)
        M, B = pkpd.full_step_matrices(disc)
        for _ in range(500):
            x = M @ x + B @ rng.uniform(0.0, U_BOUNDS.upper)
            assert np.all(x >= 0.0)


class TestClosedLoop:
    def test_settles_inside_band(self, closed_loop_log):
        met = sim.compute_metrics(closed_loop_log, 50.0, 2.0)
        assert met.settling_time <= 300.0
        assert met.undershoot >= 40.0

    def test_log_invariants(self, closed_loop_log):
        log = closed_loop_log
        assert np.all(np.diff(log.t) == 5.0)
        assert np.all(log.x_f >= 0.0)
        assert np.all(log.x_s >= 0.0)
        assert np.all(log.u >= U_BOUNDS.lower - 1e-12)
        assert np.all(log.u <= U_BOUNDS.upper + 1e-12)

    def test_applied_input_identity(self, closed_loop_log, gain):
        # u = v + D x_s at every logged step, no clamping in nominal run
        log = closed_loop_log
        u_expected = log.v + log.x_s @ gain.D.T
        np.testing.assert_allclose(log.u, u_expected, atol=1e-12)
        assert log.clamped.shape == (120,) and not log.clamped.any()

    def test_compensation_equivalence(self, closed_loop_log, disc):
        # replaying the logged v through the nominal 4-state model must
        # reproduce the full plant's fast states
        log = closed_loop_log
        nominal = simulate_nominal_fast(disc, log.v)
        np.testing.assert_allclose(nominal[:-1], log.x_f, atol=1e-9)

    def test_all_solves_optimal(self, closed_loop_log):
        assert all(s == "optimal" for s in closed_loop_log.status)

    def test_first_row_is_awake_patient(self, closed_loop_log, patient):
        assert closed_loop_log.bis[0] == pytest.approx(patient.pd.E0)
        assert closed_loop_log.t[0] == 0.0

    def test_duration_must_be_multiple_of_ts(self, disc, patient, controller):
        with pytest.raises(ModelConfigError):
            sim.simulate_closed_loop(disc, patient.pd, controller, 601.0)

    def test_negative_x0_rejected(self, disc, patient, controller):
        x0 = np.zeros(8)
        x0[0] = -0.1
        with pytest.raises(ModelConfigError):
            sim.simulate_closed_loop(disc, patient.pd, controller, 10.0, x0=x0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", [0, 6])
    def test_non_finite_x0_rejected(self, disc, patient, controller, bad, entry):
        # named as the start's fault, not the controller's fast or slow state
        x0 = np.zeros(8)
        x0[entry] = bad
        with pytest.raises(ModelConfigError, match="x0 must be 8 finite nonnegative"):
            sim.simulate_closed_loop(disc, patient.pd, controller, 10.0, x0=x0)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "2", None])
    def test_plant_substeps_must_be_a_positive_integer(self, disc, cont, patient, controller,
                                                        bad):
        # named as the argument's fault: 0 divided by zero, -1 blamed Ts and
        # 2.5 raised a TypeError
        with pytest.raises(ModelConfigError, match="^plant_substeps must be an integer >= 1"):
            sim.simulate_closed_loop(disc, patient.pd, controller, 10.0,
                                     plant_substeps=bad, cont=cont)

    def test_substepping_needs_continuous(self, disc, patient, controller):
        with pytest.raises(ModelConfigError, match="substepping"):
            sim.simulate_closed_loop(disc, patient.pd, controller, 10.0,
                                     plant_substeps=5)

    def test_substepped_plant_close_to_nominal(self, disc, cont, patient,
                                               controller):
        log = sim.simulate_closed_loop(disc, patient.pd, controller, 300.0,
                                       plant_substeps=5, cont=cont)
        met = sim.compute_metrics(log, 50.0, 5.0)
        assert met.undershoot > 45.0  # same qualitative behavior


class TestMetrics:
    def make_log(self, bis, v=None, v_a=None):
        n = len(bis)
        zeros2 = np.zeros((n, 2))
        return sim.SimLog(
            t=np.arange(n) * 5.0,
            bis=np.asarray(bis, float),
            u=zeros2.copy(),
            v=zeros2.copy() if v is None else np.asarray(v, float),
            v_a=zeros2.copy() if v_a is None else np.asarray(v_a, float),
            x_f=np.zeros((n, 4)),
            x_s=np.zeros((n, 4)),
            x_a=np.zeros((n, 4)),
            cost=np.zeros(n),
            status=["optimal"] * n,
            solve_ms=np.zeros(n),
        )

    def test_constant_at_reference(self):
        log = self.make_log([50.0] * 10)
        met = sim.compute_metrics(log, 50.0, 2.0)
        assert met.settling_time == 0.0
        assert met.undershoot == 50.0
        assert met.terminal_error == 0.0

    def test_exit_at_last_sample_never_settles(self):
        bis = [50.0] * 9 + [55.0]
        met = sim.compute_metrics(self.make_log(bis), 50.0, 2.0)
        assert math.isinf(met.settling_time)

    def test_late_entry(self):
        bis = [80.0, 60.0, 51.0, 50.5, 50.0]
        met = sim.compute_metrics(self.make_log(bis), 50.0, 2.0)
        assert met.settling_time == 10.0

    def test_settles_after_the_last_exit(self):
        # in at 10 s, out at 20 s, back in at 25 s: the last exit counts
        bis = [80.0, 60.0, 51.0, 50.5, 53.0, 50.0, 49.0, 50.0]
        met = sim.compute_metrics(self.make_log(bis), 50.0, 2.0)
        assert met.settling_time == 25.0

    def test_empty_log_rejected(self):
        with pytest.raises(ModelConfigError):
            sim.compute_metrics(self.make_log([]), 50.0, 2.0)


class TestCsv:
    def test_header_and_shape(self, closed_loop_log, tmp_path):
        path = tmp_path / "run.csv"
        closed_loop_log.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == sim.CSV_HEADER
        assert len(lines) == 1 + len(closed_loop_log)
        assert len(lines[1].split(",")) == 18

    def test_deterministic_apart_from_timing(self, disc, patient, controller,
                                             tmp_path):
        # identical runs agree byte for byte on every field but solve_ms
        logs = []
        for name in ("a.csv", "b.csv"):
            controller.reset()
            log = sim.simulate_closed_loop(disc, patient.pd, controller, 100.0)
            p = tmp_path / name
            log.to_csv(p)
            logs.append(p.read_text().splitlines())
        for la, lb in zip(*logs):
            assert la.rsplit(",", 1)[0] == lb.rsplit(",", 1)[0]


class TestReferenceRun:
    def test_matches_committed_run(self):
        bundle = pipeline.build_bundle(patient_path(), controller_path())
        log = sim.simulate_closed_loop(bundle.disc, bundle.patient.pd,
                                       bundle.controller, 600.0)
        header = REFERENCE_RUN.read_text().splitlines()[0]
        assert header == sim.CSV_HEADER.removesuffix(",status,solve_ms")
        ref = np.loadtxt(REFERENCE_RUN, delimiter=",", skiprows=1)
        got = np.column_stack([log.t, log.bis, log.u, log.v, log.v_a, log.x_f, log.x_s])
        assert got.shape == ref.shape == (120, 16)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)
        assert log.status == ["optimal"] * 120
        assert sim.compute_metrics(log, 50.0, 2.0).settling_time == 265.0

    def test_qp_iterations_per_step(self, monkeypatch):
        # the cold first solve admits the rows violated at the unconstrained
        # minimiser at once; steps 1-14 continue from the working set the
        # step before ended with, and a step whose z_u meets every row
        # returns it at once (step 15, which drops the one row carried into
        # it). Each step's iterations and active set are pinned as the
        # digest of the run's path.
        bundle = pipeline.build_bundle(patient_path(), controller_path())
        active, solve = [], qp.qp_solve

        def recording(*args, **kwargs):
            sol = solve(*args, **kwargs)
            active.append(sol.active_set)
            return sol

        monkeypatch.setattr(qp, "qp_solve", recording)
        log = sim.simulate_closed_loop(bundle.disc, bundle.patient.pd,
                                       bundle.controller, 3600.0)
        assert log.qp_iterations.shape == (720,)
        assert log.qp_iterations[0] == 8
        assert log.qp_iterations[15] == 0
        assert log.qp_iterations.sum() == 36
        assert path_digest(zip(log.qp_iterations.tolist(), active)) == "8717842a2d0f3ae2"

    def test_active_rows_per_step(self):
        # the size of each step's final working set, kept beside its
        # iterations: the cold first solve ends on 25 rows, the working
        # set shrinks over steps 1-14, and every later step returns z_u
        bundle = pipeline.build_bundle(patient_path(), controller_path())
        log = sim.simulate_closed_loop(bundle.disc, bundle.patient.pd,
                                       bundle.controller, 3600.0)
        assert log.active_rows.shape == log.qp_iterations.shape == (720,)
        assert log.active_rows[:15].tolist() == [25, 25, 25, 25, 24, 24, 21, 16, 13, 11, 10,
                                                 8, 5, 4, 1]
        assert not log.active_rows[15:].any()
