import numpy as np
import pytest

from anesmpc import compensation, pkpd
from anesmpc.compensation import InputBox
from anesmpc.errors import ModelConfigError

from conftest import (M_BAR_PAPER, U_BOUNDS, random_pk, rollout_compensation_max,
                      steady_state_compensation)


class TestCompensationGain:
    def test_structural_closed_form(self, patient, cont):
        # D = -[[Cl2p, Cl3p, 0, 0], [0, 0, Cl2r, Cl3r]] in per-second units
        D = compensation.compensation_gain(cont).D
        pk_p, pk_r = patient.pk_propofol, patient.pk_remifentanil
        expected = -np.array([
            [pk_p.Cl2, pk_p.Cl3, 0.0, 0.0],
            [0.0, 0.0, pk_r.Cl2, pk_r.Cl3],
        ])
        np.testing.assert_allclose(D, expected, atol=1e-14)

    def test_least_squares_oracle(self, cont):
        D = compensation.compensation_gain(cont).D
        D_ref = -np.linalg.lstsq(cont.B, cont.A_s, rcond=None)[0]
        np.testing.assert_allclose(D, D_ref, atol=1e-12)

    def test_cancellation_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cont = pkpd.build_continuous(random_pk(rng), random_pk(rng))
            D = compensation.compensation_gain(cont).D
            assert np.max(np.abs(cont.A_s + cont.B @ D)) <= 1e-12
            assert np.all(D <= 0.0)

    def test_zero_slow_coupling_gives_zero_gain(self, cont):
        from dataclasses import replace

        quiet = replace(cont, A_s=np.zeros((4, 4)))
        assert np.all(compensation.compensation_gain(quiet).D == 0.0)

    def test_continuous_vs_discrete_identical(self, cont, disc):
        Dc = compensation.compensation_gain(cont).D
        Dd = compensation.compensation_gain(disc).D
        np.testing.assert_allclose(Dc, Dd, atol=1e-12)

    def test_one_step_cancellation_property(self, disc, gain):
        # u = v + D x_s makes the full fast update match the nominal one
        rng = np.random.default_rng(1)
        for _ in range(100):
            xf = rng.uniform(0.0, 5.0, size=4)
            xs = rng.uniform(0.0, 5.0, size=4)
            v = rng.uniform(0.0, 5.0, size=2)
            u = v + gain.D @ xs
            full = disc.A_f @ xf + disc.B @ u + disc.A_s @ xs
            nominal = disc.A_f @ xf + disc.B @ v
            np.testing.assert_allclose(full, nominal, atol=1e-12)


class TestDisturbanceBound:
    def test_fixed_passthrough(self):
        m = compensation.disturbance_bound(M_BAR_PAPER)
        np.testing.assert_array_equal(m, M_BAR_PAPER)

    def test_fixed_requires_vector(self):
        for m_bar in (None, [0.12], [0.12, 0.27, 0.1], [-0.1, 0.27], [np.nan, 0.27]):
            with pytest.raises(ModelConfigError, match="'m_bar'"):
                compensation.disturbance_bound(m_bar)

    def test_worst_case_dominates_simulated(self, patient, disc):
        # seen is a running maximum of a rollout from rest at u_max: no step
        # of it exceeds the steady-state bound (1e-12 allows for rounding only)
        wc = steady_state_compensation(patient, U_BOUNDS)
        seen = rollout_compensation_max(disc, U_BOUNDS)
        assert np.all(seen <= wc * (1.0 + 1e-12))

    def test_simulated_approaches_global_equilibrium(self, patient, disc):
        # the slow states climb monotonically to the all-equal equilibrium
        # u_max/Cl1, so the trajectory maximum is the steady-state bound itself
        wc = steady_state_compensation(patient, U_BOUNDS)
        seen = rollout_compensation_max(disc, U_BOUNDS)
        np.testing.assert_allclose(seen, wc, rtol=1e-6)


class TestTrackingInputSet:
    def test_paper_numbers(self):
        V = compensation.tracking_input_set(U_BOUNDS, M_BAR_PAPER)
        np.testing.assert_allclose(V.lower, [0.12, 0.27])
        np.testing.assert_allclose(V.upper, [6.67, 16.67])

    def test_pontryagin_grid_oracle(self):
        # V = U (-) M must satisfy: v + m in U for every m on a grid of M
        V = compensation.tracking_input_set(U_BOUNDS, M_BAR_PAPER)
        rng = np.random.default_rng(2)
        for _ in range(200):
            v = rng.uniform(V.lower, V.upper)
            for mp in np.linspace(-M_BAR_PAPER[0], 0.0, 5):
                for mr in np.linspace(-M_BAR_PAPER[1], 0.0, 5):
                    u = v + np.array([mp, mr])
                    assert np.all(u >= U_BOUNDS.lower - 1e-12)
                    assert np.all(u <= U_BOUNDS.upper + 1e-12)
        # and maximality: anything below V.lower breaks for the extreme m
        v_bad = V.lower - 1e-6
        assert np.any(v_bad - M_BAR_PAPER < U_BOUNDS.lower)

    def test_zero_bound_returns_u(self):
        V = compensation.tracking_input_set(U_BOUNDS, np.zeros(2))
        np.testing.assert_array_equal(V.lower, U_BOUNDS.lower)
        np.testing.assert_array_equal(V.upper, U_BOUNDS.upper)

    def test_degenerate_single_point(self):
        U = InputBox(lower=[0.0, 0.0], upper=[1.0, 2.0])
        V = compensation.tracking_input_set(U, [1.0, 2.0])
        np.testing.assert_array_equal(V.lower, V.upper)

    def test_too_tight_raises(self):
        U = InputBox(lower=[0.0, 0.0], upper=[1.0, 1.0])
        with pytest.raises(ModelConfigError, match="too tight"):
            compensation.tracking_input_set(U, [1.5, 0.5])


class TestAdmissibility:
    def test_compensated_input_stays_in_u(self, disc, gain, v_box):
        # any slow state whose compensation honors the bound keeps u in U
        rng = np.random.default_rng(3)
        D = gain.D
        for _ in range(100):
            v = rng.uniform(v_box.lower, v_box.upper)
            # slow states scaled so |D x_s| <= m_bar componentwise
            xs = rng.uniform(0.0, 1.0, size=4)
            m = D @ xs
            scale = np.min(np.where(np.abs(m) > 0, M_BAR_PAPER / np.maximum(np.abs(m), 1e-15), np.inf))
            xs = xs * min(1.0, scale) * rng.uniform(0.0, 1.0)
            u = v + D @ xs
            assert np.all(u >= U_BOUNDS.lower - 1e-9)
            assert np.all(u <= U_BOUNDS.upper + 1e-9)
