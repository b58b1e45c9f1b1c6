"""End-to-end pipeline on perturbed patients: the construction chain and
the closed loop must stay healthy away from the shipped parameter set."""

import numpy as np
import pytest

from anesmpc import mpc, pipeline, pkpd, sim

from conftest import U_BOUNDS, perturbed, rollout_compensation_max, steady_state_compensation
from oracles import simulate_nominal_fast


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_pipeline_on_perturbed_patient(patient, seed):
    rng = np.random.default_rng(seed)
    pat = perturbed(patient, rng)
    file_cfg = mpc.ControllerFileConfig(
        mpc=mpc.MpcConfig(), Ts=5.0, U=U_BOUNDS, m_bar=np.array([0.12, 0.27]),
        settling_band=2.0, plant_substeps=1)
    bundle = pipeline.build(pat, file_cfg)
    disc, ctrl = bundle.disc, bundle.controller
    assert bundle.ingredients.determination_index <= 500
    log = sim.simulate_closed_loop(disc, pat.pd, ctrl, 600.0)
    assert all(s == "optimal" for s in log.status)
    assert np.all(np.diff(log.cost[1:]) <= 1e-8)
    met = sim.compute_metrics(log, 50.0, 2.0)
    # different bodies settle at different speeds; the loop must still
    # drive the BIS into the safe band and hold it
    assert met.undershoot >= 40.0
    assert abs(log.bis[-1] - 50.0) <= 2.0
    nominal = simulate_nominal_fast(disc, log.v)
    np.testing.assert_allclose(nominal[:-1], log.x_f, atol=1e-9)


def test_hour_long_soak(patient, disc, gain, v_box, ingredients):
    # late-run health: the warm-started active set must stay exact and
    # the cost monotone long after the transient has died out
    ctrl = mpc.build_controller(disc, patient.pd, gain, v_box, U_BOUNDS,
                                ingredients, mpc.MpcConfig())
    log = sim.simulate_closed_loop(disc, patient.pd, ctrl, 3600.0)
    assert all(s == "optimal" for s in log.status)
    assert np.all(np.diff(log.cost[1:]) <= 1e-8)
    assert np.all(np.abs(log.bis[120:] - 50.0) <= 2.0)
    assert np.all(log.u >= U_BOUNDS.lower - 1e-12)
    assert np.all(log.u <= U_BOUNDS.upper + 1e-12)
    # the steady input keeps drifting toward the offset-cost minimizer
    gap = np.abs(log.v_a[:, 0] - log.v_a[:, 1] / 2)
    assert gap[-1] < gap[len(gap) // 3]


def test_disturbance_modes_consistent_on_perturbed_patient(patient):
    # the closed-form steady-state bound (Cl2+Cl3)/Cl1 * u_max is the limit
    # of a rollout from rest at u_max
    rng = np.random.default_rng(9)
    pat = perturbed(patient, rng)
    cont = pkpd.build_continuous(pat.pk_propofol, pat.pk_remifentanil)
    disc = pkpd.discretize_euler(cont, 5.0)
    wc = steady_state_compensation(pat, U_BOUNDS)
    seen = rollout_compensation_max(disc, U_BOUNDS)
    assert np.all(seen <= wc * (1.0 + 1e-12))
    np.testing.assert_allclose(seen, wc, rtol=1e-6)
    assert np.all(seen >= 0.0)
