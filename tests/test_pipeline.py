"""Assembly from in-memory configs and from files gives the same controller,
the shipped files give the reference terminal set, and random patients
each meet one of three known outcomes."""

from pathlib import Path

import numpy as np
import pytest

from anesmpc import mpc, pipeline, pkpd
from anesmpc.errors import ModelConfigError, SolverInfeasibleError

from conftest import controller_path, patient_path, random_pk
from oracles import load_polyhedron


@pytest.fixture(scope="module")
def from_files():
    return pipeline.build_bundle(patient_path(), controller_path())


def test_in_memory_build_matches_file_build(from_files):
    bundle = pipeline.build(pkpd.load_patient(patient_path()),
                            mpc.load_controller_config(controller_path()))
    ctrl, ref = bundle.controller, from_files.controller
    for name in ("H", "A_in", "step_map", "_theta_tail"):
        np.testing.assert_array_equal(getattr(ctrl, name), getattr(ref, name), err_msg=name)
    np.testing.assert_array_equal(ctrl.qp_factor.B, ref.qp_factor.B)


REFERENCE_X_A = Path(__file__).parent / "data" / "reference_X_a.poly"


def test_shipped_build_reproduces_reference_X_a(from_files):
    # tests/data/reference_X_a.poly holds X_a of the shipped patient and
    # controller files, written with geometry.save_polyhedron
    ref = load_polyhedron(REFERENCE_X_A)
    ing = from_files.ingredients
    assert ing.X_a.nrows == ref.nrows == 44
    assert ing.determination_index == 11
    # each row to 1e-12 relative to its largest entry
    rows, ref_rows = (np.column_stack([P.F, P.g]) for P in (ing.X_a, ref))
    scale = np.max(np.abs(ref_rows), axis=1, keepdims=True)
    assert np.all(np.abs(rows - ref_rows) <= 1e-12 * scale)


OUTCOMES = {"settles": [0, 1, 2, 3, 6, 8, 14, 18, 20, 21, 22, 23],
            "no steady input": [5, 7, 10, 11, 12, 13, 15, 16, 17, 19],
            "infeasible at step 0": [4, 9]}


@pytest.mark.parametrize("outcome, seed", [(o, s) for o, seeds in OUTCOMES.items()
                                           for s in seeds])
def test_random_patient_outcome(outcome, seed):
    # conftest.random_pk patients (propofol, then remifentanil) with the
    # shipped PD and controller config over 1800 s: each one settles at
    # BIS 50 with every solve optimal, or raises one of two named errors
    rng = np.random.default_rng(seed)
    patient = pkpd.PatientModel(random_pk(rng), random_pk(rng),
                                pkpd.load_patient(patient_path()).pd, f"random {seed}")
    cfg = mpc.load_controller_config(controller_path())
    if outcome == "no steady input":
        with pytest.raises(ModelConfigError, match="no steady input for BIS 50"):
            pipeline.build(patient, cfg)
        return
    bundle = pipeline.build(patient, cfg)
    if outcome == "infeasible at step 0":
        with pytest.raises(SolverInfeasibleError) as info:
            pipeline.closed_loop(bundle, 1800.0)
        assert info.value.step == 0
        return
    log = pipeline.closed_loop(bundle, 1800.0)
    assert all(status == "optimal" for status in log.status)
    assert np.isfinite(log.u).all() and np.isfinite(log.cost).all()
    assert abs(log.bis[-1] - 50.0) <= 0.01
