"""Assembly from in-memory configs and from files gives the same controller,
and the shipped files give the reference terminal set."""

from pathlib import Path

import numpy as np
import pytest

from anesmpc import mpc, pipeline, pkpd

from conftest import controller_path, patient_path
from oracles import load_polyhedron


@pytest.fixture(scope="module")
def from_files():
    return pipeline.build_bundle(patient_path(), controller_path())


def test_in_memory_build_matches_file_build(from_files):
    bundle = pipeline.build(pkpd.load_patient(patient_path()),
                            mpc.load_controller_config(controller_path()))
    for name in ("H", "A_in", "b_in_base", "b_in_c", "step_map", "step_c"):
        np.testing.assert_array_equal(getattr(bundle.controller, name),
                                      getattr(from_files.controller, name), err_msg=name)


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
