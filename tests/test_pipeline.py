"""Assembly from in-memory configs and from files gives the same controller."""

import numpy as np
import pytest

from anesmpc import mpc, pipeline, pkpd

from conftest import controller_path, patient_path


@pytest.fixture(scope="module")
def from_files():
    return pipeline.build_bundle(patient_path(), controller_path())


def test_in_memory_build_matches_file_build(from_files):
    bundle = pipeline.build(pkpd.load_patient(patient_path()),
                            mpc.load_controller_config(controller_path()))
    for name in ("H", "A_in", "b_in_base", "A_eq", "b_eq"):
        np.testing.assert_array_equal(getattr(bundle.controller, name),
                                      getattr(from_files.controller, name), err_msg=name)


def test_given_ingredients_are_used(from_files, monkeypatch):
    def fail(*a, **k):
        raise AssertionError("ingredients recomputed")

    monkeypatch.setattr(pipeline.terminal, "compute_terminal_ingredients", fail)
    bundle = pipeline.build(from_files.patient, from_files.file_cfg,
                            ingredients=from_files.ingredients)
    assert bundle.ingredients is from_files.ingredients
    np.testing.assert_array_equal(bundle.controller.A_in, from_files.controller.A_in)


def test_saved_ingredients_load_back(from_files, tmp_path):
    pipeline.save_ingredients(tmp_path, from_files, patient_path(), controller_path())
    ing = pipeline.load_ingredients(tmp_path, patient_path(), controller_path(),
                                    from_files.file_cfg.mpc.lam)
    ref = from_files.ingredients
    for name in ("K", "P", "psi", "A_w"):
        np.testing.assert_array_equal(getattr(ing, name), getattr(ref, name), err_msg=name)
    np.testing.assert_array_equal(ing.X_a.F, ref.X_a.F)
    np.testing.assert_array_equal(ing.X_a.g, ref.X_a.g)
    assert ing.determination_index == ref.determination_index
