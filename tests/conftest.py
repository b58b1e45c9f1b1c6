import dataclasses
import hashlib
import importlib
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from anesmpc import compensation, pkpd, terminal

Q_DIAG = np.diag([1.0, 10.0, 1.0, 10.0])
R_EYE = np.eye(2)
U_BOUNDS = compensation.InputBox(lower=[0.0, 0.0], upper=[6.67, 16.67])
M_BAR_PAPER = np.array([0.12, 0.27])


def patient_path():
    return resources.files("anesmpc") / "data" / "patient_eleveld_f56.ini"


def controller_path():
    return resources.files("anesmpc") / "data" / "controller.ini"


BENCH = Path(__file__).resolve().parents[1] / "bench"


def path_digest(paths):
    """The first 16 hex digits of the sha256 of a run's solver path: the
    QP iterations and the sorted active set of each step, in order."""
    text = ";".join(f"{it}:{','.join(map(str, rows))}" for it, rows in paths)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def count_linalg(monkeypatch):
    """Count the calls of each numpy.linalg function, by name, into the
    returned dict."""
    calls = {}
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            def counting(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
    return calls


def bench_module(name):
    """A module of the benchmark in bench/, imported by name."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="session")
def patient():
    return pkpd.load_patient(patient_path())


@pytest.fixture(scope="session")
def cont(patient):
    return pkpd.build_continuous(patient.pk_propofol, patient.pk_remifentanil)


@pytest.fixture(scope="session")
def disc(cont):
    return pkpd.discretize_euler(cont, 5.0)


@pytest.fixture(scope="session")
def gain(disc):
    return compensation.compensation_gain(disc)


@pytest.fixture(scope="session")
def v_box():
    return compensation.tracking_input_set(U_BOUNDS, M_BAR_PAPER)


@pytest.fixture(scope="session")
def ingredients(disc, v_box):
    return terminal.compute_terminal_ingredients(disc, v_box, Q_DIAG, R_EYE, lam=0.99)


def random_pk(rng):
    return pkpd.DrugPkParams(
        V1=rng.uniform(2.0, 10.0),
        V2=rng.uniform(5.0, 30.0),
        V3=rng.uniform(1.0, 200.0),
        Cl1=rng.uniform(0.01, 0.06),
        Cl2=rng.uniform(0.005, 0.04),
        Cl3=rng.uniform(0.0005, 0.02),
        ke=rng.uniform(0.001, 0.01),
    )


def scaled_patient(patient, draw, label):
    """The patient with every PK parameter of both drugs scaled by a fresh
    draw(), in field order, propofol first."""
    def scale(pk):
        fields = {f.name: getattr(pk, f.name) * float(draw())
                  for f in dataclasses.fields(pk)}
        return pkpd.DrugPkParams(**fields)

    return pkpd.PatientModel(
        pk_propofol=scale(patient.pk_propofol),
        pk_remifentanil=scale(patient.pk_remifentanil),
        pd=patient.pd,
        label=label,
    )


def perturbed(patient, rng, spread=0.2):
    """PK parameters scaled by factors uniform in [1 - spread, 1 + spread]."""
    return scaled_patient(patient, lambda: rng.uniform(1 - spread, 1 + spread), "perturbed")


def log_uniform_patient(patient, rng, lo=0.6, hi=1.4):
    """PK parameters scaled by factors log-uniform in [lo, hi]."""
    return scaled_patient(patient, lambda: np.exp(rng.uniform(np.log(lo), np.log(hi))),
                          "log-uniform")


def rollout_compensation_max(disc, U):
    """Brute force: step the full model at the maximal input from rest until
    it stops moving; return the running maximum of the compensation |D x_s|."""
    D = compensation.compensation_gain(disc).D
    M, B = pkpd.full_step_matrices(disc)
    push = B @ U.upper
    x = np.zeros(M.shape[0])
    seen = np.zeros(D.shape[0])
    for _ in range(10**6):
        x_next = M @ x + push
        seen = np.maximum(seen, np.abs(D @ x_next[4:]))
        if np.max(np.abs(x_next - x)) <= 1e-9:
            return seen
        x = x_next
    pytest.fail("rollout did not reach steady state")


def steady_state_compensation(patient, U):
    """Closed form of |D x_s| at the steady state of the full model under
    the maximal input: (Cl2+Cl3)/Cl1 * u_max per drug."""
    return np.array([(pk.Cl2 + pk.Cl3) / pk.Cl1 * u for pk, u in
                     zip((patient.pk_propofol, patient.pk_remifentanil), U.upper)])
