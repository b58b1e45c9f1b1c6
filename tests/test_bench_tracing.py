"""The benchmark's span tracer patches package names by (owner, attribute);
a refactor that moves or renames one of them must fail here, not only
under ``bench/run.py --trace 1``."""

import importlib
import sys
from pathlib import Path

import pytest

from anesmpc import cli

from conftest import controller_path, patient_path

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_every_patched_name_resolves(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.PATCHES if attr not in owner.__dict__]
    assert missing == []


def test_installed_patches_then_restores(tracing):
    before = [owner.__dict__[attr] for owner, attr, _, _ in tracing.PATCHES]
    with tracing.Tracer().installed():
        during = [owner.__dict__[attr] for owner, attr, _, _ in tracing.PATCHES]
    after = [owner.__dict__[attr] for owner, attr, _, _ in tracing.PATCHES]
    assert all(d is not b and d.__wrapped__ is b for b, d in zip(before, during))
    assert all(a is b for a, b in zip(after, before))


def test_build_spans_nest_under_the_bundle_build(tracing):
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.trace("build"):
        cli.build_bundle(patient_path(), controller_path())
    metrics, bases = tracing.layer_metrics(tracer.spans)
    assert bases["builds"] == 1
    assert metrics["terminal.kstar"] == 11
    # every construction LP runs through the traced lp_max: one routed
    # around it would zero these counts, not fail the build
    assert metrics["terminal.propagation_lps"] == 20
    assert metrics["geometry.redundancy_lps"] == 53
    assert metrics["geometry.rows_in"] == 96
    assert metrics["geometry.rows_out"] == 44
    assert metrics["mpc.controller_build_ms"] > 0.0
    assert metrics["pkpd.load_ms"] > 0.0
