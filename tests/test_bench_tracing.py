"""The benchmark's span tracer patches package names by (owner, attribute),
and its workload checks call a few package names directly; a refactor
that moves or renames one of them, or breaks a check of a closed-loop
workload, must fail here, not only under ``bench/run.py``."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from anesmpc import cli, pipeline

from conftest import bench_module, controller_path, patient_path


@pytest.fixture(scope="module")
def tracing():
    return bench_module("tracing")


def test_cohort_build_check_passes_on_the_shipped_bundle():
    workloads = bench_module("workloads")
    bundle = cli.build_bundle(patient_path(), controller_path())
    assert workloads.check_cohort_build("shipped", bundle) == []


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
    # every lone construction LP runs through the traced lp_max: one
    # routed around it would zero these counts, not fail the build. Both
    # centres are centres of symmetry, found without an LP, and the
    # reduction's row tests run as one family (lp_max_stack), which the
    # tracer does not patch, so only the 5 propagation LPs count here
    assert metrics["terminal.propagation_lps"] == 5
    assert metrics["geometry.redundancy_lps"] == 0
    assert metrics["geometry.rows_in"] == 96
    assert metrics["geometry.rows_out"] == 44
    assert metrics["mpc.controller_build_ms"] > 0.0
    assert metrics["pkpd.load_ms"] > 0.0


def test_applied_input_is_the_clipped_compensated_input_to_the_bit(tracing):
    # the tracer counts a step as clamped whenever u differs in any bit from
    # v0 + D x_s, so u must come from exactly that expression, clipped into
    # U: any other rounding would count every step as a clamp
    bundle = cli.build_bundle(patient_path(), controller_path())
    ctrl, U = bundle.controller, bundle.controller.U
    log = pipeline.closed_loop(bundle, 600.0)
    for k in range(len(log)):
        assert np.array_equal(log.u[k], np.clip(log.v[k] + ctrl.D @ log.x_s[k],
                                                U.lower, U.upper)), k
    clamped = [k for k in range(len(log))
               if tracing._step_info(SimpleNamespace(u=log.u[k], v0=log.v[k]),
                                     (ctrl, log.x_f[k], log.x_s[k]), {})["clamped"]]
    assert clamped == []


@pytest.mark.parametrize("workload", ["induction", "setpoint"])
def test_closed_loop_workload_checks_pass(workload, tmp_path):
    # one 0 s run of the workload with its own checks: settling at 265 s,
    # KKT residuals, a non-increasing cost, bit-identical episodes and the
    # set-point segment ends
    workloads = bench_module("workloads")
    inputs = workloads.make_inputs(workload, 0, Path(patient_path()).parent, tmp_path)
    rec = workloads.Record()
    workloads.RUNNERS[workload](inputs, 0.0, rec, builds=1)
    assert rec.attempted > 0 and rec.episode_s
    assert rec.failures == []
    assert rec.failed == 0
