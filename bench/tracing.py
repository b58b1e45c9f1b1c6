"""Span tracing around the public functions of each anesmpc layer.

The wrappers live here, in the benchmark, and are installed by patching
each name where the caller looks it up: ``terminal`` imports ``lp_max``
and ``remove_redundant`` by name, while ``qp`` and ``cli`` call through
module attributes, so both namespaces get the same wrapper. Spans stay in
memory until the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from anesmpc import cli, compensation, geometry, mpc, pkpd, qp, sim, terminal


def _qp_info(result, args, kwargs):
    kkt = result.kkt_residuals
    return {
        "warm": (args[1] if len(args) > 1 else kwargs.get("warm_start")) is not None,
        "status": result.status,
        "iters": result.iterations,
        "active": len(result.active_set),
        "kkt": kkt.max() if kkt is not None else None,
    }


def _step_info(result, args, kwargs):
    ctrl, x_s = args[0], pkpd.as_slow_state(args[2])
    return {"clamped": not np.array_equal(result.u, result.v0 + ctrl.D @ x_s)}


def _redundancy_info(result, args, kwargs):
    return {"rows_in": args[0].nrows, "rows_out": result.nrows}


def _terminal_info(result, args, kwargs):
    return {"kstar": result.determination_index, "rows": result.X_a.nrows}


# (module, attribute, span name, extra-info hook); several lookups of one
# function share a span name and a wrapper
PATCHES = [
    (cli, "build_bundle", "cli.build_bundle", None),
    (pkpd, "load_patient", "pkpd.load_patient", None),
    (pkpd, "build_continuous", "pkpd.build_continuous", None),
    (pkpd, "discretize_euler", "pkpd.discretize_euler", None),
    (mpc, "load_controller_config", "mpc.load_controller_config", None),
    (compensation, "compensation_gain", "compensation.compensation_gain", None),
    (compensation, "disturbance_bound", "compensation.disturbance_bound", None),
    (compensation, "tracking_input_set", "compensation.tracking_input_set", None),
    (terminal, "compute_terminal_ingredients", "terminal.compute_terminal_ingredients",
     _terminal_info),
    (terminal, "solve_dare", "terminal.solve_dare", None),
    (terminal, "extended_dynamics", "terminal.extended_dynamics", None),
    (terminal, "build_W_lambda", "terminal.build_W_lambda", None),
    (terminal, "max_admissible_invariant_set", "terminal.max_admissible_invariant_set", None),
    (geometry, "lp_max", "geometry.lp_max", None),
    (terminal, "lp_max", "geometry.lp_max", None),
    (geometry, "is_empty", "geometry.is_empty", None),
    (geometry, "remove_redundant", "geometry.remove_redundant", _redundancy_info),
    (terminal, "remove_redundant", "geometry.remove_redundant", _redundancy_info),
    (mpc, "build_steady_input_set", "mpc.build_steady_input_set", None),
    (mpc, "build_controller", "mpc.build_controller", None),
    (mpc.Controller, "control_step", "mpc.control_step", _step_info),
    (mpc.Controller, "reset", "mpc.reset", None),
    (mpc.Controller, "retarget", "mpc.retarget", None),
    (qp, "qp_solve", "qp.qp_solve", _qp_info),
    (sim, "simulate_closed_loop", "sim.simulate_closed_loop", None),
]


class Tracer:
    """In-memory span recorder; one trace id per build or episode."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace = None

    @contextmanager
    def trace(self, trace_id: str):
        prev, self._trace = self._trace, trace_id
        try:
            yield
        finally:
            self._trace = prev

    def _wrap(self, name, fn, info):
        def wrapper(*args, **kwargs):
            span = {"name": name, "trace": self._trace,
                    "parent": self._stack[-1] if self._stack else -1}
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.update(info(result, args, kwargs))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every name in PATCHES for the duration of the block."""
        saved = []
        wrappers = {}
        try:
            for owner, attr, name, info in PATCHES:
                fn = owner.__dict__[attr]
                key = (id(fn), name)
                if key not in wrappers:
                    wrappers[key] = self._wrap(name, fn, info)
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrappers[key])
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")


# -- per-layer metrics ------------------------------------------------------

# metric -> (unit, end-to-end metric it should move, workload it shows on)
LAYER_METRICS = {
    "cli.build_bundle_ms": ("ms", "setup_s", "all"),
    "pkpd.load_ms": ("ms", "setup_s", "cohort-build"),
    "compensation.ms": ("ms", "setup_s", "cohort-build"),
    "terminal.dare_ms": ("ms", "setup_s", "cohort-build"),
    "terminal.propagation_ms": ("ms", "setup_s", "cohort-build"),
    "terminal.propagation_lps": ("count", "setup_s", "cohort-build"),
    "terminal.kstar": ("count", "setup_s", "cohort-build"),
    "geometry.redundancy_ms": ("ms", "setup_s", "cohort-build"),
    "geometry.redundancy_lps": ("count", "setup_s", "cohort-build"),
    "geometry.rows_in": ("count", "setup_s", "cohort-build"),
    "geometry.rows_out": ("count", "setup_s", "cohort-build"),
    "geometry.lp_ms.build": ("ms", "setup_s", "cohort-build"),
    "geometry.lp_ms.qp": ("ms", "first_step_ms", "induction"),
    "mpc.controller_build_ms": ("ms", "setup_s", "all"),
    "mpc.step_self_ms_p50": ("ms", "step_ms_p50", "setpoint"),
    "mpc.clamped_steps": ("count", "none (must stay fixed)", "setpoint"),
    "qp.cold_ms": ("ms", "first_step_ms, episode_s", "induction"),
    "qp.cold_iters": ("count", "first_step_ms, episode_s", "induction"),
    "qp.phase1_ms": ("ms", "first_step_ms, episode_s", "induction"),
    "qp.warm_ms_p50": ("ms", "step_ms_p50", "setpoint"),
    "qp.warm_ms_p95": ("ms", "step_ms_p99", "setpoint"),
    "qp.warm_ms_max": ("ms", "step_ms_p99", "setpoint"),
    "qp.iters_p50": ("count", "step_ms_p50", "setpoint"),
    "qp.iters_max": ("count", "step_ms_p99", "setpoint"),
    "qp.active_max": ("count", "step_ms_p99", "setpoint"),
    "qp.warm_accept_ratio": ("ratio", "step_ms_p99", "setpoint"),
    "qp.kkt_max": ("residual", "none (must stay <= 1e-8)", "all"),
    "sim.self_ms": ("ms", "episode_s", "induction"),
    "trace.overhead_ms": ("ms", "none (traced minus untraced episode)", "all"),
}


def _dur_ms(s) -> float:
    return (s["t1"] - s["t0"]) * 1e3


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the recorded spans, plus the bases of ratios.

    Build metrics are per ``cli.build_bundle`` (times: median over builds;
    counts: mean over builds). Episode metrics pool every traced episode.
    A layer the workload never calls reports 0.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)

    def kids(i, name=None):
        return [spans[j] for j in children.get(i, ()) if name is None or spans[j]["name"] == name]

    def descendants(i, name):
        out, todo = [], list(children.get(i, ()))
        while todo:
            j = todo.pop()
            if spans[j]["name"] == name:
                out.append(spans[j])
            todo.extend(children.get(j, ()))
        return out

    def sum_ms(items):
        return sum(_dur_ms(s) for s in items)

    per_build = {k: [] for k in ("build", "pkpd", "comp", "dare", "prop", "prop_lps", "kstar",
                                 "red", "red_lps", "rows_in", "rows_out", "lp", "ctrl")}
    for i, s in enumerate(spans):
        if s["name"] != "cli.build_bundle":
            continue
        b = per_build
        b["build"].append(_dur_ms(s))
        b["pkpd"].append(sum_ms(k for k in kids(i) if k["name"].startswith("pkpd.")))
        b["comp"].append(sum_ms(k for k in kids(i) if k["name"].startswith("compensation.")))
        b["ctrl"].append(sum_ms(kids(i, "mpc.build_controller")))
        b["lp"].append(sum_ms(descendants(i, "geometry.lp_max")))
        for t_idx in children.get(i, ()):
            t = spans[t_idx]
            if t["name"] != "terminal.compute_terminal_ingredients":
                continue
            b["kstar"].append(t["kstar"])
            b["dare"].append(sum_ms(kids(t_idx, "terminal.solve_dare")))
            for m_idx in children.get(t_idx, ()):
                if spans[m_idx]["name"] != "terminal.max_admissible_invariant_set":
                    continue
                red_idx = [j for j in children.get(m_idx, ())
                           if spans[j]["name"] == "geometry.remove_redundant"]
                b["prop"].append(_dur_ms(spans[m_idx]) - sum_ms(spans[j] for j in red_idx))
                b["prop_lps"].append(len(kids(m_idx, "geometry.lp_max")))
                for j in red_idx:
                    b["red"].append(_dur_ms(spans[j]))
                    b["red_lps"].append(len(descendants(j, "geometry.lp_max")))
                    b["rows_in"].append(spans[j]["rows_in"])
                    b["rows_out"].append(spans[j]["rows_out"])

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    solves = [(i, s) for i, s in enumerate(spans) if s["name"] == "qp.qp_solve"]
    cold = [s for _, s in solves if not s["warm"]]
    warm = [(i, s) for i, s in solves if s["warm"]]
    phase1 = [k for i, _ in solves for k in kids(i, "geometry.lp_max")]
    warm_used = sum(1 for i, _ in warm if not kids(i, "geometry.lp_max"))
    steps = [(i, s) for i, s in enumerate(spans) if s["name"] == "mpc.control_step"]
    step_self = [_dur_ms(s) - sum_ms(kids(i, "qp.qp_solve")) for i, s in steps]
    sims = [(i, s) for i, s in enumerate(spans) if s["name"] == "sim.simulate_closed_loop"]
    sim_self = [_dur_ms(s) - sum_ms(kids(i, "mpc.control_step")) for i, s in sims]

    episodes: dict[str, dict] = {}
    for i, s in steps:
        ep = episodes.setdefault(s["trace"], {"clamped": 0, "lp_qp": 0.0})
        ep["clamped"] += s["clamped"]
    for i, s in solves:
        ep = episodes.setdefault(s["trace"], {"clamped": 0, "lp_qp": 0.0})
        ep["lp_qp"] += sum_ms(kids(i, "geometry.lp_max"))

    warm_ms = [_dur_ms(s) for _, s in warm]
    warm_iters = [s["iters"] for _, s in warm]
    kkt = [s["kkt"] for _, s in solves if s["kkt"] is not None]

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    metrics = {
        "cli.build_bundle_ms": _median(per_build["build"]),
        "pkpd.load_ms": _median(per_build["pkpd"]),
        "compensation.ms": _median(per_build["comp"]),
        "terminal.dare_ms": _median(per_build["dare"]),
        "terminal.propagation_ms": _median(per_build["prop"]),
        "terminal.propagation_lps": mean(per_build["prop_lps"]),
        "terminal.kstar": mean(per_build["kstar"]),
        "geometry.redundancy_ms": _median(per_build["red"]),
        "geometry.redundancy_lps": mean(per_build["red_lps"]),
        "geometry.rows_in": mean(per_build["rows_in"]),
        "geometry.rows_out": mean(per_build["rows_out"]),
        "geometry.lp_ms.build": _median(per_build["lp"]),
        "geometry.lp_ms.qp": _median([e["lp_qp"] for e in episodes.values()]),
        "mpc.controller_build_ms": _median(per_build["ctrl"]),
        "mpc.step_self_ms_p50": _median(step_self),
        "mpc.clamped_steps": _median([e["clamped"] for e in episodes.values()]),
        "qp.cold_ms": _median([_dur_ms(s) for s in cold]),
        "qp.cold_iters": _median([s["iters"] for s in cold]),
        "qp.phase1_ms": _median([_dur_ms(s) for s in phase1]),
        "qp.warm_ms_p50": pct(warm_ms, 50),
        "qp.warm_ms_p95": pct(warm_ms, 95),
        "qp.warm_ms_max": max(warm_ms, default=0.0),
        "qp.iters_p50": pct(warm_iters, 50),
        "qp.iters_max": float(max(warm_iters, default=0)),
        "qp.active_max": float(max((s["active"] for _, s in solves), default=0)),
        "qp.warm_accept_ratio": warm_used / len(warm) if warm else 0.0,
        "qp.kkt_max": max(kkt, default=0.0),
        "sim.self_ms": _median(sim_self),
    }
    bases = {
        "builds": len(per_build["build"]),
        "episodes": len(episodes),
        "solves": len(solves),
        "cold_solves": len(cold),
        "phase1_lps": len(phase1),
        "warm_starts_passed": len(warm),
        "warm_starts_used": warm_used,
        "steps": len(steps),
    }
    return metrics, bases
