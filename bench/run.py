"""anesmpc benchmark: end-to-end metrics per workload, per-layer metrics
from a traced run.

    python3 bench/run.py --workload induction --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 50

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object; the full record (provenance, seed, generated inputs, checks,
sample counts, spans) goes to ``bench/out/``. The exit code is 1 when an
output check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, for steadier timings
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "anesmpc"

if not (PACKAGE / "__init__.py").is_file():
    sys.exit(f"error: {PACKAGE} not found; run the benchmark from a checkout of the repository")
sys.path.insert(0, str(SRC))

import anesmpc  # noqa: E402
import numpy as np  # noqa: E402

if Path(anesmpc.__file__).resolve().parent != PACKAGE.resolve():
    sys.exit(f"error: imported anesmpc from {anesmpc.__file__}, not from {PACKAGE}")

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_BUILDS = 7  # at least this many timed set-up builds per run

# name -> (unit, meaning)
END_TO_END = {
    "setup_s": ("s", "shipped patient + config files -> ready Controller, median of the "
                     "set-up builds spread through the run"),
    "episode_s": ("s", "one episode assembled from the fastest repeat of each part"),
    "first_step_ms": ("ms", "first control_step after reset, no warm start, fastest repeat"),
    "step_ms_p50": ("ms", "median over the later steps of each one's fastest repeat"),
    "step_ms_p99": ("ms", "tail of the same: p90 induction, p99 setpoint"),
    "ok_frac": ("ratio", "1 - fail_frac: builds + steps that neither raised nor failed"),
    "peak_rss_mb": ("MB", "ru_maxrss of the process"),
}


# -- provenance -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> dict:
    info = {"version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- one workload ---------------------------------------------------------------


def _e2e(workload: str, rec: workloads.Record) -> tuple[dict, dict]:
    pct = workloads.TAIL[workload]
    best = rec.best()
    values = {
        "setup_s": float(np.median(rec.setup_s)),
        "episode_s": rec.best_episode_s(),
        "first_step_ms": float(min(rec.first_ms)),
        "step_ms_p50": float(np.median(best)),
        "step_ms_p99": float(np.percentile(best, pct)),
        "ok_frac": 1.0 - rec.failed / max(rec.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    pooled = np.concatenate(rec.profiles)
    samples = {"setup_builds": len(rec.setup_s), "episodes": len(rec.episode_s),
               "first_steps": len(rec.first_ms), "step_positions": int(best.size),
               "step_tail_percentile": pct,
               # not gated, for reading beside the gated estimators (see NOTES.md)
               "setup_s_fastest": float(min(rec.setup_s)),
               "episode_s_measured_median": float(np.median(rec.episode_s)),
               "pooled_steps": int(pooled.size),
               "pooled_step_ms_p99": float(np.percentile(pooled, 99)),
               "pooled_step_ms_max": float(pooled.max())}
    return values, samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 builds: int = SETUP_BUILDS, cohort_size: int = workloads.COHORT_SIZE,
                 setpoint_s: float = workloads.SETPOINT_S, out_root: Path = BENCH / "out"):
    """Run one workload; returns (result line, full record)."""
    outdir = out_root / f"{workload}-seed{seed}-trace{int(trace)}"
    inputs = workloads.make_inputs(workload, seed, PACKAGE / "data", outdir / "inputs",
                                   cohort_size=cohort_size)
    rec = workloads.Record()
    tracer = tracing.Tracer() if trace else None
    kwargs = {"duration": setpoint_s} if workload == "setpoint" else {}
    extra = workloads.RUNNERS[workload](inputs, seconds, rec, builds, tracer, **kwargs)

    # cohort-build has no episodes: it reports its checks and, traced, its layers
    closed_loop = workload in workloads.TAIL
    complete = rec.attempted > 0 and (
        not closed_loop or (bool(rec.episode_s) and (not trace or bool(rec.traced_episode_s))))
    if not complete and not rec.failures:
        rec.failures.append("no complete episode was measured")
    metrics, units, info = {}, {}, {}
    if complete and not trace and closed_loop:
        metrics, info = _e2e(workload, rec)
        units = {k: END_TO_END[k][0] for k in metrics}
    elif complete and trace:
        metrics, info = tracing.layer_metrics(tracer.spans)
        if closed_loop:
            overhead = min(rec.traced_episode_s) - min(rec.episode_s)
            metrics["trace.overhead_ms"] = float(overhead * 1e3)
            info["untraced_episodes"] = len(rec.episode_s)
            info["traced_episodes"] = len(rec.traced_episode_s)
        units = {k: tracing.LAYER_METRICS[k][0] for k in metrics}
        tracer.write(outdir / "spans.jsonl")

    line = {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(seed),
        "generated_inputs": {"dir": str(outdir.relative_to(ROOT) / "inputs"),
                             "schedule": [list(s) for s in inputs.schedule],
                             "cohort": inputs.table},
        "checks": {"passed": not rec.failures, "failures": rec.failures, **extra},
        "samples": info,
        "result": line,
    }
    (outdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return line, record


def print_report(record: dict) -> None:
    line = record["result"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"({line['attempted']} attempted, {line['failed']} failed)")
    for name, m in line["metrics"].items():
        if record["trace"]:
            _, moves, on = tracing.LAYER_METRICS[name]
            note = f"moves {moves} on {on}"
        else:
            note = END_TO_END[name][1]
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']:<8} {note}")
    print(f"  samples: {json.dumps(record['samples'])}")
    checks = record["checks"]
    print("  checks: " + ("all passed" if checks["passed"] else "FAILED"))
    for failure in checks["failures"]:
        print(f"    - {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="length of the measured loop per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        line, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(record)
        lines[name] = line
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(ln["correct"] for ln in lines.values()),
            "attempted": sum(ln["attempted"] for ln in lines.values()),
            "failed": sum(ln["failed"] for ln in lines.values()),
            "metrics": {f"{w}/{k}": v for w, ln in lines.items() for k, v in ln["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
