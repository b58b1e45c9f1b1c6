"""Repeat the benchmark over seeds and summarise its steadiness.

    python3 bench/collect.py --seeds 10 [--seconds 50] [--workload induction ...]
        [--write bench/baseline.json]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints for each end-to-end metric the median of the runs and the spread
(interquartile range over median, from ``statistics.quantiles(n=4)``)
beside the metric's bound in ``BENCHMARK.json``. ``--write`` stores the
runs, the summary and the first run's provenance as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing (exit {proc.returncode}):\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, runs = {}, {}
    ok = True
    for workload in args.workload:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(workload, seed, args.seconds, 0)
            ok &= res["correct"] and res["exit_code"] == 0
            results.append({"seed": seed, **res})
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        runs[workload] = results
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            summary[workload][name] = {"median": statistics.median(values), "spread": s,
                                       "bound": bound}
            flag = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "OVER BOUND")
            print(f"  {workload:<13} {name:<14} median {statistics.median(values):>12.6g}  "
                  f"spread {s:7.4f}  bound {bound:5.3f}  {flag}")
    if args.write:
        first = f"{args.workload[0]}-seed{args.first_seed}-trace0"
        provenance = json.loads((BENCH / "out" / first / "result.json").read_text())["provenance"]
        args.write.write_text(json.dumps({"seconds": args.seconds, "provenance": provenance,
                                          "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
