"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads online-exact,float-plane --seeds 1-10 \
        [--seconds 40] [--trace 0|1] [--out FILE]

Each run is a separate process, one at a time.  For every metric (result
line and report lines) it prints the median over seeds and the spread: the
distance between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median, next to a third of the metric's bound.  ``--out``
writes the per-seed values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value = line.split()[:2]
            values[name] = float(value)
    return result, values, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / abs(median) if median else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    catalog = json.loads((HERE / "metrics.json").read_text())
    bounds = {e["name"]: e.get("bound") for e in catalog["end_to_end"]}
    doc = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            result, values, wall = one_run(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "wall_s": wall, "values": values})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s", flush=True)
        summary = {}
        for name in runs[0]["values"]:
            series = [r["values"][name] for r in runs if name in r["values"]]
            median, share = spread(series) if len(series) > 1 else (series[0], 0.0)
            summary[name] = {"median": median, "spread": share, "min": min(series), "max": max(series)}
            bound = bounds.get(name)
            if share is None:
                print(f"  {name:34s} median {median:<14.6g}", flush=True)
                continue
            mark = "" if bound is None else f"  bound/3 {bound / 3:.3f} {'ok' if share < bound / 3 else 'WIDE'}"
            print(f"  {name:34s} median {median:<14.6g} spread {share:.4f}{mark}", flush=True)
        doc[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
