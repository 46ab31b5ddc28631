"""The delaymatch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the CLI in-process (``delaymatch.cli.main`` with stdout captured)
over a seeded corpus, as a closed loop with one client: one process, one
thread, each command starting when the previous one returns.  The corpus is
run in whole passes until the next pass would overrun ``--seconds``.  Every
output is checked: against the pinned references of the seed commit where
the instance has one, otherwise by certification (certified-sweep) and by
waiting == dual plus the (2m + 1) guarantee.

With ``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the result line holds
the per-layer metrics of the traced ones.  Report lines above the result
line print every applicable metric with its unit, percentile and sample
count.  The program is imported from ``src/`` of the checkout that holds
this file; without it the benchmark exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from corpus import CERTIFIED_SWEEP, WORKLOADS, build, corpus  # noqa: E402
from layers import COUNTS, Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 3  # before the first pass; one more precedes each later pass
FLOAT_REL_TOL = 1e-6  # as the acceptance suite's float corpus
PROGRAM_MODULES = ("cli", "engine", "certify", "generators", "instance")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_catalog():
    return json.loads((HERE / "metrics.json").read_text())


def load_pins():
    return json.loads((HERE / "pinned.json").read_text())["instances"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- set-up -------------------------------------------------------------------


def import_program():
    """Fresh import of delaymatch from this checkout's ``src``."""
    if not (SRC / "delaymatch" / "__init__.py").is_file():
        raise BenchError(f"no delaymatch package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "delaymatch" or n.startswith("delaymatch.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"delaymatch.{name}") for name in PROGRAM_MODULES}
    if SRC.resolve() not in Path(mods["cli"].__file__).resolve().parents:
        raise BenchError(f"delaymatch was imported from {mods['cli'].__file__}, not from {SRC}")
    return mods


@dataclass
class Item:
    spec: object
    path: Path  # instance file
    trace: Path
    summary: Path
    key: str  # sha256 of the instance file, the key of its pinned references
    mode: str
    m: int
    requests: int


def set_up(workload, seed, tiny, workdir):
    """One timed set-up: import, generate, write the files, warm up."""
    start = perf_counter()
    mods = import_program()
    items = []
    for spec in corpus(workload, seed, tiny):
        inst = build(spec, mods["generators"])
        text = mods["instance"].instance_json(inst)
        path = workdir / f"{spec.name}.json"
        path.write_text(text)
        items.append(
            Item(spec, path, workdir / f"{spec.name}.trace", workdir / f"{spec.name}.summary.json",
                 sha256(text.encode()), inst.mode, inst.m, len(inst.requests))
        )
    # Warm-up: every command the workload uses, once, on a four-pair instance.
    warm = workdir / "warm-up.json"
    warm.write_text(mods["instance"].instance_json(mods["generators"].gen_tightness_instance(4, variant="mbpmd")))
    commands = [["run", str(warm), "--trace", str(workdir / "warm-up.trace")]]
    if workload == CERTIFIED_SWEEP:
        commands.append(["certify", str(warm), str(workdir / "warm-up.trace")])
    if any(item.spec.opt for item in items):
        commands.append(["opt", str(warm)])
    for argv in commands:
        code, _, err, _ = invoke(mods["cli"].main, argv)
        if code != 0:
            raise BenchError(f"warm-up `{' '.join(argv[:1])}` exited {code}: {err.strip()}")
    return mods, items, perf_counter() - start


# -- one instance through its commands ------------------------------------------


def invoke(main, argv):
    """Run one CLI command in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = main(argv)
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


@dataclass
class Outcome:
    latency: dict = field(default_factory=dict)  # command -> seconds
    problems: list = field(default_factory=list)
    trace_sha256: str = None
    summary_sha256: str = None
    opt: object = None  # the `value` field printed by `opt`


def run_item(main, item, certified, pins) -> Outcome:
    out = Outcome()
    try:
        _run_item(main, item, certified, pins.get(item.key), out)
    except Exception:  # noqa: BLE001 - any crash is a failed instance, not a dead benchmark
        out.problems.append("exception:\n" + traceback.format_exc())
    return out


def _run_item(main, item, certified, pin, out):
    code, summary, err, out.latency["run"] = invoke(main, ["run", str(item.path), "--trace", str(item.trace)])
    if code != 0:
        out.problems.append(f"run exited {code}: {err.strip()}")
        return
    item.summary.write_text(summary)
    out.trace_sha256 = sha256(item.trace.read_bytes())
    out.summary_sha256 = sha256(summary.encode())
    if pin is not None:
        if out.trace_sha256 != pin["trace_sha256"]:
            out.problems.append("trace differs from the pinned reference")
        if out.summary_sha256 != pin["summary_sha256"]:
            out.problems.append("summary differs from the pinned reference")
    doc = json.loads(summary)
    out.problems += check_summary(item, doc)

    if certified:
        argv = ["certify", str(item.path), str(item.trace), "--expect", str(item.summary)]
        code, cert, err, out.latency["certify"] = invoke(main, argv)
        if code != 0 or json.loads(cert).get("ok") is not True:
            out.problems.append(f"certify exited {code}: {cert.strip()[:500]} {err.strip()}")

    if item.spec.opt:
        code, opt, err, out.latency["opt"] = invoke(main, ["opt", str(item.path)])
        if code != 0:
            out.problems.append(f"opt exited {code}: {err.strip()}")
            return
        out.opt = json.loads(opt)["value"]
        if pin is not None and out.opt != pin.get("opt"):
            out.problems.append(f"opt value {out.opt} differs from the pinned {pin.get('opt')}")
        value, dual, total = (scalar(x, item.mode) for x in (out.opt, doc["dual_objective"], doc["total_cost"]))
        if not (leq(dual, value, item.mode) and leq(value, total, item.mode)):
            out.problems.append(f"opt {out.opt} outside [dual, online total] = [{doc['dual_objective']}, {doc['total_cost']}]")


def scalar(value, mode):
    return Fraction(value) if mode == "exact" else float(value)


def leq(a, b, mode):
    if mode == "exact":
        return a <= b
    return a <= b + FLOAT_REL_TOL * max(1.0, abs(a), abs(b))


def check_summary(item, doc):
    """Checks that hold on every seed: waiting == dual, costs add up, and the
    total stays within (2m + 1) times the dual objective."""
    mode = item.mode
    conn, wait, total, dual = (
        scalar(doc[k], mode) for k in ("connection_cost", "waiting_cost", "total_cost", "dual_objective")
    )
    problems = []
    if doc["m"] != item.m:
        problems.append(f"summary m={doc['m']}, instance has m={item.m}")
    if not (leq(wait, dual, mode) and leq(dual, wait, mode)):
        problems.append(f"waiting cost {doc['waiting_cost']} != dual objective {doc['dual_objective']}")
    if not (leq(conn + wait, total, mode) and leq(total, conn + wait, mode)):
        problems.append("total cost is not connection plus waiting")
    if not leq(total, (2 * item.m + 1) * dual, mode):
        problems.append(f"total cost {doc['total_cost']} exceeds (2m + 1) x dual {doc['dual_objective']}")
    return problems


# -- the closed loop ------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    outcomes: list
    tracer: Tracer = None

    @property
    def total(self) -> float:
        return sum(sum(o.latency.values()) for o in self.outcomes)


def one_pass(mods, items, certified, pins, tracer=None) -> Pass:
    main = mods["cli"].main
    if tracer is not None:
        cli_main = main

        def main(argv):
            return tracer.call(f"cli.{argv[0]}", cli_main, argv)

        tracer.install(mods)
    try:
        outcomes = []
        for item in items:
            if tracer is not None:
                tracer.instance = item.spec.name
            outcomes.append(run_item(main, item, certified, pins))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(tracer is not None, outcomes, tracer)


def measure(workload, seed, tiny, workdir, seconds, traced, pins):
    """Whole passes until the next one would overrun ``seconds``; with
    ``traced``, untraced and traced passes alternate (at least one each).

    A fresh set-up precedes every pass after the first, so that set-up times
    are sampled across the run and not in one burst of machine noise.
    Returns the last set-up's items, every set-up time, and the passes.
    """
    certified = workload == CERTIFIED_SWEEP
    setups = []
    for _ in range(SETUP_REPEATS):
        mods, items, took = set_up(workload, seed, tiny, workdir)
        setups.append(took)
    passes = []
    start = perf_counter()
    while True:
        if passes:
            mods, items, took = set_up(workload, seed, tiny, workdir)
            setups.append(took)
        gc.collect()
        tracer = Tracer() if traced and len(passes) % 2 == 1 else None
        passes.append(one_pass(mods, items, certified, pins, tracer))
        elapsed = perf_counter() - start
        enough = len(passes) >= (2 if traced else 1)
        if enough and elapsed + elapsed / len(passes) > seconds:
            return items, setups, passes


# -- statistics -----------------------------------------------------------------


def tail(values):
    """Value at the highest percentile with at least 10 samples beyond it,
    with its label; the maximum when there are 10 samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], "max"
    k = n - 10
    return ordered[k - 1], f"p{100 * k // n}"


def end_to_end(passes, items, setups):
    runs = [(item, o) for p in passes for item, o in zip(items, p.outcomes)]
    metrics, notes = {}, {}

    def latency(name, command):
        samples = [o.latency[command] for _, o in runs if command in o.latency]
        if not samples:
            return
        metrics[f"{name}.p50"] = statistics.median(samples)
        notes[f"{name}.p50"] = f"n={len(samples)}"
        metrics[f"{name}.tail"], label = tail(samples)
        notes[f"{name}.tail"] = f"{label}, n={len(samples)}"

    metrics["setup_s"] = statistics.median(setups)
    notes["setup_s"] = "median of " + ", ".join(f"{s:.4f}" for s in setups)
    latency("run_s", "run")
    ran = [(item, o) for item, o in runs if "run" in o.latency]
    metrics["run_req_per_s"] = sum(i.requests for i, _ in ran) / sum(o.latency["run"] for _, o in ran)
    metrics["loop_req_per_s"] = sum(i.requests for i, _ in ran) / sum(sum(o.latency.values()) for _, o in ran)
    certified = [(item, o) for item, o in ran if "certify" in o.latency]
    if certified:
        latency("certify_s", "certify")
        seconds = sum(o.latency["run"] + o.latency["certify"] for _, o in certified)
        metrics["certified_req_per_s"] = sum(i.requests for i, _ in certified) / seconds
    opts = [o.latency["opt"] for _, o in runs if "opt" in o.latency]
    if opts:
        metrics["opt_s.p50"] = statistics.median(opts)
        notes["opt_s.p50"] = f"n={len(opts)}"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(1 for _, o in runs if o.problems)
    metrics["failed_frac"] = failed / len(runs)
    notes["failed_frac"] = f"{failed} of {len(runs)}"
    return metrics, notes


def per_layer(passes):
    traced = [p for p in passes if p.traced]
    metrics, notes, problems = {}, {}, []
    times = [p.tracer.self_times() for p in traced]
    for name in sorted(set().union(*times)):
        values = [t.get(name, 0.0) for t in times]
        metrics[name] = statistics.median(values)
        notes[name] = f"median of {len(values)} traced passes"
    counts = [p.tracer.counts for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ between traced passes of one corpus")
    for name in COUNTS:
        if counts[0][name]:
            metrics[name] = counts[0][name]
            notes[name] = "per corpus pass"
    if "certify.pair_checks" in metrics:
        notes["certify.pair_checks"] += ", computed from the trace"
    metrics["engine.merge_yield"] = counts[0]["engine.merges"] / counts[0]["engine.tight_scan.pairs_visited"]
    untraced = statistics.median(p.total for p in passes if not p.traced)
    metrics["trace.overhead_frac"] = statistics.median(p.total for p in traced) / untraced - 1
    notes["trace.overhead_frac"] = f"{len(traced)} traced vs {len(passes) - len(traced)} untraced passes"
    return metrics, notes, problems


# -- entry point ----------------------------------------------------------------


def bench(workload, seed, seconds, trace, tiny=False):
    """Set up, measure and check one workload; returns (result, report lines)."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    import_program()  # fails before anything is written when there is no program
    catalog = load_catalog()
    pins = load_pins()
    workdir = OUT / f"work-{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        items, setups, passes = measure(workload, seed, tiny, workdir, seconds, bool(trace), pins)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(1 for p in passes for o in p.outcomes if o.problems)
    lines = [f"# workload {workload}, seed {seed}, {len(items)} instances, {len(passes)} passes, "
             f"{attempted} attempted, {failed} failed"]
    for p in passes:
        for item, o in zip(items, p.outcomes):
            for problem in o.problems:
                lines.append(f"# FAILED {item.spec.name}: {problem}")
    problems = []
    if trace:
        metrics, notes, problems = per_layer(passes)
        section = "per_layer"
        spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
        with open(spans, "w") as fh:
            for i, p in enumerate(q for q in passes if q.traced):
                for span in p.tracer.spans:
                    fh.write(json.dumps([i, *span]) + "\n")
        lines.append(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(passes, items, setups)
        section = "end_to_end"
    lines += [f"# PROBLEM {p}" for p in problems]
    result_metrics = {}
    for entry in catalog[section]:
        name = entry["name"]
        if name not in metrics:
            continue
        lines.append(f"{name:34s} {metrics[name]:<22.10g} {entry['unit']:6s} {notes.get(name, '')}")
        if entry["workloads"] == "all":
            result_metrics[name] = {"value": metrics[name], "unit": entry["unit"]}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
