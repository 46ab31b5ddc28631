"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on its tiny corpus (a few seconds in all) and checks
that the benchmark itself works:

* each workload finishes correct in both modes and prints every metric that
  applies to it; the result line holds exactly the metrics of BENCHMARK.json;
* work counts repeat exactly between two traced runs;
* a tampered pinned trace hash, a tampered summary and a tampered trace file
  each count as failed instances;
* in a directory without the program the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run as bench
from corpus import CERTIFIED_SWEEP, FLOAT_PLANE, ONLINE_EXACT

SEED = bench.DEFAULT_SEED
SECONDS = 0.01  # one pass (two in traced mode)


def tiny(workload, trace=0, seed=SEED):
    return bench.bench(workload, seed, SECONDS, trace, tiny=True)


def applies(entry, workload):
    return entry["workloads"] == "all" or workload in entry["workloads"]


def check_metrics(catalog, declared):
    for workload in bench.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = tiny(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, lines)
            printed = {line.split()[0] for line in lines if not line.startswith("#")}
            wanted = {e["name"] for e in catalog[section] if applies(e, workload)}
            assert wanted <= printed, (workload, section, sorted(wanted - printed))
            in_result = set(result["metrics"])
            assert in_result == declared[section], (workload, section, in_result ^ declared[section])
            for name, metric in result["metrics"].items():
                assert metric["value"] != 0 or section == "per_layer", (workload, name)
        print(f"ok   {workload}: every metric printed, result line matches the catalogue")


def check_counts_repeat(catalog):
    exact = [e["name"] for e in catalog["per_layer"] if e.get("exact_repeat")]
    for workload in bench.WORKLOADS:
        first, _ = tiny(workload, 1)
        second, _ = tiny(workload, 1)
        for name in exact:
            if name in first["metrics"]:
                assert first["metrics"][name] == second["metrics"][name], (workload, name)
    print("ok   work counts repeat exactly between traced runs")


def expect_failure(label, workload, seed=SEED):
    result, lines = tiny(workload, seed=seed)
    assert result["failed"] > 0 and not result["correct"], (label, lines)
    print(f"ok   {label} counts as failed ({result['failed']} of {result['attempted']})")


def check_tampering():
    load_pins, invoke = bench.load_pins, bench.invoke

    def tampered_pins():
        pins = load_pins()
        for pin in pins.values():
            pin["trace_sha256"] = "0" * 64
        return pins

    def tamper_summary(main, argv):
        code, out, err, seconds = invoke(main, argv)
        if argv[0] == "run":
            doc = json.loads(out)
            doc["num_sets"] += 1
            out = json.dumps(doc, indent=2) + "\n"
        return code, out, err, seconds

    def tamper_trace(main, argv):
        outcome = invoke(main, argv)
        path = bench.Path(argv[-1])
        if argv[0] == "run" and path.stem != "warm-up":
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[:-1]))  # drop the last match
        return outcome

    try:
        bench.load_pins = tampered_pins
        expect_failure("a tampered pinned trace hash (online-exact)", ONLINE_EXACT)
        bench.load_pins = load_pins
        bench.invoke = tamper_summary
        expect_failure("a tampered summary against its pin (float-plane)", FLOAT_PLANE)
        expect_failure("a tampered summary under certify --expect (certified-sweep, unpinned seed)",
                       CERTIFIED_SWEEP, seed=SEED + 1)
        bench.invoke = tamper_trace
        expect_failure("a tampered trace under certify (certified-sweep, unpinned seed)",
                       CERTIFIED_SWEEP, seed=SEED + 1)
    finally:
        bench.load_pins, bench.invoke = load_pins, invoke


def check_without_program():
    bare = bench.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, bare / bench.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    if (bench.ROOT / "BENCHMARK.json").exists():
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{bench.HERE.name}/run.py", "--workload", "online-exact", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and "{" not in proc.stdout, (proc.returncode, proc.stdout)
    print("ok   without the program: exit status", proc.returncode, "and no result")


def main() -> int:
    catalog = bench.load_catalog()
    declared = {
        section: {e["name"] for e in catalog[section] if e["workloads"] == "all"}
        for section in ("end_to_end", "per_layer")
    }
    manifest = bench.ROOT / "BENCHMARK.json"
    if manifest.exists():
        doc = json.loads(manifest.read_text())
        for section in ("end_to_end", "per_layer"):
            keys = ("name", "unit", "better", "bound") if section == "end_to_end" else ("name", "unit", "better")
            want = [{k: e[k] for k in keys} for e in catalog[section] if e["workloads"] == "all"]
            assert doc[section] == want, f"BENCHMARK.json {section} differs from metrics.json"
        print("ok   BENCHMARK.json matches metrics.json")
    check_metrics(catalog, declared)
    check_counts_repeat(catalog)
    check_tampering()
    check_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
