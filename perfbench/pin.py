"""Write pinned.json: the reference outputs of every corpus instance at the
default seed (full and tiny corpora of every workload).

    python3 perfbench/pin.py

Run it only at a commit whose outputs are the reference.  Every instance is
also certified before its outputs are pinned, and the script refuses to pin
anything when a check fails.  Pins are keyed by the sha256 of the instance
file, so the fixed-size schedules stay pinned on every seed.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench


def main() -> int:
    pins = {}
    for workload in bench.WORKLOADS:
        for tiny in (False, True):
            workdir = bench.OUT / f"pin-{workload}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                mods, items, _ = bench.set_up(workload, bench.DEFAULT_SEED, tiny, workdir)
                done = bench.one_pass(mods, items, True, {})
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for item, out in zip(items, done.outcomes):
                if out.problems:
                    print(f"{workload}/{item.spec.name}: {out.problems}", file=sys.stderr)
                    return 1
                pins[item.key] = {
                    "name": f"{workload}/{item.spec.name}" + (" (tiny)" if tiny else ""),
                    "trace_sha256": out.trace_sha256,
                    "summary_sha256": out.summary_sha256,
                    "opt": out.opt,
                }
                print(f"pinned {pins[item.key]['name']}", flush=True)
    doc = {"default_seed": bench.DEFAULT_SEED, "instances": pins}
    (bench.HERE / "pinned.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
