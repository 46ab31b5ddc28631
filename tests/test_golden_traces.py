"""Golden traces: for a fixed instance the JSON-lines trace and the summary
are the engine's contract, byte for byte.

``golden_traces.json`` pins the sha256 of both for every case below.  Any
rewrite of engine internals must reproduce them exactly.  Regenerate the
file only at a commit whose outputs are the reference:

    PYTHONPATH=src python tests/test_golden_traces.py --write
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from delaymatch.engine import EventRecord, GreedyDualEngine, events_to_jsonl, run
from delaymatch.generators import gen_random_instance, gen_ring_instance, gen_tightness_instance
from delaymatch.instance import MBPMD, MPMD, make_instance
from delaymatch.scalars import dump_scalar

GOLDEN = Path(__file__).with_name("golden_traces.json")

# The reference trace encoder: each event as one dict through json's own
# encoder, strict, so a NaN or infinite time raises ValueError.
_encode = json.JSONEncoder(allow_nan=False).encode


def event_to_json(ev: EventRecord, mode: str) -> str:
    payload = {k: (dump_scalar(v, mode) if k in ("from", "to") else v) for k, v in ev.payload.items()}
    return _encode({"t": dump_scalar(ev.t, mode), "kind": ev.kind, "payload": payload})


def reference_jsonl(result) -> str:
    """The bytes ``events_to_jsonl`` must write for ``result``."""
    return "".join(event_to_json(ev, result.mode) + "\n" for ev in result.event_log)

RANDOM_SIZES = (1, 2, 3, 5, 8, 12, 17, 22, 26, 30)  # m for seeds 0..9
FLOAT_SIZES = (6, 12, 20, 30)  # m for euclidean seeds 0..3


def _stepwise():
    # Off-grid clock moves (thirds, then sevenths) on a half-integer
    # instance, before the run takes over; nothing is due before t = 3/2.
    inst = make_instance(
        MPMD,
        {"kind": "line"},
        [(0, 0, 0), (9, 0, 0), (Fraction(1, 2), Fraction(3, 2), 0), (4, Fraction(5, 2), 0)],
    )
    eng = GreedyDualEngine(inst)
    eng.step()
    eng.advance_to(Fraction(1, 3))
    eng.advance_to(Fraction(5, 7))
    return eng.run()


def cases():
    """Case name -> thunk returning the RunResult."""
    out = {}
    for m in (4, 10, 50):
        for variant in (MPMD, MBPMD):
            out[f"tightness-{variant}-m{m}"] = lambda m=m, v=variant: run(gen_tightness_instance(m, variant=v))
    for m in (6, 8, 24):
        for half in ("cw", "ccw"):
            out[f"ring-{half}-m{m}"] = lambda m=m, h=half: run(gen_ring_instance(m, covered_half=h))
    for kind in ("line", "ring", "matrix"):
        for variant in (MPMD, MBPMD):
            for seed, m in enumerate(RANDOM_SIZES):
                out[f"random-{kind}-{variant}-s{seed}-m{m}"] = lambda s=seed, m=m, k=kind, v=variant: run(
                    gen_random_instance(seed=s, m=m, variant=v, metric_kind=k)
                )
    for variant in (MPMD, MBPMD):
        for seed, m in enumerate(FLOAT_SIZES):
            out[f"random-euclidean-{variant}-s{seed}-m{m}"] = lambda s=seed, m=m, v=variant: run(
                gen_random_instance(seed=s, m=m, variant=v, metric_kind="euclidean")
            )
    out["stepwise-off-grid-advances"] = _stepwise
    return out


def digests(result) -> dict:
    trace = events_to_jsonl(result).encode()
    summary = json.dumps(result.summary(), sort_keys=True).encode()
    return {
        "trace_sha256": hashlib.sha256(trace).hexdigest(),
        "summary_sha256": hashlib.sha256(summary).hexdigest(),
    }


CASES = cases()


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_and_summary_match_golden(name):
    golden = json.loads(GOLDEN.read_text())
    result = CASES[name]()
    assert digests(result) == golden[name]
    assert events_to_jsonl(result) == reference_jsonl(result)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_traces.py --write")
    doc = {name: digests(thunk()) for name, thunk in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
