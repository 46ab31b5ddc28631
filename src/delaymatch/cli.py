"""Command-line interface.

Subcommands: ``gen`` writes generator instances, ``run`` executes the
matching engine, ``opt`` computes offline optima, ``certify`` re-verifies a
trace file, ``bench`` sweeps a batch of instances into a report.

Exit codes: 0 on success, 1 for unusable input (bad arguments, files, or
instance documents), 2 when certification or a run-time property check
fails.  All JSON output is canonical (two-space indent, sorted insertion
order, trailing newline) so identical invocations produce identical bytes;
it is strict JSON, so a value that would print as NaN or Infinity is an
error (exit 1) instead.  Wall-clock timings stay out of reports unless
``--timing`` asks for them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from pathlib import Path

from .certify import certify, certify_events, ratio_report
from .engine import EngineInvariantError, GreedyDualEngine, events_from_jsonl, events_to_jsonl
from .generators import gen_random_instance, gen_ring_instance, gen_tightness_instance
from .instance import MBPMD, MPMD, decode_json, instance_json, parse_instance
from .offline import BRUTE_LIMIT, opt_brute, opt_hungarian
from .scalars import MODES, ScalarError, dump_ratio, dump_scalar, parse_scalar


class CliError(Exception):
    """Unusable input; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # certification failures, so downgrade usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _emit(doc) -> None:
    sys.stdout.write(_json_text(doc))


# A scalar's JSON text as json.dumps writes it, but strict: NaN or infinity raises ValueError.
_encode = json.JSONEncoder(allow_nan=False).encode


_ROWS_PER_PIECE = 4096


def _certificate_pieces(cert):
    """``_json_text(cert.to_json())`` in pieces of at most
    ``_ROWS_PER_PIECE`` rows, so the whole text is never held, without the
    pure-Python encoder the indent forces on every row: the scalar fields go
    through ``_json_text``, then each ``edge_slacks`` row is written in the
    five lines the indent gives it, with its slack's text from the C
    encoder, computed once per distinct slack in exact mode.  Every text is
    computed before the first piece is yielded, so a non-finite value raises
    ValueError before anything is written."""
    head = _json_text({**cert.scalar_fields(), "edge_slacks": []})
    slacks, scale = cert.slacks, cert.scale
    if not slacks:
        yield head
        return
    if scale is None:
        texts = [_encode(dump_scalar(s, cert.mode)) for _, _, s in slacks]
    else:
        printed, texts = {}, []  # scaled slack -> its text
        for _, _, s in slacks:
            text = printed.get(s)
            if text is None:
                text = printed[s] = _encode(dump_ratio(s, scale))
            texts.append(text)
    yield head.removesuffix("[]\n}\n") + "[\n"
    for i in range(0, len(slacks), _ROWS_PER_PIECE):
        piece = zip(slacks[i : i + _ROWS_PER_PIECE], texts[i : i + _ROWS_PER_PIECE])
        rows = ",\n".join(f"    [\n      {u},\n      {v},\n      {text}\n    ]" for (u, v, _), text in piece)
        if i:
            yield ",\n"
        yield rows
    yield "\n  ]\n}\n"


def _certificate_text(cert) -> str:
    return "".join(_certificate_pieces(cert))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _env_mode():
    mode = os.environ.get("DM_MODE")
    if mode is None:
        return None
    if mode not in MODES:
        raise CliError(f"DM_MODE must be one of {sorted(MODES)}, got {mode!r}")
    return mode


def _load_instance(path: str, mode_flag):
    doc = decode_json(_read_text(path))
    if not isinstance(doc, dict):
        raise CliError(f"{path}: instance document must be a JSON object")
    if mode_flag is not None:
        doc = dict(doc)
        doc["mode"] = mode_flag
    return parse_instance(doc, default=_env_mode())


# -- gen -----------------------------------------------------------------


# Generator families for `gen` and `bench --gen`: each builds its instance
# from ``get(key[, default])``, which reads a parsed option or a spec key.
_GENERATORS = {
    "tightness": lambda get: gen_tightness_instance(int(get("m")), variant=get("variant", MPMD)),
    "ring": lambda get: gen_ring_instance(int(get("m"))),
    "random": lambda get: gen_random_instance(
        seed=int(get("seed")),
        m=int(get("m")),
        variant=get("variant", MPMD),
        metric_kind=get("metric", "line"),
    ),
}


def _cmd_gen(args) -> int:
    inst = _GENERATORS[args.family](lambda key, *default: getattr(args, key))
    _write_text(args.output, instance_json(inst))
    return 0


# -- run -----------------------------------------------------------------


def _cmd_run(args) -> int:
    inst = _load_instance(args.instance, args.mode)
    engine = GreedyDualEngine(inst, self_check=args.self_check)
    result = engine.run()
    if args.trace:
        _write_text(args.trace, events_to_jsonl(result))
    if args.certify:
        cert = certify(inst, result)
        if not cert.ok:
            _emit(cert.to_json())
            return 2
        doc = result.summary()
        doc["certified"] = True
        _emit(doc)
        return 0
    _emit(result.summary())
    return 0


# -- opt -----------------------------------------------------------------


def _pick_opt(inst, method):
    if method == "brute":
        return opt_brute(inst)
    if method == "hungarian":
        return opt_hungarian(inst)
    # auto: exact enumeration while small, assignment solver when two-sided
    if len(inst.requests) <= BRUTE_LIMIT:
        return opt_brute(inst)
    if inst.variant == MBPMD:
        return opt_hungarian(inst)
    return None


def _cmd_opt(args) -> int:
    inst = _load_instance(args.instance, args.mode)
    sol = _pick_opt(inst, args.method)
    if sol is None:
        raise CliError(
            f"no offline method for a {inst.variant} instance with {len(inst.requests)} requests; "
            f"exact enumeration stops at {BRUTE_LIMIT}"
        )
    _emit(
        {
            "value": dump_scalar(sol.value, inst.mode),
            "method": sol.method,
            "pairs": [[u, v] for u, v in sol.pairs],
        }
    )
    return 0


# -- certify ---------------------------------------------------------------


_EXPECT_COSTS = ("connection_cost", "waiting_cost", "total_cost", "dual_objective")
_EXPECT_COUNTS = ("m", "num_sets", "num_marked_edges")


def _expected(key, value, mode):
    """The value of an ``--expect`` field: a count must be a JSON integer, a
    cost a scalar of ``mode``."""
    if key in _EXPECT_COUNTS:
        if type(value) is int:
            return value
        raise CliError(f"--expect: {key} must be an integer, got {value!r}")
    try:
        return parse_scalar(value, mode)
    except ScalarError as exc:
        raise CliError(f"--expect: {key}: {exc}") from None


def _cmd_certify(args) -> int:
    inst = _load_instance(args.instance, args.mode)
    events = events_from_jsonl(_read_text(args.trace), inst.mode)
    cert = certify_events(inst, events)
    if not cert.ok:
        _emit(cert.to_json())
        return 2
    if args.expect:
        doc = cert.scalar_fields()
        expected = decode_json(_read_text(args.expect))
        if not isinstance(expected, dict):
            raise CliError(f"--expect: summary must be a JSON object, got {type(expected).__name__}")
        mismatch = {
            key: {"expected": expected[key], "actual": doc[key]}
            for key in _EXPECT_COSTS + _EXPECT_COUNTS
            if key in expected and _expected(key, expected[key], inst.mode) != getattr(cert, key)
        }
        if mismatch:
            _emit({"ok": False, "property": "summary-consistency", "mismatch": mismatch})
            return 2
    sys.stdout.writelines(_certificate_pieces(cert))
    return 0


# -- bench ---------------------------------------------------------------

_BENCH_COLUMNS = [
    "id",
    "variant",
    "mode",
    "m",
    "connection_cost",
    "waiting_cost",
    "total_cost",
    "dual_objective",
    "opt_method",
    "opt_value",
    "ratio_vs_dual",
    "ratio_vs_opt",
    "bound_factor",
    "within_bound",
    "certified",
]


def _parse_gen_spec(spec: str):
    family, _, rest = spec.partition(":")
    kwargs = {}
    if rest:
        for part in rest.split(","):
            key, sep, value = part.partition("=")
            if not sep:
                raise CliError(f"bad generator spec {spec!r}: expected key=value, got {part!r}")
            if key in kwargs:
                raise CliError(f"bad generator spec {spec!r}: key {key!r} given twice")
            kwargs[key] = value
    build = _GENERATORS.get(family)
    if build is None:
        raise CliError(f"unknown generator family {family!r} in {spec!r}")
    try:
        return build(lambda key, *default: kwargs.pop(key, *default)), kwargs
    except KeyError as exc:
        raise CliError(f"generator spec {spec!r} is missing {exc}") from None


def _bench_one(rec_id, inst, args):
    started = time.perf_counter()
    result = GreedyDualEngine(inst).run()
    elapsed = time.perf_counter() - started

    opt_method = "none"
    opt_value = None
    if args.opt != "none":
        sol = _pick_opt(inst, args.opt)
        if sol is not None:
            opt_method = sol.method
            opt_value = sol.value

    report = ratio_report(inst, result, opt_value)
    certified = None
    violation = None
    if args.certify:
        cert = certify(inst, result)
        certified = cert.ok
        if not cert.ok:
            violation = cert.to_json()

    summary, ratios = result.summary(), report.to_json()
    row = {
        "id": rec_id,
        "variant": inst.variant,
        "mode": inst.mode,
        "m": inst.m,
        "connection_cost": summary["connection_cost"],
        "waiting_cost": summary["waiting_cost"],
        "total_cost": summary["total_cost"],
        "dual_objective": summary["dual_objective"],
        "opt_method": opt_method,
        "opt_value": None if opt_value is None else dump_scalar(opt_value, inst.mode),
        "ratio_vs_dual": ratios["ratio_vs_dual"],
        "ratio_vs_opt": ratios["ratio_vs_opt"],
        "bound_factor": report.bound_factor,
        "within_bound": report.within_bound,
        "certified": certified,
    }
    if args.timing:
        row["wall_time_s"] = round(elapsed, 6)
    if violation is not None:
        row["violation"] = violation
    # Raw ratios ride along for aggregation, outside the serialized row.
    return row, report, inst.mode


def _cmd_bench(args) -> int:
    jobs = []
    for path in args.instances:
        jobs.append((Path(path).stem, _load_instance(path, args.mode)))
    for spec in args.gen or []:
        inst, leftover = _parse_gen_spec(spec)
        if leftover:
            raise CliError(f"generator spec {spec!r} has unused keys {sorted(leftover)}")
        jobs.append((spec, inst))
    if not jobs:
        raise CliError("bench needs instance files and/or --gen specs")
    jobs.sort(key=lambda job: job[0])

    rows = []
    max_dual = None  # (float key, scalar, mode)
    max_opt = None
    all_within = True
    all_certified = True
    for rec_id, inst in jobs:
        row, report, mode = _bench_one(rec_id, inst, args)
        rows.append(row)
        if report.ratio_vs_dual is not None:
            key = float(report.ratio_vs_dual)
            if max_dual is None or key > max_dual[0]:
                max_dual = (key, report.ratio_vs_dual, mode)
        if report.ratio_vs_opt is not None:
            key = float(report.ratio_vs_opt)
            if max_opt is None or key > max_opt[0]:
                max_opt = (key, report.ratio_vs_opt, mode)
        if not report.within_bound:
            all_within = False
        if row["certified"] is False:
            all_certified = False

    doc = {
        "rows": rows,
        "aggregate": {
            "count": len(rows),
            "max_ratio_vs_dual": None if max_dual is None else dump_scalar(max_dual[1], max_dual[2]),
            "max_ratio_vs_opt": None if max_opt is None else dump_scalar(max_opt[1], max_opt[2]),
            "all_within_bound": all_within,
            "all_certified": all_certified if args.certify else None,
        },
    }

    if args.out:
        columns = list(_BENCH_COLUMNS) + (["wall_time_s"] if args.timing else [])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                ["" if row.get(col) is None else str(row.get(col)) for col in columns]
            )
        Path(args.out + ".json").write_text(_json_text(doc))  # raises before any file is written
        Path(args.out + ".csv").write_text(buf.getvalue())
    else:
        _emit(doc)

    if not all_within or (args.certify and not all_certified):
        return 2
    return 0


# -- wiring ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so ``main`` reuses it on every call."""
    parser = _Parser(prog="delaymatch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generated instance as JSON")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    g_tight = gen_sub.add_parser("tightness", help="two-point family with ratio near m/2")
    g_tight.add_argument("--m", type=int, required=True, help="number of request pairs (even)")
    g_tight.add_argument("--variant", choices=[MPMD, MBPMD], default=MPMD)
    g_ring = gen_sub.add_parser("ring", help="circle family with deep merge cascades")
    g_ring.add_argument("--m", type=int, required=True, help="number of request pairs (even, >= 6)")
    g_rand = gen_sub.add_parser("random", help="seeded random instance")
    g_rand.add_argument("--seed", type=int, required=True)
    g_rand.add_argument("--m", type=int, required=True, help="number of request pairs")
    g_rand.add_argument("--variant", choices=[MPMD, MBPMD], default=MPMD)
    g_rand.add_argument(
        "--metric", choices=["line", "ring", "euclidean", "matrix"], default="line"
    )
    for sp in (g_tight, g_ring, g_rand):
        sp.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    runp = sub.add_parser("run", help="run the matching engine on an instance")
    runp.add_argument("instance", help="instance JSON file, or - for stdin")
    runp.add_argument("--mode", choices=sorted(MODES), help="override the arithmetic mode")
    runp.add_argument("--trace", help="write the event log to this file as JSON lines")
    runp.add_argument("--certify", action="store_true", help="verify the run before reporting")
    runp.add_argument(
        "--self-check",
        action="store_true",
        help="replay every step through the certifier and check engine caches as the run goes",
    )
    runp.set_defaults(func=_cmd_run)

    optp = sub.add_parser("opt", help="compute an offline optimal matching")
    optp.add_argument("instance")
    optp.add_argument("--mode", choices=sorted(MODES))
    optp.add_argument(
        "--method", choices=["auto", "brute", "hungarian"], default="auto"
    )
    optp.set_defaults(func=_cmd_opt)

    certp = sub.add_parser("certify", help="verify a recorded trace against its instance")
    certp.add_argument("instance")
    certp.add_argument("trace", help="event log in JSON-lines form")
    certp.add_argument("--mode", choices=sorted(MODES))
    certp.add_argument("--expect", help="summary JSON whose totals must match the replay")
    certp.set_defaults(func=_cmd_certify)

    bench = sub.add_parser("bench", help="run a batch and report costs, ratios, and bounds")
    bench.add_argument("instances", nargs="*", help="instance JSON files")
    bench.add_argument("--gen", action="append", help="generator spec, e.g. tightness:m=10")
    bench.add_argument("--mode", choices=sorted(MODES))
    bench.add_argument("--opt", choices=["auto", "brute", "hungarian", "none"], default="auto")
    bench.add_argument("--certify", action="store_true")
    bench.add_argument("--out", help="write BASE.csv and BASE.json instead of stdout")
    bench.add_argument("--timing", action="store_true", help="include wall-clock seconds per row")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"delaymatch: error: bad JSON input: {exc}", file=sys.stderr)
        return 1
    except (CliError, ValueError, OSError) as exc:  # every input error is a ValueError
        print(f"delaymatch: error: {exc}", file=sys.stderr)
        return 1
    except EngineInvariantError as exc:
        print(f"delaymatch: property violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
