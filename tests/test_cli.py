import json
import os
import subprocess
import sys
from dataclasses import replace
from math import nan

import pytest

from delaymatch import cli
from delaymatch.certify import certify, certify_events
from delaymatch.engine import events_from_jsonl, events_to_jsonl, run
from delaymatch.generators import gen_random_instance, gen_ring_instance, gen_tightness_instance
from delaymatch.instance import MPMD, instance_json, make_instance, parse_instance
from test_event_search import near_tie_instance

CLI = [sys.executable, "-m", "delaymatch.cli"]


def run_cli(*args, env_extra=None, input_text=None, timeout=None):
    env = dict(os.environ)
    env.pop("DM_MODE", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args),
        capture_output=True,
        text=True,
        env=env,
        input=input_text,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def tight4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tight4.json"
    proc = run_cli("gen", "tightness", "--m", "4", "-o", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


def test_gen_writes_a_valid_instance(tight4_file):
    doc = json.loads(tight4_file.read_text())
    assert doc["variant"] == "mpmd"
    assert doc["metric"]["kind"] == "matrix"
    assert len(doc["requests"]) == 8


def test_gen_to_stdout():
    proc = run_cli("gen", "random", "--seed", "3", "--m", "2", "--metric", "ring")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["metric"]["kind"] == "ring"


def test_run_reports_summary(tight4_file):
    proc = run_cli("run", str(tight4_file))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["total_cost"] == "23/2"
    assert doc["num_marked_edges"] == 7


def test_run_reads_stdin(tight4_file):
    proc = run_cli("run", "-", input_text=tight4_file.read_text())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_cost"] == "23/2"


def test_run_certify_flag(tight4_file):
    proc = run_cli("run", str(tight4_file), "--certify")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certified"] is True


def test_run_self_check_flag(tight4_file):
    proc = run_cli("run", str(tight4_file), "--self-check")
    assert proc.returncode == 0


def test_run_emits_byte_identical_output(tight4_file, tmp_path):
    t1, t2 = tmp_path / "a.trace", tmp_path / "b.trace"
    p1 = run_cli("run", str(tight4_file), "--trace", str(t1))
    p2 = run_cli("run", str(tight4_file), "--trace", str(t2))
    assert p1.returncode == p2.returncode == 0
    assert p1.stdout == p2.stdout
    assert t1.read_bytes() == t2.read_bytes()


def test_trace_certifies_and_matches_summary(tight4_file, tmp_path):
    trace = tmp_path / "t.trace"
    summary = tmp_path / "summary.json"
    proc = run_cli("run", str(tight4_file), "--trace", str(trace))
    summary.write_text(proc.stdout)
    check = run_cli("certify", str(tight4_file), str(trace), "--expect", str(summary))
    assert check.returncode == 0, check.stdout + check.stderr
    assert json.loads(check.stdout)["ok"] is True


def test_tampered_trace_fails_with_exit_2(tight4_file, tmp_path):
    trace = tmp_path / "t.trace"
    run_cli("run", str(tight4_file), "--trace", str(trace))
    lines = trace.read_text().splitlines()
    idx = max(i for i, line in enumerate(lines) if '"match"' in line)
    del lines[idx]
    trace.write_text("\n".join(lines) + "\n")
    check = run_cli("certify", str(tight4_file), str(trace))
    assert check.returncode == 2
    assert json.loads(check.stdout)["ok"] is False


def test_a_trace_cut_after_its_last_arrival_exits_2(tmp_path):
    """Four requests at time 0, and the trace stops after their arrivals:
    ``certify`` names the unmatched requests at the endgame."""
    inst = make_instance(MPMD, {"kind": "line"}, [(0, 0, 0), (0, 0, 0), (100, 0, 0), (100, 0, 0)])
    path, trace = tmp_path / "four.json", tmp_path / "four.jsonl"
    path.write_text(instance_json(inst))
    lines = events_to_jsonl(run(inst)).splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if '"kind": "arrival"' in line)
    trace.write_text("".join(lines[: last + 1]))
    check = run_cli("certify", str(path), str(trace))
    assert check.returncode == 2, check.stdout + check.stderr
    doc = json.loads(check.stdout)
    assert (doc["property"], doc["detail"], doc["event_index"], doc["witness"]) == (
        "matching-validity",
        "run ended with unmatched requests",
        -1,
        {"unmatched": [0, 1, 2, 3]},
    )


@pytest.mark.parametrize(
    "line",
    [
        '{"t": 0, "kind": "arrival", "payload": 5}',
        '{"t": 0, "kind": ["arrival"], "payload": {"u": 0}}',
    ],
    ids=["payload-not-object", "kind-not-string"],
)
def test_malformed_trace_line_is_an_input_error(tight4_file, tmp_path, line):
    trace = tmp_path / "bad.trace"
    trace.write_text(line + "\n")
    check = run_cli("certify", str(tight4_file), str(trace))
    assert check.returncode == 1, check.stdout + check.stderr
    assert check.stderr.startswith("delaymatch: error: trace line 1: ")
    assert "Traceback" not in check.stderr


ARRIVAL_1 = '{"t": 0, "kind": "arrival", "payload": {"u": 1}}'  # the second line of a tightness trace


def _trace_with_line_2(tight4_file, trace, line):
    assert run_cli("run", str(tight4_file), "--trace", str(trace)).returncode == 0
    lines = trace.read_text().splitlines()
    assert lines[1] == ARRIVAL_1
    trace.write_text("\n".join([lines[0], line, *lines[2:]]) + "\n")


@pytest.mark.parametrize(
    "line, error",
    [
        (ARRIVAL_1.replace('"t": 0, ', ""), "missing field 't'"),
        (ARRIVAL_1[:-1] + ', "extra": 1}', "unknown fields ['extra']"),
        (ARRIVAL_1.replace('"t": 0, ', '"t": 5, "t": 0, '), "repeated key 't'"),
        (ARRIVAL_1.replace('{"u": 1}', '{"u": 3, "u": 1}'), "repeated key 'u'"),
    ],
    ids=["no-t", "extra-field", "two-t", "two-u"],
)
def test_a_trace_line_of_another_shape_is_an_input_error(tight4_file, tmp_path, line, error):
    trace = tmp_path / "t.trace"
    _trace_with_line_2(tight4_file, trace, line)
    proc = run_cli("certify", str(tight4_file), str(trace))
    _assert_input_error(proc)
    assert proc.stderr == f"delaymatch: error: trace line 2: {error}\n"


def test_an_instance_with_a_repeated_key_is_an_input_error(tight4_file, tmp_path):
    text = tight4_file.read_text()
    doc = json.loads(text)
    twice = tmp_path / "twice.json"
    twice.write_text(text.replace('"requests": [', '"requests": [], "requests": [', 1))
    assert json.loads(twice.read_text()) == doc  # json.loads would keep the last
    for argv in (("run", str(twice)), ("opt", str(twice)), ("certify", str(twice), str(tmp_path / "unread.trace"))):
        proc = run_cli(*argv)
        _assert_input_error(proc)
        assert proc.stderr == "delaymatch: error: repeated key 'requests'\n"


def test_an_unknown_payload_field_fails_certification(tight4_file, tmp_path):
    trace = tmp_path / "t.trace"
    _trace_with_line_2(tight4_file, trace, ARRIVAL_1.replace('{"u": 1}', '{"u": 1, "junk": 7}'))
    proc = run_cli("certify", str(tight4_file), str(trace))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["property"], doc["detail"], doc["event_index"]) == (
        "trace-shape",
        "arrival event has unknown fields ['junk']",
        1,
    )


def test_expect_must_be_a_json_object(tight4_file, tmp_path):
    trace, summary = tmp_path / "t.trace", tmp_path / "expect.json"
    run_cli("run", str(tight4_file), "--trace", str(trace))
    summary.write_text("[1, 2]\n")
    check = run_cli("certify", str(tight4_file), str(trace), "--expect", str(summary))
    assert check.returncode == 1, check.stdout + check.stderr
    assert check.stderr.startswith("delaymatch: error: --expect: ")
    assert check.stdout == ""


@pytest.fixture(scope="module")
def tight4_trace(tight4_file, tmp_path_factory):
    trace = tmp_path_factory.mktemp("expect") / "t.trace"
    assert run_cli("run", str(tight4_file), "--trace", str(trace)).returncode == 0
    return trace


def _certify_expecting(tight4_file, trace, tmp_path, expected):
    summary = tmp_path / "expect.json"
    summary.write_text(json.dumps(expected))
    return run_cli("certify", str(tight4_file), str(trace), "--expect", str(summary))


# tight4 certifies with connection 8, waiting 7/2, m 4 and 15 sets, in exact mode.
@pytest.mark.parametrize(
    "expected",
    [{"m": 4.0}, {"m": True}, {"num_sets": "15"}, {"connection_cost": 8.0}, {"waiting_cost": True}, {"waiting_cost": "7/"}],
    ids=["float-count", "bool-count", "string-count", "float-cost-in-exact-mode", "bool-cost", "bad-rational"],
)
def test_expect_value_that_breaks_the_scalar_rule_is_an_input_error(tight4_file, tight4_trace, tmp_path, expected):
    check = _certify_expecting(tight4_file, tight4_trace, tmp_path, expected)
    assert check.returncode == 1, check.stdout + check.stderr
    key = next(iter(expected))
    assert check.stderr.startswith(f"delaymatch: error: --expect: {key}") and check.stderr.count("\n") == 1
    assert check.stdout == ""


def test_expect_costs_are_compared_by_value(tight4_file, tight4_trace, tmp_path):
    same = {"connection_cost": "16/2", "waiting_cost": "14/4", "total_cost": "23/2", "m": 4}
    check = _certify_expecting(tight4_file, tight4_trace, tmp_path, same)
    assert check.returncode == 0, check.stdout + check.stderr
    check = _certify_expecting(tight4_file, tight4_trace, tmp_path, {"waiting_cost": "14/3", "m": 5})
    assert check.returncode == 2, check.stdout + check.stderr
    assert json.loads(check.stdout)["mismatch"] == {
        "waiting_cost": {"expected": "14/3", "actual": "7/2"},
        "m": {"expected": 5, "actual": 4},
    }


@pytest.mark.parametrize("dist", ["[0, 1]", '[[0, 1], "10"]', '[[0, 1], {"1": 0, "0": 1}]'], ids=["flat", "string-row", "object-row"])
def test_matrix_row_that_is_not_a_list_is_an_input_error(tmp_path, dist):
    path = tmp_path / "inst.json"
    metric = f'{{"kind": "matrix", "dist": {dist}}}'
    path.write_text(f'{{"variant": "mpmd", "metric": {metric}, "requests": [{{"pos": 0, "atime": 0}}, {{"pos": 1, "atime": 0}}]}}')
    proc = run_cli("run", str(path))
    _assert_input_error(proc)
    assert proc.stderr.startswith("delaymatch: error: bad metric: matrix row ")


def test_opt_value(tight4_file):
    proc = run_cli("opt", str(tight4_file))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value"] == "7/2"
    assert doc["method"] == "brute"


def test_opt_hungarian_rejects_plain_variant(tight4_file):
    proc = run_cli("opt", str(tight4_file), "--method", "hungarian")
    assert proc.returncode == 1


def test_missing_file_is_an_input_error():
    proc = run_cli("run", "/nonexistent/inst.json")
    assert proc.returncode == 1
    assert proc.stderr


def test_bad_json_is_an_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("run", str(path))
    assert proc.returncode == 1


def test_invalid_instance_is_an_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"variant": "mpmd", "metric": {"kind": "line"}, "requests": [{"pos": 0, "atime": 0, "sgn": 0}]}))
    proc = run_cli("run", str(path))
    assert proc.returncode == 1


def test_usage_errors_exit_1():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1
    proc = run_cli("gen", "tightness")  # --m missing
    assert proc.returncode == 1


def test_mode_resolution_precedence(tmp_path):
    doc = {
        "variant": "mpmd",
        "metric": {"kind": "line"},
        "requests": [
            {"pos": 0, "atime": 0, "sgn": 0},
            {"pos": 3, "atime": 0, "sgn": 0},
        ],
    }
    path = tmp_path / "nomode.json"
    path.write_text(json.dumps(doc))
    # kind default: exact, so costs come out as rationals/ints
    base = json.loads(run_cli("run", str(path)).stdout)
    assert base["waiting_cost"] == 3
    # DM_MODE steers documents that do not declare a mode
    env = json.loads(run_cli("run", str(path), env_extra={"DM_MODE": "float"}).stdout)
    assert env["waiting_cost"] == 3.0 and isinstance(env["waiting_cost"], float)
    # the --mode flag beats DM_MODE
    flag = json.loads(
        run_cli("run", str(path), "--mode", "exact", env_extra={"DM_MODE": "float"}).stdout
    )
    assert flag["waiting_cost"] == 3 and isinstance(flag["waiting_cost"], int)
    # a declared document mode beats DM_MODE
    doc["mode"] = "exact"
    path.write_text(json.dumps(doc))
    declared = json.loads(run_cli("run", str(path), env_extra={"DM_MODE": "float"}).stdout)
    assert isinstance(declared["waiting_cost"], int)
    # bad DM_MODE is an input error
    proc = run_cli("run", str(path), env_extra={"DM_MODE": "decimal"})
    assert proc.returncode == 1


def test_bench_writes_sorted_deterministic_reports(tmp_path):
    args = [
        "bench",
        "--gen",
        "tightness:m=4",
        "--gen",
        "random:seed=1,m=3,metric=line",
        "--certify",
    ]
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    p1 = run_cli(*args, "--out", str(out1))
    p2 = run_cli(*args, "--out", str(out2))
    assert p1.returncode == p2.returncode == 0
    csv1 = (tmp_path / "b1.csv").read_bytes()
    assert csv1 == (tmp_path / "b2.csv").read_bytes()
    assert (tmp_path / "b1.json").read_bytes() == (tmp_path / "b2.json").read_bytes()
    doc = json.loads((tmp_path / "b1.json").read_text())
    ids = [row["id"] for row in doc["rows"]]
    assert ids == sorted(ids)
    assert doc["aggregate"]["count"] == 2
    assert doc["aggregate"]["all_within_bound"] is True
    assert doc["aggregate"]["all_certified"] is True
    header = csv1.decode().splitlines()[0]
    assert "wall_time_s" not in header


def test_bench_timing_column_is_opt_in(tmp_path):
    proc = run_cli(
        "bench", "--gen", "tightness:m=4", "--timing", "--out", str(tmp_path / "t")
    )
    assert proc.returncode == 0
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header.endswith("wall_time_s")


def test_bench_stdout_mode(tight4_file):
    proc = run_cli("bench", str(tight4_file))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["rows"][0]["id"] == "tight4"
    assert doc["rows"][0]["ratio_vs_opt"] == "23/7"


def test_bench_rejects_empty_job_list():
    proc = run_cli("bench")
    assert proc.returncode == 1


def test_bench_rejects_bad_gen_spec():
    assert run_cli("bench", "--gen", "tightness").returncode == 1
    assert run_cli("bench", "--gen", "tightness:m=4,bogus=1").returncode == 1
    assert run_cli("bench", "--gen", "warp:m=4").returncode == 1


def test_bench_gen_spec_refuses_a_repeated_key():
    proc = run_cli("bench", "--gen", "tightness:m=2,m=4")
    _assert_input_error(proc)
    assert "key 'm' given twice" in proc.stderr


# JSON texts of values that are not finite binary64 numbers.
NON_FINITE = {
    "NaN": "NaN",
    "Infinity": "Infinity",
    "-Infinity": "-Infinity",
    "1e400": "1e400",
    "400-digit-int": "1" * 400,
    "string-1e400": '"1e400"',
}

# Metric and requests of a float document, with TOKEN in the named field.
FLOAT_FIELDS = {
    "arrival time": ('{"kind": "line"}', '[{"pos": 0, "atime": 0}, {"pos": 1, "atime": TOKEN}]'),
    "line position": ('{"kind": "line"}', '[{"pos": 0, "atime": 0}, {"pos": TOKEN, "atime": 1}]'),
    "euclidean coordinate": ('{"kind": "euclidean"}', '[{"pos": [0, 0], "atime": 0}, {"pos": [1, TOKEN], "atime": 1}]'),
    "ring circumference": ('{"kind": "ring", "h": TOKEN}', '[{"pos": 0, "atime": 0}, {"pos": 1, "atime": 1}]'),
}


def _float_doc(metric, requests):
    return f'{{"variant": "mpmd", "mode": "float", "metric": {metric}, "requests": {requests}}}'


def _assert_input_error(proc):
    # One error line, no traceback, nothing on stdout (so no NaN or Infinity).
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr.startswith("delaymatch: error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("token", NON_FINITE.values(), ids=NON_FINITE)
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_float_input_that_is_not_a_finite_binary64_is_an_input_error(tmp_path, field, token):
    # The timeout turns an engine that spins on a NaN clock into a failure.
    path = tmp_path / "inst.json"
    path.write_text(_float_doc(*FLOAT_FIELDS[field]).replace("TOKEN", token))
    _assert_input_error(run_cli("run", str(path), timeout=10))


@pytest.mark.parametrize("token", NON_FINITE.values(), ids=NON_FINITE)
def test_float_trace_time_that_is_not_a_finite_binary64_is_an_input_error(tmp_path, token):
    inst, trace = tmp_path / "inst.json", tmp_path / "run.trace"
    inst.write_text(_float_doc(*FLOAT_FIELDS["arrival time"]).replace("TOKEN", "1"))
    assert run_cli("run", str(inst), "--trace", str(trace)).returncode == 0
    lines = trace.read_text().splitlines()
    assert lines[-1].startswith('{"t": 1.5, ')
    trace.write_text("\n".join(lines[:-1] + [lines[-1].replace("1.5", token, 1)]) + "\n")
    proc = run_cli("certify", str(inst), str(trace), timeout=10)
    _assert_input_error(proc)
    assert proc.stderr.startswith(f"delaymatch: error: trace line {len(lines)}: ")


def test_overflowing_distance_is_refused_not_printed(tmp_path):
    # Finite positions 2e308 apart: the pair's budget overflows to inf.
    far = '{"pos": -1e308, "atime": 0}, {"pos": 1e308, "atime": 0}'
    pair = tmp_path / "pair.json"
    pair.write_text(_float_doc('{"kind": "line"}', f"[{far}]"))
    # Refused before the first event, where the clock would go to inf and
    # then NaN.
    refused = "delaymatch: error: float budgets overflow: "
    for args in (["run", str(pair)], ["opt", str(pair)]):
        proc = run_cli(*args, timeout=10)
        _assert_input_error(proc)
        assert proc.stderr.startswith(refused), proc.stderr
    # With a near pair first, the run would end at an infinite clock.
    four = tmp_path / "four.json"
    near = '{"pos": 0, "atime": 1}, {"pos": 1, "atime": 2}'
    four.write_text(_float_doc('{"kind": "line"}', f"[{far}, {near}]"))
    for args in (["run", str(four)], ["run", str(four), "--trace", "-"], ["run", str(four), "--self-check"], ["opt", str(four)]):
        proc = run_cli(*args, timeout=10)
        _assert_input_error(proc)
        assert proc.stderr.startswith(refused), proc.stderr


def test_overflowing_clock_is_refused_not_printed(tmp_path):
    # Every budget is finite, but the tight time after the last arrival,
    # located as twice the clock plus twice the time left, would be inf.
    late = tmp_path / "late.json"
    late.write_text(
        _float_doc(
            '{"kind": "line"}',
            '[{"pos": 0, "atime": 0}, {"pos": 0, "atime": 0}, {"pos": 0, "atime": 1e308}, {"pos": 1, "atime": 1e308}]',
        )
    )
    refused = "delaymatch: error: float clock overflow: "
    for args in (["run", str(late)], ["run", str(late), "--self-check"], ["opt", str(late)]):
        proc = run_cli(*args, timeout=10)
        _assert_input_error(proc)
        assert proc.stderr.startswith(refused), proc.stderr


def test_overflowing_total_cost_is_refused_not_printed(tmp_path):
    # Every budget and the clock are finite, but the total cost would be
    # 3e308, printed as inf or caught only as a summary mismatch.
    far = tmp_path / "far.json"
    far.write_text(_float_doc('{"kind": "line"}', '[{"pos": 0, "atime": 0}, {"pos": 1.5e308, "atime": 0}]'))
    refused = "delaymatch: error: float cost overflow: "
    for args in (["run", str(far)], ["run", str(far), "--self-check"], ["run", str(far), "--certify"]):
        proc = run_cli(*args, timeout=10)
        _assert_input_error(proc)
        assert proc.stderr.startswith(refused), proc.stderr


def test_float_ring_position_just_below_zero_wraps_to_zero(tmp_path):
    # -1e-20 % 10.0 rounds up to 10.0, which lies outside [0, 10).
    doc = _float_doc('{"kind": "ring", "h": 10}', '[{"pos": -1e-20, "atime": 0}, {"pos": 3, "atime": 1}]')
    assert parse_instance(json.loads(doc)).requests[0].pos == 0.0
    path = tmp_path / "ring.json"
    path.write_text(doc)
    proc = run_cli("run", str(path), "--certify")
    assert proc.returncode == 0, proc.stderr


def test_in_process_calls_share_one_parser(capsys):
    """``main`` reuses one parser per process; a usage error leaves it as it
    was for the next call."""
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["gen", "ring", "--m", "6"]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "ring"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert cli.main(["gen", "ring", "--m", "6"]) == 0
    assert capsys.readouterr().out == first
    assert cli.main(["gen", "tightness", "--m", "4", "--variant", "mbpmd"]) == 0
    assert json.loads(capsys.readouterr().out)["variant"] == "mbpmd"


def reference_certificate_text(cert) -> str:
    """The bytes ``certify`` must print for a valid certificate: its document
    through ``json.dumps`` with the indent, which selects the pure-Python
    encoder."""
    return json.dumps(cert.to_json(), indent=2, allow_nan=False) + "\n"


def _certificate_corpus():
    """The acceptance corpus, both empty instances, the float near-tie
    family (slacks printed with all their digits), and one instance of each
    generator family the benchmark runs at its sizes."""
    out = [near_tie_instance(seed) for seed in range(1000)]
    for seed in range(168):
        for kind in ("line", "matrix", "ring"):
            variant = "mbpmd" if seed % 2 else "mpmd"
            out.append(gen_random_instance(seed=seed, m=seed % 5 + 1, variant=variant, metric_kind=kind))
    out += [gen_random_instance(seed=seed, m=seed % 4 + 1, metric_kind="euclidean") for seed in range(30)]
    out.append(parse_instance({"variant": "mpmd", "mode": "exact", "metric": {"kind": "line"}, "requests": []}))
    out.append(parse_instance({"variant": "mbpmd", "mode": "float", "metric": {"kind": "euclidean"}, "requests": []}))
    out += [
        gen_random_instance(seed=100, m=100, metric_kind="line"),
        gen_tightness_instance(150),
        gen_ring_instance(64),
        gen_random_instance(seed=100, m=30, metric_kind="matrix", variant="mbpmd"),
        gen_random_instance(seed=160, m=20, metric_kind="euclidean", variant="mbpmd"),
        gen_random_instance(seed=100, m=100, metric_kind="euclidean"),
    ]
    return out


def test_certificate_text_matches_the_reference_encoder():
    """Each row written by hand, each exact slack printed once per value:
    the bytes of the reference on every instance."""
    for inst in _certificate_corpus():
        cert = certify(inst, run(inst))
        if not cert.ok:  # near-tie seed 28, one of ``TOTAL_BOUND_SEEDS``
            assert cert.prop == "total-bound", inst
            continue
        assert cli._certificate_text(cert) == reference_certificate_text(cert), inst


def test_certify_prints_the_certificate_text(tight4_file, tmp_path, capsys):
    trace = tmp_path / "tight4.trace"
    assert cli.main(["run", str(tight4_file), "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert cli.main(["certify", str(tight4_file), str(trace)]) == 0
    inst = cli._load_instance(str(tight4_file), None)
    cert = certify_events(inst, events_from_jsonl(trace.read_text(), inst.mode))
    assert capsys.readouterr().out == reference_certificate_text(cert)


def test_certify_writes_a_long_certificate_in_pieces(tmp_path, capsys):
    """More rows than one piece holds: the pieces ``certify`` writes one
    after another are the reference's bytes."""
    path, trace = tmp_path / "tight70.json", tmp_path / "tight70.trace"
    assert cli.main(["gen", "tightness", "--m", "70", "-o", str(path)]) == 0
    assert cli.main(["run", str(path), "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert cli.main(["certify", str(path), str(trace)]) == 0
    inst = cli._load_instance(str(path), None)
    cert = certify_events(inst, events_from_jsonl(trace.read_text(), inst.mode))
    assert len(cert.slacks) > 2 * cli._ROWS_PER_PIECE
    assert capsys.readouterr().out == reference_certificate_text(cert)


def test_a_non_finite_slack_raises_before_the_first_piece():
    """Every slack's text is computed before ``certify`` writes a byte."""
    inst = gen_random_instance(seed=1, m=3, metric_kind="euclidean")
    cert = certify(inst, run(inst))
    bad = replace(cert, slacks=(*cert.slacks, (0, 1, nan)))
    with pytest.raises(ValueError):
        next(cli._certificate_pieces(bad))


@pytest.mark.parametrize("field", ["slacks", "total_cost"])
def test_a_non_finite_certificate_value_is_not_printed(field):
    """As with the reference encoder, a NaN slack or cost raises ValueError
    (which ``main`` reports with exit status 1)."""
    inst = gen_random_instance(seed=1, m=3, metric_kind="euclidean")
    cert = certify(inst, run(inst))
    bad = replace(cert, slacks=((0, 1, nan),)) if field == "slacks" else replace(cert, total_cost=nan)
    with pytest.raises(ValueError):
        reference_certificate_text(bad)
    with pytest.raises(ValueError):
        cli._certificate_text(bad)
