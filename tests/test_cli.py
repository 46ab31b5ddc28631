import json
import os
import subprocess
import sys

import pytest

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


def test_expect_must_be_a_json_object(tight4_file, tmp_path):
    trace, summary = tmp_path / "t.trace", tmp_path / "expect.json"
    run_cli("run", str(tight4_file), "--trace", str(trace))
    summary.write_text("[1, 2]\n")
    check = run_cli("certify", str(tight4_file), str(trace), "--expect", str(summary))
    assert check.returncode == 1, check.stdout + check.stderr
    assert check.stderr.startswith("delaymatch: error: --expect: ")
    assert check.stdout == ""


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
