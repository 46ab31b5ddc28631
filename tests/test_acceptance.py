"""Acceptance gate: ten checks covering the guarantee, the dual certificate,
the adversarial schedule, and the reporting contract.

Every check prints a single [acceptance] verdict line.  Numeric tolerances:
exact-mode comparisons are exact (zero tolerance); the float corpus in
check 3 allows 1e-6 relative error.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from delaymatch.certify import certify, marked_path_check
from delaymatch.engine import GreedyDualEngine, run
from delaymatch.generators import gen_random_instance, gen_tightness_instance
from delaymatch.instance import MBPMD, MPMD
from delaymatch.offline import opt_brute, opt_hungarian
from test_certify import route_pairs

CLI = [sys.executable, "-m", "delaymatch.cli"]

RANDOM_COUNT = 504  # 168 seeds x 3 metric kinds, all with 2m <= 10
EUCLIDEAN_COUNT = 30


def _verdict(num, label, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"[acceptance] check {num}: {label}: {status}")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def corpus():
    """Random exact-mode corpus: (instance, run result, certificate, optimum)."""
    out = []
    for seed in range(RANDOM_COUNT // 3):
        for kind in ("line", "matrix", "ring"):
            variant = MBPMD if seed % 2 else MPMD
            m = (seed % 5) + 1
            inst = gen_random_instance(seed=seed, m=m, variant=variant, metric_kind=kind)
            res = run(inst)
            cert = certify(inst, res)
            opt = opt_brute(inst)
            out.append((inst, res, cert, opt))
    assert len(out) >= 500
    return out


@pytest.fixture(scope="module")
def float_corpus():
    out = []
    for seed in range(EUCLIDEAN_COUNT):
        m = (seed % 4) + 1
        inst = gen_random_instance(seed=seed, m=m, variant=MPMD, metric_kind="euclidean")
        res = run(inst)
        out.append((inst, res, certify(inst, res)))
    return out


def test_check_01_total_cost_within_guarantee(corpus):
    """Online total <= (2m + 1) * optimum on every random instance, exactly."""
    failures = []
    for inst, res, _, opt in corpus:
        if res.total_cost > (2 * inst.m + 1) * opt.value:
            failures.append((inst.m, str(res.total_cost), str(opt.value)))
    _verdict(1, f"guarantee factor on {len(corpus)} random instances", failures)


def test_check_02_weak_duality(corpus):
    """Dual objective never exceeds the offline optimum, exactly."""
    failures = []
    for inst, res, _, opt in corpus:
        if res.dual_objective > opt.value:
            failures.append((str(res.dual_objective), str(opt.value)))
    _verdict(2, "dual objective <= optimum", failures)


def test_check_03_waiting_cost_equals_dual(corpus, float_corpus):
    """Waiting cost equals the dual objective: exactly in exact mode, within
    1e-6 relative on the euclidean float corpus."""
    failures = []
    for inst, res, _, _ in corpus:
        if res.waiting_cost != res.dual_objective:
            failures.append((str(res.waiting_cost), str(res.dual_objective)))
    for inst, res, _ in float_corpus:
        scale = max(1.0, abs(res.dual_objective))
        if abs(res.waiting_cost - res.dual_objective) > 1e-6 * scale:
            failures.append((res.waiting_cost, res.dual_objective))
    _verdict(3, "waiting cost equals dual objective", failures)


def test_check_04_dual_feasibility_certified(corpus, float_corpus):
    """The certifier replays every event; no pair ever exceeds its budget."""
    failures = []
    for _, _, cert, _ in corpus:
        if not cert.ok:
            failures.append(cert.to_json())
        elif cert.min_slack is not None and cert.min_slack < 0:
            failures.append(cert.to_json())
    for _, _, cert in float_corpus:
        if not cert.ok:
            failures.append(cert.to_json())
    _verdict(4, "dual feasibility at every event", failures)


def test_check_05_marked_forest_and_tight_edges(corpus):
    """Marked edges form one spanning tree per active set and sit exactly at
    their budgets; the certifier re-derives both from the trace."""
    failures = []
    for inst, res, cert, _ in corpus:
        if not cert.ok:
            failures.append(cert.to_json())
            continue
        if cert.num_marked_edges != len(res.marked_edges):
            failures.append(("edge count", cert.num_marked_edges, len(res.marked_edges)))
        # every marked edge has zero slack in the final state
        marked = {(u, v) for u, v, _ in res.marked_edges}
        slack = {(u, v): s for u, v, s in cert.edge_slacks}
        for edge in marked:
            if slack[edge] != 0:
                failures.append(("slack", edge, str(slack[edge])))
    _verdict(5, "marked edges: spanning forest, exactly tight", failures)


def test_check_06_matched_pairs_ride_cheap_marked_paths(corpus):
    """Each matched pair connects through the marked forest: its distance is
    at most the path length, the path crosses any recorded set at most twice,
    and the distance is at most twice the dual objective."""
    failures = []
    for inst, res, _, _ in corpus:
        for u, v, _ in res.matching:
            check = marked_path_check(inst, res, (u, v))
            if check.distance > check.path_length:
                failures.append(("length", u, v))
            if check.max_crossings > 2:
                failures.append(("crossings", u, v, check.max_crossings))
            if check.distance > 2 * res.dual_objective:
                failures.append(("dual", u, v))
    _verdict(6, "marked-path bounds for every matched pair", failures)


def test_merge_tree_routes_are_the_marked_paths(corpus, float_corpus):
    """The certifier's endgame routes every matched pair of both corpora as
    the reference ``marked_path`` does: same path, length and crossings."""
    routes = [pair for inst, res, *_ in corpus + float_corpus for pair in route_pairs(inst, list(res.event_log))]
    assert len(routes) == sum(inst.m for inst, *_ in corpus + float_corpus)
    assert all(route == reference for route, reference in routes)


def test_check_07_adversarial_schedule_hits_the_bound():
    """The two-point schedule: connection exactly 2m, total exactly
    2m + 2 + 2(m-1)/m, optimum exactly 2(1 + (m-1)/m) < 4, ratio >= m/2,
    each size solved in under a second."""
    failures = []
    for m in (4, 10, 20, 50):
        inst = gen_tightness_instance(m)
        started = time.perf_counter()
        res = run(inst)
        elapsed = time.perf_counter() - started
        opt_value = 2 * (1 + Fraction(m - 1, m))
        if m == 4:
            brute = opt_brute(inst).value
            if brute != opt_value:
                failures.append((m, "brute", str(brute)))
        else:
            # co-located consecutive pairs realize this value, so the true
            # optimum is at most opt_value and the ratio below is a lower bound
            pass
        hung = opt_hungarian(gen_tightness_instance(m, variant=MBPMD)).value
        if hung != opt_value:
            failures.append((m, "hungarian", str(hung)))
        if res.connection_cost != 2 * m:
            failures.append((m, "connection", str(res.connection_cost)))
        if res.total_cost != 2 * m + 2 + Fraction(2 * (m - 1), m):
            failures.append((m, "total", str(res.total_cost)))
        if not opt_value < 4:
            failures.append((m, "opt bound", str(opt_value)))
        if res.total_cost / opt_value < Fraction(m, 2):
            failures.append((m, "ratio", str(res.total_cost / opt_value)))
        if elapsed >= 1.0:
            failures.append((m, "runtime", elapsed))
    _verdict(7, "two-point schedule: exact costs, ratio >= m/2, < 1s", failures)


def test_check_08_free_requests_track_their_waiting_time(corpus):
    """While a request is unmatched, its accumulated dual value equals the
    time since its arrival, at every event; checked by the certifier on all
    instances and again by ``self_check=True``, which replays each step
    through the certifier while the engine runs."""
    failures = []
    for inst, res, cert, _ in corpus:
        if not cert.ok:
            failures.append(cert.to_json())
    for inst, _, _, _ in corpus:
        try:
            GreedyDualEngine(inst, self_check=True).run()
        except Exception as exc:  # noqa: BLE001 - any breach fails the check
            failures.append((inst.m, repr(exc)))
    _verdict(8, "free requests: value == waiting at every event", failures)


def test_check_09_assignment_solver_matches_enumeration(corpus):
    """Both offline methods agree exactly on every bipartite instance."""
    failures = []
    checked = 0
    for inst, _, _, opt in corpus:
        if inst.variant != MBPMD or len(inst.requests) > 12:
            continue
        hung = opt_hungarian(inst)
        checked += 1
        if hung.value != opt.value:
            failures.append((str(hung.value), str(opt.value)))
    assert checked >= 200
    _verdict(9, f"assignment solver == enumeration on {checked} instances", failures)


def test_check_10_byte_identical_outputs(tmp_path):
    """Repeated CLI invocations write byte-identical summaries, traces, and
    reports."""
    failures = []
    env = dict(os.environ)
    env.pop("DM_MODE", None)

    inst_file = tmp_path / "inst.json"
    gen = subprocess.run(
        CLI + ["gen", "tightness", "--m", "10", "-o", str(inst_file)],
        capture_output=True, text=True, env=env,
    )
    if gen.returncode != 0:
        failures.append(("gen", gen.stderr))

    outs = []
    for tag in ("a", "b"):
        trace = tmp_path / f"{tag}.trace"
        proc = subprocess.run(
            CLI + ["run", str(inst_file), "--trace", str(trace), "--certify"],
            capture_output=True, text=True, env=env,
        )
        outs.append((proc.returncode, proc.stdout, trace.read_bytes()))
    if outs[0] != outs[1]:
        failures.append("run outputs differ between invocations")

    benches = []
    for tag in ("x", "y"):
        base = tmp_path / f"bench-{tag}"
        proc = subprocess.run(
            CLI + ["bench", "--gen", "tightness:m=4", "--gen", "random:seed=2,m=3,metric=ring",
                   "--certify", "--out", str(base)],
            capture_output=True, text=True, env=env,
        )
        benches.append(
            (proc.returncode, (tmp_path / f"bench-{tag}.csv").read_bytes(),
             (tmp_path / f"bench-{tag}.json").read_bytes())
        )
    if benches[0] != benches[1]:
        failures.append("bench outputs differ between invocations")

    _verdict(10, "byte-identical outputs across repeated runs", failures)
