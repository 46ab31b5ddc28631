import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from math import inf, nan, nextafter

import pytest

from delaymatch.certify import (
    _Replay,
    certify,
    certify_events,
    marked_path,
    marked_path_check,
    ratio_report,
)
from delaymatch.engine import (
    ARRIVAL,
    GROW,
    MATCH,
    MERGE,
    TIGHT,
    EventRecord,
    GreedyDualEngine,
    events_from_jsonl,
    events_to_jsonl,
    run,
)
from delaymatch.generators import gen_random_instance, gen_ring_instance, gen_tightness_instance
from delaymatch.instance import MBPMD, MPMD, edge_cost, make_instance
from delaymatch.offline import opt_brute
from delaymatch.scalars import EXACT, FLOAT, dump_scalar, eq, leq, tol

LINE = {"kind": "line"}


@pytest.fixture(scope="module")
def tight4():
    inst = gen_tightness_instance(4)
    return inst, run(inst)


def test_clean_runs_certify(tight4):
    inst, res = tight4
    cert = certify(inst, res)
    assert cert.ok
    assert cert.total_cost == res.total_cost
    assert cert.dual_objective == res.dual_objective
    assert cert.num_marked_edges == res.num_marked_edges
    assert cert.min_slack == 0  # marked edges sit exactly at budget
    assert all(s >= 0 for _, _, s in cert.edge_slacks)


def test_certificate_serializes(tight4):
    inst, res = tight4
    doc = certify(inst, res).to_json()
    assert doc["ok"] is True
    assert doc["total_cost"] == "23/2"
    assert doc["min_slack"] == 0


@pytest.mark.parametrize(
    "inst",
    [
        gen_tightness_instance(6, variant=MBPMD),
        gen_random_instance(seed=1, m=8, metric_kind="ring"),
        gen_random_instance(seed=2, m=8, variant=MBPMD, metric_kind="euclidean"),
    ],
    ids=lambda inst: inst.metric.kind,
)
def test_certificate_prints_the_slacks_it_reads(inst):
    """The slacks are kept scaled: ``edge_slacks`` and ``min_slack`` build
    their values on reading, ``to_json`` prints them from the scaled ints,
    and both give the same numbers."""
    cert = certify(inst, run(inst))
    doc = cert.to_json()
    assert cert.edge_slacks and all(type(s) is (Fraction if inst.mode == EXACT else float) for *_, s in cert.edge_slacks)
    assert any(s != int(s) for *_, s in cert.edge_slacks)  # fractional slacks, not only ints
    assert doc["edge_slacks"] == [[u, v, dump_scalar(s, inst.mode)] for u, v, s in cert.edge_slacks]
    assert cert.min_slack == min(s for *_, s in cert.edge_slacks)
    assert doc["min_slack"] == dump_scalar(cert.min_slack, inst.mode)


def test_trace_round_trip_certifies(tight4):
    inst, res = tight4
    events = events_from_jsonl(events_to_jsonl(res), inst.mode)
    cert = certify_events(inst, events)
    assert cert.ok
    assert cert.total_cost == res.total_cost


def _tamper(events, index, **changes):
    ev = events[index]
    payload = dict(ev.payload)
    payload.update({k: v for k, v in changes.items() if k not in ("t",)})
    t = changes.get("t", ev.t)
    return events[:index] + [EventRecord(t=t, kind=ev.kind, payload=payload)] + events[index + 1 :]


def test_inflated_growth_is_caught(tight4):
    inst, res = tight4
    events = list(res.event_log)
    idx = max(i for i, e in enumerate(events) if e.kind == GROW)
    ev = events[idx]
    bump = Fraction(1, 100)
    verdict = certify_events(
        inst, _tamper(events, idx, t=ev.t + bump, to=ev.payload["to"] + bump)
    )
    assert not verdict.ok
    assert verdict.prop in ("potential", "dual-feasibility")
    assert verdict.event_index == idx


def test_incoherent_growth_is_caught(tight4):
    inst, res = tight4
    events = list(res.event_log)
    idx = max(i for i, e in enumerate(events) if e.kind == GROW)
    verdict = certify_events(
        inst, _tamper(events, idx, to=events[idx].payload["to"] + Fraction(1, 100))
    )
    assert not verdict.ok
    assert verdict.prop == "trace-shape"


def test_dropped_growth_is_caught(tight4):
    inst, res = tight4
    events = list(res.event_log)
    idx = max(i for i, e in enumerate(events) if e.kind == GROW)
    verdict = certify_events(inst, events[:idx] + events[idx + 1 :])
    assert not verdict.ok


def test_dropped_match_is_caught(tight4):
    inst, res = tight4
    events = list(res.event_log)
    idx = max(i for i, e in enumerate(events) if e.kind == MATCH)
    verdict = certify_events(inst, events[:idx] + events[idx + 1 :])
    assert not verdict.ok
    assert verdict.prop in ("surplus", "matching-validity")


def test_shifted_match_is_caught(tight4):
    inst, res = tight4
    events = list(res.event_log)
    idx = max(i for i, e in enumerate(events) if e.kind == MATCH)
    verdict = certify_events(inst, _tamper(events, idx, t=events[idx].t + 1))
    assert not verdict.ok
    assert verdict.prop == "trace-shape"


def test_swapped_tight_pair_is_caught(tight4):
    inst, res = tight4
    events = list(res.event_log)
    idx = next(i for i, e in enumerate(events) if e.kind == TIGHT)
    verdict = certify_events(inst, _tamper(events, idx, u=0, v=3))
    assert not verdict.ok


def test_truncated_trace_is_caught(tight4):
    inst, res = tight4
    events = list(res.event_log)
    verdict = certify_events(inst, events[: len(events) // 2])
    assert not verdict.ok
    assert verdict.prop == "matching-validity"


def test_double_match_is_caught(tight4):
    inst, res = tight4
    events = list(res.event_log)
    idx = max(i for i, e in enumerate(events) if e.kind == MATCH)
    verdict = certify_events(inst, events + [events[idx]])
    assert not verdict.ok
    assert verdict.prop in ("matching-validity", "trace-shape")


# Requests 0 (+1) and 1 (-1) at position 0, 2 (+1) and 3 (-1) at 100, all at
# time 0: the clean trace is four arrivals, then tight, merge and match of
# (0, 1) at events 4-6 and of (2, 3) at events 7-9.
FOUR_AT_ZERO = [(0, 0, 1), (0, 0, -1), (100, 0, 1), (100, 0, -1)]


@pytest.mark.parametrize(
    "variant, at, u, v, detail",
    [
        (MBPMD, 7, 0, 1, "request matched twice in pair (0, 1)"),
        (MBPMD, 7, 0, 3, "request matched twice in pair (0, 3)"),  # 3 is free in another set
        (MBPMD, 4, 0, 3, "pair (0, 3) matched across active sets"),
        (MBPMD, 1, 0, 1, "pair (0, 1) matched across active sets"),  # 1 has not arrived
        (MBPMD, 4, 0, 2, "matched pair (0, 2) is not eligible"),
        (MBPMD, 7, 0, 2, "matched pair (0, 2) is not eligible"),  # 0 is matched too
        (MPMD, 7, 1, 2, "request matched twice in pair (1, 2)"),
    ],
)
def test_a_bad_match_is_named_by_the_first_check_it_fails(variant, at, u, v, detail):
    inst = make_instance(variant, LINE, [(p, t, s if variant == MBPMD else 0) for p, t, s in FOUR_AT_ZERO])
    events = list(run(inst).event_log)
    assert [e.kind for e in events[4:10]] == [TIGHT, MERGE, MATCH] * 2
    bad = EventRecord(t=events[at - 1].t, kind=MATCH, payload={"u": u, "v": v})
    verdict = certify_events(inst, events[:at] + [bad] + events[at:])
    assert (verdict.prop, verdict.detail, verdict.event_index) == ("matching-validity", detail, at)


def _move_instant(events, t, new):
    """``events`` with every event at time ``t``, and the end of every growth
    interval there, moved to ``new``."""
    out = []
    for ev in events:
        if ev.t == t:
            payload = {**ev.payload, "to": new} if ev.kind == GROW else ev.payload
            ev = EventRecord(t=new, kind=ev.kind, payload=payload)
        out.append(ev)
    return out


def test_feasibility_breach_is_reported_before_a_later_violation(tight4, monkeypatch):
    # The first tight instant, moved late: the second growth event there
    # takes pair (0, 1) over budget, and the tight event after it fails
    # marked-tightness.  The breach comes first and is reported at its event.
    inst, res = tight4
    events = list(res.event_log)
    tight = next(i for i, e in enumerate(events) if e.kind == TIGHT)
    late = _move_instant(events, events[tight].t, events[tight].t + Fraction(1, 100))
    verdict = certify_events(inst, late)
    assert (verdict.prop, verdict.event_index) == ("dual-feasibility", tight - 1)
    assert verdict.detail == "pair (0, 1) over budget after growth of set 1"
    # With no sweep where the replay stops, the later violation would stand.
    monkeypatch.setattr(_Replay, "within_budgets", lambda self: True)
    later = certify_events(inst, late)
    assert (later.prop, later.event_index) == ("marked-tightness", tight)


def _float_pair(distance):
    """Two float line requests at time 0, ``distance`` apart: they go tight
    at ``distance / 2``, and the trace ends there."""
    inst = make_instance(MPMD, LINE, [(0.0, 0.0, 0), (distance, 0.0, 0)], mode=FLOAT)
    return inst, list(run(inst).event_log)


@pytest.mark.parametrize("late", [2.0**-33, 2.0**-20], ids=["1.2e-10", "9.5e-7"])
def test_float_overshoot_is_judged_by_the_tolerance(late):
    # Moving the tight instant ``late`` puts pair (0, 1) over its budget 1 by
    # twice that: within ``leq``'s tolerance 1e-9 it certifies, beyond it the
    # breach is reported at the growth event that made it.
    inst, events = _float_pair(1.0)
    verdict = certify_events(inst, _move_instant(events, 0.5, 0.5 + late))
    if 2 * late <= 1e-9:
        assert verdict.ok, verdict.to_json()
        assert verdict.min_slack == -2 * late
    else:
        assert (verdict.prop, verdict.event_index) == ("dual-feasibility", 3)
        assert verdict.detail == "pair (0, 1) over budget after growth of set 1"


def test_float_value_within_leq_but_above_the_budget_edge_is_a_breach():
    # Budget c and value x: x is the float just above the budget's edge
    # c + tol(c), though ``leq``'s bound c + tol(x) would admit it.  A pair is
    # judged with its budget as the magnitude, by the stop sweep and the
    # per-event reference alike.
    c, x = 289742439.9759606, 289742440.2657031
    assert x > c + tol(c) and leq(x, c, FLOAT)
    # Requests 0 and 1 grow to x and go tight, 2x apart; 2 and 3 match at
    # once, far from both.  Certified against 2 and 3 at distance c from
    # request 0, pairs (0, 2) and (0, 3) end at value x over budget c.
    far = [(0.0, 0.0, 0), (2 * x, 0.0, 0), (-1e10, 0.0, 0), (-1e10, 0.0, 0)]
    near = far[:2] + [(c, 0.0, 0), (c, 0.0, 0)]
    events = list(run(make_instance(MPMD, LINE, far, mode=FLOAT)).event_log)
    inst = make_instance(MPMD, LINE, near, mode=FLOAT)
    assert inst.grid.cost(0, 2) == c and events[-1].t == x
    grow = next(i for i, e in enumerate(events) if e.kind == GROW and e.payload["set"] == 0)
    stop = _Replay(inst)
    assert stop.drive(events, True) is None  # every other check passes
    assert not stop.within_budgets()
    reference = _Replay(inst, per_event=True).drive(events, True)
    assert (reference.prop, reference.event_index) == ("dual-feasibility", grow)
    assert reference.detail == "pair (0, 2) over budget after growth of set 0"
    assert certify_events(inst, events) == reference


def _moved_tight_value(c, x):
    """The run of two float requests at time 0 and distance ``c``, with its
    tight instant moved so that the pair's value there is ``x``, and the
    index of its tight event."""
    inst, events = _float_pair(c)
    tight = next(i for i, e in enumerate(events) if e.kind == TIGHT)
    moved = _move_instant(events, events[tight].t, x / 2)
    assert moved[tight].t * 2 == x
    return inst, moved, tight


@pytest.mark.parametrize("c", [1.000000001, 0.25, 289742439.9759606])
def test_a_tight_value_is_judged_at_the_budget_edges(c):
    # Values at c - tol(c) and c + tol(c) are tight; one ulp below the lower
    # edge is not tight, and one ulp above the upper one is over budget from
    # the growth event that made it.
    low, high = c - tol(c), c + tol(c)
    for x in (low, high):
        verdict = certify_events(*_moved_tight_value(c, x)[:2])
        assert verdict.ok, verdict.to_json()
    inst, events, tight = _moved_tight_value(c, nextafter(low, 0.0))
    verdict = certify_events(inst, events)
    assert (verdict.prop, verdict.event_index) == ("marked-tightness", tight)
    inst, events, tight = _moved_tight_value(c, nextafter(high, inf))
    verdict = certify_events(inst, events)
    assert (verdict.prop, verdict.event_index) == ("dual-feasibility", tight - 1)


def test_a_pair_logged_tight_below_its_budget_certifies():
    # Budget 1.000000001: the engine's edge c - tol(c) rounds to 1.0, and at
    # 0.5 it logs (0, 1) tight at value 1.0 while two far requests arrive.
    inst = make_instance(
        MPMD, LINE, [(0.0, 0.0, 0), (1.000000001, 0.0, 0), (100.0, 0.5, 0), (200.0, 0.5, 0)], mode=FLOAT
    )
    c = inst.grid.cost(0, 1)
    assert c > 1.0 and c - tol(c) == 1.0
    result = run(inst, self_check=True)
    assert EventRecord(t=0.5, kind=TIGHT, payload={"u": 0, "v": 1}) in result.event_log
    verdict = certify(inst, result)
    assert verdict.ok, verdict.to_json()
    assert verdict.edge_slacks[0] == (0, 1, c - 1.0)


def test_tampered_summary_is_caught(tight4):
    inst, res = tight4
    verdict = certify(inst, replace(res, total_cost=res.total_cost + 1))
    assert not verdict.ok
    assert verdict.prop == "summary-consistency"
    verdict = certify(inst, replace(res, dual_objective=res.dual_objective - Fraction(1, 7)))
    assert not verdict.ok
    assert verdict.prop == "summary-consistency"


def test_bool_request_index_in_a_trace_is_refused():
    inst = gen_tightness_instance(2)
    text = events_to_jsonl(run(inst))
    tampered = text.replace('"payload": {"u": 1}}', '"payload": {"u": true}}')  # the second arrival
    assert tampered.count("true") == 1
    verdict = certify_events(inst, events_from_jsonl(tampered, inst.mode))
    assert (verdict.prop, verdict.event_index) == ("trace-shape", 1)


@pytest.mark.parametrize(
    "inst",
    [gen_tightness_instance(4), gen_random_instance(seed=1, m=3, variant=MBPMD, metric_kind="euclidean")],
    ids=["exact", "float"],
)
def test_wrong_typed_time_or_index_is_a_violation_at_its_event(inst):
    # A time is an int or a Fraction in exact mode, a finite int or float in
    # float mode, never a bool; an index is an int.  Anything else is refused
    # at its event, and never crashes the replay.
    events = list(run(inst).event_log)
    for i, ev in enumerate(events):
        for key, value in {"t": ev.t, **ev.payload}.items():
            time = key in ("t", "from", "to")
            other = Fraction(value) if time and inst.mode != EXACT else float(value)
            for wrong in (True, False, other, str(value), None, [value], inf, nan):
                verdict = certify_events(inst, _tamper(events, i, **{key: wrong}))
                assert not verdict.ok and verdict.event_index == i, (i, key, wrong)
                assert verdict.prop in ("trace-shape", "matching-validity"), (i, key, wrong)


@pytest.mark.parametrize(
    "malformed",
    [
        lambda ev: replace(ev, payload=None),
        lambda ev: replace(ev, payload=[ev.payload]),
        lambda ev: replace(ev, kind=[ev.kind]),
        lambda ev: {"t": ev.t, "kind": ev.kind, "payload": ev.payload},
    ],
    ids=["payload-none", "payload-list", "kind-list", "dict-event"],
)
def test_malformed_in_memory_event_is_a_trace_shape_violation(tight4, malformed):
    inst, res = tight4
    events = list(res.event_log)
    i = next(i for i, e in enumerate(events) if e.kind == GROW)
    verdict = certify_events(inst, events[:i] + [malformed(events[i])] + events[i + 1 :])
    assert (verdict.prop, verdict.event_index) == ("trace-shape", i)


def test_an_unknown_payload_field_is_a_trace_shape_violation_at_its_event(tight4):
    """Each kind's payload has fixed fields; any other is refused at its
    event, in memory and read back from a trace."""
    inst, res = tight4
    events = list(res.event_log)
    for kind in (ARRIVAL, GROW, TIGHT, MERGE, MATCH):
        i = next(i for i, e in enumerate(events) if e.kind == kind)
        tampered = _tamper(events, i, junk=7)
        verdict = certify_events(inst, tampered).to_json()
        assert verdict == {
            "ok": False,
            "property": "trace-shape",
            "detail": f"{kind} event has unknown fields ['junk']",
            "witness": {"fields": ["junk"]},
            "event_index": i,
        }
        text = events_to_jsonl(replace(res, event_log=tuple(tampered)))
        assert certify_events(inst, events_from_jsonl(text, inst.mode)).to_json() == verdict


def test_exact_trace_time_given_as_a_float_or_a_string_is_refused(tight4):
    inst, res = tight4
    events = list(res.event_log)
    i = next(i for i, e in enumerate(events) if e.t == Fraction(5, 4))
    for wrong, kind in ((1.25, "float"), ("5/4", "str")):
        verdict = certify_events(inst, _tamper(events, i, t=wrong))
        assert verdict.to_json() == {
            "ok": False,
            "property": "trace-shape",
            "detail": f"time {wrong!r} is not a scalar of exact mode",
            "witness": {"type": kind},
            "event_index": i,
        }


def test_violation_report_serializes(tight4):
    inst, res = tight4
    events = list(res.event_log)
    idx = max(i for i, e in enumerate(events) if e.kind == MATCH)
    verdict = certify_events(inst, _tamper(events, idx, t=events[idx].t + 1))
    doc = verdict.to_json()
    assert doc["ok"] is False
    assert doc["property"] == verdict.prop
    assert doc["event_index"] == idx


def test_marked_path_check_on_matched_pairs(tight4):
    inst, res = tight4
    dual = res.dual_objective
    for u, v, _ in res.matching:
        check = marked_path_check(inst, res, (u, v))
        assert check.path[0] == u and check.path[-1] == v
        assert check.distance <= check.path_length
        assert check.max_crossings <= 2
        assert check.distance <= 2 * dual


@pytest.mark.parametrize(
    "inst",
    [
        gen_tightness_instance(6),
        gen_tightness_instance(6, variant=MBPMD),
        gen_ring_instance(8),
        *(
            gen_random_instance(seed=seed, m=6, variant=variant, metric_kind=kind)
            for kind in ("line", "ring", "matrix", "euclidean")
            for seed, variant in enumerate((MPMD, MBPMD))
        ),
    ],
    ids=lambda inst: f"{inst.metric.kind}-{inst.variant}",
)
def test_marked_path_length_is_the_edge_cost_sum_along_the_path(inst):
    res = run(inst)
    for u, v, _ in res.matching:
        check = marked_path_check(inst, res, (u, v))
        expected = Fraction(0) if inst.mode == EXACT else 0.0
        for x, w in zip(check.path, check.path[1:]):
            expected += edge_cost(inst, min(x, w), max(x, w))
        assert check.path_length == expected, (u, v)


def test_certifying_leaves_the_shared_grid_as_it_was(monkeypatch):
    """The engine and the replay read one ``Instance.grid`` and must rescale
    into their own containers: a plain run, a self-checked run and two
    certifications, each rescaling, give one certificate, and the grid still
    equals a fresh instance's, with every field a tuple."""
    rescales = []
    for cls in (GreedyDualEngine, _Replay):
        rescale = cls._rescale
        monkeypatch.setattr(cls, "_rescale", lambda self, k, rescale=rescale: (rescales.append(type(self)), rescale(self, k)))
    inst = gen_random_instance(seed=1, m=8, metric_kind="ring")
    grid = inst.grid
    res = run(inst)
    assert rescales == [GreedyDualEngine]  # the engine rescaled on this instance
    first = certify(inst, res).to_json()
    assert first["ok"] and rescales == [GreedyDualEngine, _Replay]  # and so did the replay
    assert certify(inst, res).to_json() == first
    checked = GreedyDualEngine(inst, self_check=True).run()
    assert certify(inst, checked).to_json() == first
    assert rescales.count(GreedyDualEngine) == 2 and rescales.count(_Replay) == 4
    assert inst.grid is grid
    assert grid == gen_random_instance(seed=1, m=8, metric_kind="ring").grid
    assert all(type(f) is tuple for f in (grid.pid, grid.dist, *grid.dist, grid.atime, grid.sgn))


def test_marked_path_check_rejects_disconnected_pairs():
    # two far groups merge internally; no marked path joins them
    inst = make_instance(MPMD, LINE, [(0, 0, 0), (0, 0, 0), (100, 0, 0), (100, 0, 0)])
    res = run(inst)
    with pytest.raises(ValueError):
        marked_path_check(inst, res, (0, 2))


def test_ratio_report_against_dual_and_opt(tight4):
    inst, res = tight4
    sol = opt_brute(inst)
    report = ratio_report(inst, res, sol.value)
    assert report.bound_factor == 2 * 4 + 1
    assert report.ratio_vs_opt == Fraction(23, 2) / Fraction(7, 2)
    assert report.ratio_vs_dual == Fraction(23, 2) / Fraction(7, 2)
    assert report.within_bound
    doc = report.to_json()
    assert doc["ratio_vs_opt"] == "23/7"
    assert doc["within_bound"] is True


def test_ratio_report_handles_zero_cost_instances():
    inst = make_instance(MPMD, LINE, [(0, 0, 0), (0, 0, 0)])
    res = run(inst)
    report = ratio_report(inst, res, Fraction(0))
    assert report.ratio_vs_dual is None
    assert report.ratio_vs_opt is None
    assert report.within_bound


def test_certifier_covers_all_generator_families():
    cases = [
        gen_tightness_instance(6),
        gen_tightness_instance(6, variant=MBPMD),
        gen_ring_instance(6),
        gen_random_instance(seed=1, m=4, variant=MPMD, metric_kind="matrix"),
        gen_random_instance(seed=2, m=4, variant=MBPMD, metric_kind="ring"),
        gen_random_instance(seed=3, m=3, variant=MPMD, metric_kind="euclidean"),
    ]
    for inst in cases:
        res = run(inst)
        cert = certify(inst, res)
        assert cert.ok, cert.to_json()


def _tampered_traces(events, bump):
    """Every single-edit variant of ``events`` in the differential corpus."""
    for i in range(len(events)):
        yield events[:i] + events[i + 1 :]
    for i in range(len(events) - 1):
        yield events[:i] + [events[i + 1], events[i]] + events[i + 2 :]
    for i, ev in enumerate(events):
        if ev.kind == GROW:
            yield _tamper(events, i, t=ev.t + bump, to=ev.payload["to"] + bump)
            yield _tamper(events, i, **{"from": ev.payload["from"] - bump})
            sid = ev.payload["set"]
            yield _tamper(events, i, set=sid - 1 if sid else 1)
        elif ev.kind == TIGHT:
            yield _tamper(events, i, u=ev.payload["v"], v=ev.payload["u"])


@pytest.fixture(scope="module")
def differential():
    """The differential corpus: every clean trace and its single-edit
    tampers, with the verdicts the replay gives them."""
    cases = [gen_tightness_instance(6), gen_ring_instance(8)]
    for kind in ("line", "matrix", "ring", "euclidean"):
        for variant in (MPMD, MBPMD):
            for seed in range(4):
                cases.append(gen_random_instance(seed=seed, m=6, variant=variant, metric_kind=kind))
    traces = []
    for inst in cases:
        events = list(run(inst).event_log)
        bump = Fraction(1, 100) if inst.mode == EXACT else 0.01
        traces.append((inst, events))
        traces.extend((inst, tampered) for tampered in _tampered_traces(events, bump))
    return traces, [certify_events(inst, events).to_json() for inst, events in traces]


def _digest(docs):
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def test_verdicts_match_the_pinned_rational_replay(differential):
    """The verdicts on the differential corpus are the ones a replay in
    ``Fraction`` arithmetic gave (pinned by digest)."""
    traces, verdicts = differential
    assert len(traces) == 10016
    assert _digest(verdicts) == "d3ea5c54f211ace502c2d61069a52ebc05ec2adf9fb617e29c1f8877147e0454"


def test_clean_certificates_match_the_pinned_rational_replay():
    """Certificates of clean runs over every metric kind, both variants, a
    long tightness schedule and a ring with large denominators are the ones
    a replay in ``Fraction`` arithmetic gave (pinned by digest)."""
    cases = []
    for kind in ("line", "ring", "matrix"):
        for variant in (MPMD, MBPMD):
            for i, m in enumerate((20, 24, 28, 30)):
                cases.append(gen_random_instance(seed=100 + i, m=m, variant=variant, metric_kind=kind))
    small = ((5, "line", MPMD), (6, "line", MPMD), (6, "ring", MBPMD), (4, "matrix", MPMD))
    for i, (m, kind, variant) in enumerate(small):
        cases.append(gen_random_instance(seed=150 + i, m=m, variant=variant, metric_kind=kind))
    for i, variant in enumerate((MPMD, MPMD, MBPMD, MBPMD)):
        cases.append(gen_random_instance(seed=160 + i, m=20, variant=variant, metric_kind="euclidean"))
    cases += [gen_tightness_instance(50), gen_ring_instance(32)]
    docs = [certify(inst, run(inst)).to_json() for inst in cases]
    assert all(doc["ok"] for doc in docs)
    assert _digest(docs) == "25ff8cebbb153466c5919f6ac7fc600d7ab8fda0c4057194bfeaf8a45b0e52ef"


def route_pairs(inst, events):
    """(merge-tree route, reference ``marked_path``) for each matched pair
    of a clean replay of ``events``."""
    replay = _Replay(inst)
    assert replay.drive(events, True) is None
    route, marked, sets = replay.router(), replay.marked, replay.sets
    return [
        (marked_path(inst, marked, sets, (u, v), route), marked_path(inst, marked, sets, (u, v)))
        for u, v, _ in replay.matching
    ]


@pytest.mark.parametrize(
    "inst",
    [
        gen_tightness_instance(50),
        gen_tightness_instance(50, variant=MBPMD),
        gen_ring_instance(32),
        gen_ring_instance(32, covered_half="ccw"),
        *(
            gen_random_instance(seed=seed, m=12, variant=variant, metric_kind=kind)
            for kind in ("line", "ring", "matrix", "euclidean")
            for variant in (MPMD, MBPMD)
            for seed in range(3)
        ),
    ],
    ids=lambda inst: f"{inst.metric.kind}-{inst.variant}-m{inst.m}",
)
def test_merge_tree_routes_are_the_marked_paths(inst):
    """The endgame routes each matched pair through the merge tree; it must
    give the path, length and crossing count of the reference BFS route."""
    pairs = route_pairs(inst, list(run(inst).event_log))
    assert len(pairs) == inst.m
    for route, reference in pairs:
        assert route == reference


def test_merge_tree_routes_are_the_marked_paths_on_the_differential_corpus(differential):
    traces, verdicts = differential
    clean = [trace for trace, verdict in zip(traces, verdicts) if verdict["ok"]]
    assert len(clean) > len(traces) // 10
    for inst, events in clean:
        for route, reference in route_pairs(inst, events):
            assert route == reference


def _assert_admitted_structure(replay):
    """The structure admission guarantees (see ``certify``), wherever a
    replay stopped: the active sets partition the arrived requests and
    ``assign`` names each one's set; the marked edges inside each active set
    number one less than its members and close no cycle, and none crosses
    active sets; each marked edge's frozen value is at its budget."""
    active = [rec for rec in replay.sets if rec.parent is None]
    assert sorted(u for rec in active for u in rec.members) == list(range(replay.next_arrival))
    assign = replay.assign
    assert all(assign[u] == rec.set_id for rec in active for u in rec.members)
    root = {}

    def find(x):
        while x in root:
            x = root[x]
        return x

    for u, v, _ in replay.marked:
        ru, rv = find(u), find(v)
        assert ru != rv, f"marked edges close a cycle at ({u}, {v})"
        root[ru] = rv
    inside = [assign[u] for u, v, _ in replay.marked if assign[u] == assign[v]]
    assert len(inside) == len(replay.marked), "a marked edge crosses active sets"
    assert all(inside.count(rec.set_id) == len(rec.members) - 1 for rec in active)
    assert all(replay._at_budget(replay.frozen[u, v], replay.grid.cost(u, v)) for u, v, _ in replay.marked)


def test_admission_keeps_the_laminar_structure(differential, monkeypatch):
    """Every replay of the differential corpus, the per-event reference
    included, stops in a state with the structure admission guarantees, and
    the verdicts stay as they were."""
    traces, verdicts = differential
    drive, stops = _Replay.drive, []

    def checked(replay, *args):
        report = drive(replay, *args)
        _assert_admitted_structure(replay)
        stops.append(replay.per_event)
        return report

    monkeypatch.setattr(_Replay, "drive", checked)
    assert [certify_events(inst, events).to_json() for inst, events in traces] == verdicts
    assert stops.count(False) == len(traces) and stops.count(True) > 0


@pytest.mark.parametrize(
    "inst",
    [
        gen_tightness_instance(20),
        gen_tightness_instance(12, variant=MBPMD),
        gen_ring_instance(16),
        *(
            gen_random_instance(seed=seed, m=16, variant=variant, metric_kind=kind)
            for kind in ("line", "matrix", "ring", "euclidean")
            for variant in (MPMD, MBPMD)
            for seed in range(2)
        ),
    ],
)
def test_frozen_value_is_the_potentials_less_twice_the_shared_growth(inst):
    """A merge freezes each pair it joins; the endpoints' potentials then
    keep rising together by the ``y`` of every set holding both, so the
    frozen value is their sum less twice that shared growth."""
    replay = _Replay(inst)
    assert replay.drive(list(run(inst).event_log), True) is None
    assert replay.frozen
    potential, zero = replay.potential, replay.zero
    for (u, v), x in replay.frozen.items():
        shared = sum((rec.y for rec in replay.sets if u in rec.members and v in rec.members), zero)
        derived = potential[u] + potential[v] - 2 * shared
        if inst.mode == EXACT:
            assert x == derived, (u, v)
        else:
            assert eq(x, derived, FLOAT), (u, v, x, derived)


def test_stop_sweep_verdicts_match_the_per_event_reference(differential, monkeypatch):
    """Feasibility checked once where the replay stops gives the same verdict
    (property, detail, witness, event index) as the reference replay, which
    sweeps every pair after each growth event and at each settled instant,
    on clean and tampered traces."""
    traces, stop_sweep = differential
    # A stop sweep that always fails sends every trace to the reference.
    monkeypatch.setattr(_Replay, "within_budgets", lambda self: False)
    reference = [certify_events(inst, events).to_json() for inst, events in traces]
    assert stop_sweep == reference
    props = [v.get("property") for v in reference]
    assert props.count("dual-feasibility") > 0
    assert sum(1 for v in reference if not v["ok"]) > len(reference) // 2
